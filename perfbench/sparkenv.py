"""The benchmark's pinned local Spark session.

Every setting lives in ``session.json`` so that two commits are measured
with identical sessions. JVM-launch options (master, driver memory, Java
options) go through ``PYSPARK_SUBMIT_ARGS`` before the gateway starts; the
rest are passed to the session builder. All scratch files (Spark local
dirs, Java and Python temp files, the event log) stay under ``tmp``.
"""
from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SETTINGS = Path(__file__).resolve().parent / "session.json"


def load_settings() -> dict:
    return json.loads(SETTINGS.read_text())


def configure_launch(settings: dict, tmp: Path) -> None:
    """Point temp files at ``tmp`` and fix the JVM launch arguments."""
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None  # re-read TMPDIR on next use
    # Every JVM, the spark-submit launcher included: temp files under tmp,
    # and no /tmp/hsperfdata_* performance-counter file.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join([
        "--master", settings["master"],
        "--driver-memory", settings["driver_memory"],
        "--conf", "spark.driver.extraJavaOptions=" + " ".join(settings["java_options"]),
        "pyspark-shell",
    ])
    os.environ["PYSPARK_PYTHON"] = sys.executable


def start(settings: dict, tmp: Path, event_log: Path | None = None):
    """Start the session; with ``event_log`` Spark writes its event log there."""
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in settings["conf"].items():
        builder = builder.config(key, value)
    builder = builder.config("spark.local.dir", str(tmp / "spark-local"))
    if event_log is not None:
        event_log.mkdir(parents=True, exist_ok=True)
        builder = (
            builder.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.rolling.enabled", "false")
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.dir", event_log.as_uri())
        )
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    proc.stdin.close()  # the JVM exits when its stdin pipe closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def environment(spark) -> dict:
    """Versions and core count actually in use, to compare with session.json."""
    import numpy
    import pandas
    import pyspark

    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "pyspark": pyspark.__version__,
        "java": spark.sparkContext._jvm.java.lang.System.getProperty("java.version"),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "nproc": os.cpu_count(),
    }
