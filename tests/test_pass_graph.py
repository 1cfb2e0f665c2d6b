"""The pass graphs of the report and of the correlation vector and pair:
passes in flight together keep the caller's job group, raise what a pass
raises, leave no thread and no py4j connection behind, warn nothing, and
run with pyspark's pinned-thread mode off too."""
import gc
import itertools
import os
import subprocess
import sys
import textwrap
import threading
import warnings

import pytest

from repro.core import compute, create_report, plot_correlation

from .test_scan_shape import _stats

_groups = itertools.count()

CALLS = {
    "create_report": create_report,
    "basic_stats_pass": _stats,
    "plot_correlation_vector": lambda df: plot_correlation(df, "num_0"),
    "plot_correlation_pair": lambda df: plot_correlation(df, "num_0", "num_1"),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_every_job_runs_under_the_callers_group(spark, titanic, call):
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    group = f"pass-graph-{next(_groups)}"
    ungrouped = set(tracker.getJobIdsForGroup(None))
    sc.setJobGroup(group, "the caller's description")
    try:
        call(titanic)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    assert tracker.getJobIdsForGroup(group)
    assert set(tracker.getJobIdsForGroup(None)) <= ungrouped


def test_a_failing_pass_raises_its_error(titanic, monkeypatch):
    """The gate at the default budget; the value counts, which run in
    flight only in Spark, at a budget of 0."""
    for name, budget in (("partition_sizes", compute.DRIVER_CELLS), ("value_counts_pass", 0)):
        error = ValueError(f"{name} failed")

        def fail(*args, **kwargs):
            raise error

        with monkeypatch.context() as m:
            m.setattr(compute, name, fail)
            m.setattr(compute, "DRIVER_CELLS", budget)
            with pytest.raises(ValueError) as raised:
                create_report(titanic)
        assert raised.value is error, name


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_no_thread_left_and_no_user_warning(titanic, call):
    before = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(titanic)
    assert threading.active_count() == before
    # the pool is the call's own: none of its threads outlives the call
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]
    assert [w for w in caught if issubclass(w.category, UserWarning)] == []


def test_pool_threads_leave_no_py4j_connection_open(titanic):
    """Each pool thread talks to the JVM over a py4j connection of its own;
    none is left open once the call has returned."""
    from py4j.clientserver import ClientServerConnection

    def open_connections() -> int:
        gc.collect()
        return sum(
            1 for o in gc.get_objects()
            if isinstance(o, ClientServerConnection) and o.socket is not None
        )

    before = open_connections()
    create_report(titanic)
    plot_correlation(titanic, "num_0", "num_1")
    assert open_connections() == before


_WITHOUT_PINNED_THREADS = textwrap.dedent(
    """
    from pyspark.sql import SparkSession

    from repro.core import compute
    from repro.core.dtypes import detect_types

    spark = (
        SparkSession.builder.master("local[1]").config("spark.ui.enabled", "false").getOrCreate()
    )
    df = spark.range(5).selectExpr("id", "CAST(id AS STRING) AS s")
    print(compute.basic_stats_pass(df, detect_types(df))["__table__"]["nrows"])
    spark.stop()
    """
)


def test_passes_run_with_pinned_threads_off(tmp_path):
    """``PYSPARK_PIN_THREAD=false``: pyspark's wrapper factory returns the
    session itself, which the pool must not call."""
    env = {
        **{k: v for k, v in os.environ.items() if k != "PYSPARK_SUBMIT_ARGS"},
        "PYSPARK_PIN_THREAD": "false",
        "PYTHONPATH": os.pathsep.join(sys.path),
        "PYSPARK_SUBMIT_ARGS": (
            "--driver-memory 512m --conf spark.driver.host=127.0.0.1 pyspark-shell"
        ),
    }
    res = subprocess.run(
        [sys.executable, "-c", _WITHOUT_PINNED_THREADS],
        capture_output=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr.decode()[-2000:]
    assert res.stdout.decode().split()[-1] == "5"
