"""Shape of the fused scans: job counts that do not grow with width, py4j
round trips that grow by a few per column, and a co-moment kernel that
executors can run without this package."""
import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pytest
from py4j.clientserver import ClientServerConnection
from py4j.java_gateway import GatewayConnection
from pyspark import cloudpickle

from repro.core import compute, create_report
from repro.core.correlation import _comoment_kernel, comoment_scan
from repro.core.dtypes import EDAType, detect_types

_groups = itertools.count()


def _frame(spark, n_num: int, n_cat: int, nrows: int = 2000):
    g = np.random.default_rng(n_num)
    pdf = pd.DataFrame({f"n{i}": g.normal(i, 1.0, nrows) for i in range(n_num)})
    for i in range(n_cat):
        pdf[f"c{i}"] = g.choice(["a", "b", "c"], nrows).astype(object)
    pdf = pdf.mask(g.random(pdf.shape) < 0.1)
    df = spark.createDataFrame(pdf).repartition(4)
    df.cache().count()
    return df


def _jobs(spark, fn) -> int:
    """Spark jobs ``fn`` runs, read from the status tracker under a job group."""
    sc = spark.sparkContext
    group = f"scan-shape-{next(_groups)}"
    sc.setJobGroup(group, group)
    try:
        fn()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.fixture(scope="module")
def narrow_and_wide(spark):
    frames = [_frame(spark, 6, 2), _frame(spark, 30, 10)]
    yield frames
    for df in frames:
        df.unpersist()


def _stats(df):
    return compute.basic_stats_pass(df, detect_types(df), quantile_probs=compute.STATS_QUANTILES)


def _scan(df):
    num = [c for c, t in detect_types(df).items() if t is EDAType.NUMERICAL]
    return comoment_scan(df, num, df.columns)


@pytest.mark.parametrize(
    "run", [_stats, _scan, create_report], ids=["basic_stats_pass", "comoment_scan", "create_report"]
)
def test_job_count_independent_of_width(spark, narrow_and_wide, run):
    narrow, wide = narrow_and_wide
    assert len(narrow.columns) == 8 and len(wide.columns) == 40
    counts = [_jobs(spark, lambda: run(df)) for df in (narrow, wide)]
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_report_job_count_independent_of_width_above_the_budget(
    spark, narrow_and_wide, monkeypatch
):
    """The same at a cell budget of 0, where the report runs its numeric
    passes in Spark instead of on the driver."""
    monkeypatch.setattr(compute, "DRIVER_CELLS", 0)
    counts = [_jobs(spark, lambda: create_report(df)) for df in narrow_and_wide]
    assert counts[0] > 0
    assert counts[0] == counts[1]


def test_comoment_scan_is_one_job(spark, narrow_and_wide):
    assert _jobs(spark, lambda: _scan(narrow_and_wide[1])) == 1


def _round_trips(fn) -> int:
    """py4j commands ``fn`` sends, on every thread.

    Memory releases are left out: py4j's finalizer thread sends one
    whenever Python drops a Java reference, at times the garbage collector
    picks, so they do not repeat from run to run.
    """
    count = itertools.count()
    originals = [(cls, cls.send_command) for cls in (ClientServerConnection, GatewayConnection)]

    def counted(send):
        def send_command(conn, command, *args, **kwargs):
            if not command.startswith("m\nd\n"):
                next(count)
            return send(conn, command, *args, **kwargs)

        return send_command

    for cls, send in originals:
        cls.send_command = counted(send)
    try:
        fn()
    finally:
        for cls, send in originals:
            cls.send_command = send
    return next(count)


#: py4j round trips on the 8- and 40-column frames of ``test_scan_shape``
#: (6 + 30 numeric, 2 + 10 categorical columns). The Column-API plans took
#: 1,011 / 2,291 (stats) and 833 / 4,001 (scan).
PINNED_ROUND_TRIPS = {"basic_stats_pass": (_stats, 212, 372), "comoment_scan": (_scan, 83, 251)}
#: round trips per added column, at most
PER_COLUMN = 6


@pytest.mark.parametrize(
    "run, narrow, wide", PINNED_ROUND_TRIPS.values(), ids=PINNED_ROUND_TRIPS.keys()
)
def test_round_trips_pinned(narrow_and_wide, run, narrow, wide):
    small, large = narrow_and_wide
    for df in (small, large):
        detect_types(df)  # the schema is fetched once per frame
    got = [_round_trips(lambda: run(df)) for df in (small, large)]
    assert got == [narrow, wide]
    assert (got[1] - got[0]) / (len(large.columns) - len(small.columns)) <= PER_COLUMN


_RUN_WITHOUT_PACKAGE = textwrap.dedent(
    """
    import importlib.abc
    import pickle
    import sys

    class Block(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path, target=None):
            if name.split(".")[0] == "repro":
                raise ImportError(name + " is not installed here")

    sys.meta_path.insert(0, Block())
    kernel = pickle.loads(sys.stdin.buffer.read())
    import pandas as pd

    batch = pd.DataFrame({"a": [1.0, 2.0, 4.0], "b": [2.0, float("nan"), 7.0]})
    (out,) = kernel(iter([batch]))
    rows, n, mean, m2, c = pickle.loads(out["payload"][0])
    print(rows, n[0, 1], mean[1, 0])
    """
)


def test_comoment_kernel_runs_without_the_package(tmp_path):
    """The kernel's cloudpickle payload references nothing in ``repro``."""
    kernel, _ = _comoment_kernel(2)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_PACKAGE],
        input=cloudpickle.dumps(kernel),
        capture_output=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().split() == ["3", "2.0", "4.5"]


_LOAD_WITHOUT_PACKAGE = _RUN_WITHOUT_PACKAGE[: _RUN_WITHOUT_PACKAGE.index("batch = ")]
_RUN_WITH_BINS_AND_SPECTRUM = _LOAD_WITHOUT_PACKAGE + textwrap.dedent(
    """
    # value a, the indicator of b, then monotonically_increasing_id() in
    # partition 1, whose rows are global rows 2-4 of 5
    batch = pd.DataFrame(
        {"a": [1.0, 2.0, 4.0], "b": [0.0, 1.0, 1.0], "id": [2**33 + i for i in range(3)]}
    )
    (out,) = kernel(iter([batch]))
    rows = pickle.loads(out["payload"][0])[0]
    (hist,) = pickle.loads(out["hist"][0])
    seg_rows, seg_missing = pickle.loads(out["spectrum"][0])
    print(rows, out["pid"][0], *hist, *seg_rows, *seg_missing.ravel())
    """
)


def test_comoment_kernel_with_bins_and_spectrum_runs_without_the_package(tmp_path):
    """The same, with a histogram and a spectrum baked into the kernel."""
    bins = [(0, 1.0, 1.5, 2)]  # column 0 over [1, 4] in 2 bins of width 1.5
    kernel, _ = _comoment_kernel(2, bins, ({1: 2}, 5, 2, 1))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "-c", _RUN_WITH_BINS_AND_SPECTRUM],
        input=cloudpickle.dumps(kernel),
        capture_output=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()
    # a: 1 and 2 in bin 0, 4 capped into bin 1; rows 2-4 of 5 in 2
    # segments: row 2 in segment 0, rows 3 and 4 (both b missing) in 1
    assert res.stdout.decode().split() == ["3", "1", "2", "1", "1", "2", "0", "2"]
