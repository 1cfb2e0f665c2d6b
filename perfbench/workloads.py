"""The benchmark's workloads: a seeded input and the calls of one pass.

A *pass* is the unit a workload repeats: one ``create_report`` call on
``report_wide``, the fixed 11-call sequence on ``task_session``. Each
workload is one client in a closed loop: it issues the next call only
after the previous one has returned.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import pandas as pd

from repro import datasets
from repro.core import create_report, plot, plot_correlation, plot_missing

import checks


@dataclass(frozen=True)
class Call:
    fn: Callable
    args: tuple
    check: Callable  # (intermediates, Reference) -> list of mismatches

    @property
    def span(self) -> str:
        """Span name of the public function: ``<module>.<function>``."""
        return f"{self.fn.__module__.rsplit('.', 1)[-1]}.{self.fn.__name__}"

    @property
    def label(self) -> str:
        return f"{self.fn.__name__}({', '.join(('df',) + self.args)})"


@dataclass(frozen=True)
class Workload:
    name: str
    spec: datasets.DatasetSpec
    calls: tuple[Call, ...]
    #: span that ``correlation.ranked`` must run inside, or None when the
    #: rank transform must not run at all (the path guard)
    ranked_in: str | None
    #: traced runs add one report on an 8-column frame, for the job count
    narrow_report: bool = False

    def make_pandas(self, seed: int) -> pd.DataFrame:
        return datasets.generate_pandas(replace(self.spec, seed=seed))


# hotel's Table-2 shape (20 numeric + 12 categorical, cardinality up to
# 180) at a quarter of its 119,000 rows, so that a run with its set-up and
# warm-up fits the benchmark's time budget. A report on the full input
# takes about 1.5× as long.
REPORT_WIDE = Workload(
    "report_wide",
    replace(datasets.SPEC_BY_NAME["hotel"], nrows=29_750),
    (Call(create_report, (), checks.check_report),),
    ranked_in=None,  # 20 × 29,750 cells: Spearman ranks on the driver
    narrow_report=True,
)

# rain's Table-2 mix (10 % missing, cardinality up to 49) at half its
# width, 8 numeric + 4 categorical columns, and a tenth of its 142,000
# rows: the calls are small, so fixed per-call cost dominates. The
# whole-frame correlation and missing calls are left out; their passes
# (correlation matrices, spectrum, nullity) run in every report_wide pass.
TASK_SESSION = Workload(
    "task_session",
    replace(datasets.SPEC_BY_NAME["rain"], nrows=14_200, n_num=8, n_cat=4),
    (
        Call(plot, (), checks.check_overview),
        Call(plot, ("num_0",), checks.check_univariate),
        Call(plot, ("cat_0",), checks.check_univariate),
        Call(plot, ("num_0", "num_1"), checks.unchecked),
        Call(plot, ("num_0", "cat_0"), checks.unchecked),
        Call(plot, ("cat_0", "cat_1"), checks.unchecked),
        Call(plot_correlation, ("num_0",), checks.check_correlation_vector),
        Call(plot_correlation, ("num_0", "num_1"), checks.check_correlation_pair),
        Call(plot_missing, ("num_0",), checks.unchecked),
        Call(plot_missing, ("num_0", "num_1"), checks.unchecked),
        Call(plot_missing, ("num_0", "cat_0"), checks.unchecked),
    ),
    ranked_in="correlation.compute_correlation_vector",
)

WORKLOADS = {w.name: w for w in (REPORT_WIDE, TASK_SESSION)}

def narrow_frame(spark, seed: int, partitions: int):
    """8 numeric columns (the Figure-6 bitcoin table) at report_wide's row
    count: its report's job count is set beside report_wide's 32 columns."""
    return datasets.bitcoin_like(
        spark, nrows=REPORT_WIDE.spec.nrows, seed=seed, partitions=partitions
    )
