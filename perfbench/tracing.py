"""Spans around the library's layers, recorded from the benchmark's side.

``Tracer`` replaces each function named in ``SPANS`` by a wrapper in every
``repro`` module namespace that holds it, so the caller's own lookup (for
example ``repro.core.report.pearson_matrix`` and
``repro.core.missing.pearson_matrix``) reaches the wrapper. A span records
its wall time, the time its direct children cover, and the py4j round trips
made while it is the innermost span. Each span runs its Spark jobs under a
job group of its own; spans nest, and the parent's group is restored on
exit. Jobs, tasks and executor run time per group are read back from the
Spark event log once the session has stopped (``event_log_by_group``).
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from py4j.clientserver import ClientServerConnection
from py4j.java_gateway import GatewayConnection

#: ``<module>.<function>`` under ``repro.core``; every Spark pass the report
#: and the task functions run, plus the driver-only shaping and rendering.
SPANS = (
    "compute.basic_stats_pass",
    "compute.histogram_pass",
    "compute.value_counts_pass",
    "compute.sample_pass",
    "overview.duplicate_rows_pass",
    "overview.compute_overview",
    "correlation.pearson_matrix",
    "correlation.spearman_matrix",
    "correlation.ranked",
    "correlation.kendall_matrix",
    "correlation.compute_correlation_vector",
    "missing.spectrum_pass",
    "missing.nullity_correlation",
    "missing.nullity_dendrogram",
    "missing.compute_missing_col",
    "missing.compute_missing_pair",
    "univariate.compute_univariate",
    "bivariate.compute_bivariate",
    "report.compute_report",
    "report.report_insights",
    "render.render_report",
    "render.render",
)

_JOB_GROUP_KEYS = ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel")


@dataclass
class Span:
    name: str
    group: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0  # wall time of direct children
    book_s: float = 0.0   # tracer bookkeeping inside this span, outside its children
    py4j_calls: int = 0   # round trips while this span was innermost

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s - self.book_s

    def within(self, name: str) -> bool:
        """True when an ancestor span is called ``name``."""
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


class Tracer:
    """Context manager that installs the span wrappers and py4j counter."""

    def __init__(self, sc):
        self._sc = sc
        self._stack: list[Span] = []
        self.spans: list[Span] = []
        self._counting = False
        self._thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for qual in SPANS:
            module, func = qual.split(".")
            original = getattr(importlib.import_module(f"repro.core.{module}"), func)
            wrapper = self._wrap(qual, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        for cls in (ClientServerConnection, GatewayConnection):
            self._restore.append((cls, "send_command", cls.send_command))
            cls.send_command = self._counted(cls.send_command)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, send):
        def send_command(conn, command, *args, **kwargs):
            # py4j's finalizer thread releases Java objects asynchronously;
            # only the workload thread's own round trips are counted, so the
            # counts repeat from run to run.
            if self._counting and threading.get_ident() == self._thread:
                self._stack[-1].py4j_calls += 1
            return send(conn, command, *args, **kwargs)

        return send_command

    # -- spans --------------------------------------------------------------
    def _set_group(self, span: Span | None) -> None:
        if span is None:
            for key in _JOB_GROUP_KEYS:
                self._sc.setLocalProperty(key, None)
        else:
            self._sc.setJobGroup(span.group, span.name)

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        self._counting = False
        parent = self._stack[-1] if self._stack else None
        span = Span(name, f"perfbench-{len(self.spans)}", parent)
        self._set_group(span)
        self._stack.append(span)
        self.spans.append(span)
        self._counting = True
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._counting = False
            self._stack.pop()
            self._set_group(parent)
            if parent is not None:
                parent.child_s += span.end - span.start
                parent.book_s += (span.start - t0) + (time.perf_counter() - span.end)
                self._counting = True


def event_log_by_group(event_log_dir: Path) -> dict[str, dict[str, float]]:
    """Jobs, tasks, failed tasks and executor run time per job group.

    Stages are attributed to the job group of the job that submitted them,
    so a stage that a later job reuses (and skips) is counted once.
    """
    out: dict[str, dict[str, float]] = {}
    stage_group: dict[tuple[int, int], str] = {}

    def entry(group: str) -> dict[str, float]:
        return out.setdefault(group, {"jobs": 0, "tasks": 0, "tasks_failed": 0, "executor_s": 0.0})

    for path in sorted(event_log_dir.iterdir()):
        with path.open() as f:
            for line in f:
                event = json.loads(line)
                kind = event.get("Event")
                if kind == "SparkListenerJobStart":
                    group = (event.get("Properties") or {}).get("spark.jobGroup.id")
                    if group:
                        entry(group)["jobs"] += 1
                elif kind == "SparkListenerStageSubmitted":
                    group = (event.get("Properties") or {}).get("spark.jobGroup.id")
                    info = event["Stage Info"]
                    if group:
                        stage_group[(info["Stage ID"], info["Stage Attempt ID"])] = group
                elif kind == "SparkListenerTaskEnd":
                    group = stage_group.get((event["Stage ID"], event["Stage Attempt ID"]))
                    if group is None:
                        continue
                    e = entry(group)
                    e["tasks"] += 1
                    if event.get("Task Info", {}).get("Failed"):
                        e["tasks_failed"] += 1
                    metrics = event.get("Task Metrics") or {}
                    e["executor_s"] += metrics.get("Executor Run Time", 0) / 1000.0
    return out
