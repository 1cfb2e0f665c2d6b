"""Benchmark of the EDA library: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload report_wide --seed 1 --seconds 5 --trace 0

The run starts the pinned local Spark session (``session.json``), builds
the workload's input from the seed, warms up with one pass, then repeats
passes of the workload's calls until ``--seconds`` have elapsed. Each call
is timed from outside the library and checked against pandas outside the
timed region. The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
named in ``BENCHMARK.json``; a table of the same numbers precedes it.

With ``--trace 1`` the run interleaves traced and untraced passes (see
``tracing.py``); the difference is the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark of this process (Linux ≥ 4.0)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6  # kernel reports KiB
    raise RuntimeError("VmHWM not found in /proc/self/status")


class Runner:
    """Issues one workload's calls in a closed loop and checks each result."""

    def __init__(self, workload, df, ref):
        self.workload = workload
        self.df = df
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def warm_up(self) -> None:
        for call in self.workload.calls:
            call.fn(self.df, *call.args)

    def run_pass(self, tracer=None) -> list[float]:
        """Latency of each call of one pass, in seconds."""
        latencies = []
        for call in self.workload.calls:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = call.fn(self.df, *call.args)
                else:
                    with tracer.span(call.span):
                        result = call.fn(self.df, *call.args)
            except Exception:
                latencies.append(time.perf_counter() - t0)
                self.failed += 1
                self.problems.append(f"{call.label} raised:\n{traceback.format_exc()}")
                continue
            latencies.append(time.perf_counter() - t0)
            problems = call.check(result.intermediates, self.ref)
            if problems:
                self.failed += 1
                self.problems += [f"{call.label}: {p}" for p in problems]
        return latencies

    def measure(self, seconds: float) -> list[list[float]]:
        """Passes until ``seconds`` have elapsed, at least one."""
        passes: list[list[float]] = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(self.run_pass())
        return passes


def pass_metrics(passes: list[list[float]]) -> dict[str, float]:
    return {
        "pass_s": statistics.median(sum(p) for p in passes),
        "call_s_p50": statistics.median(t for p in passes for t in p),
    }


def layer_metrics(units: list[list], groups: dict) -> dict[str, list[float]]:
    """Per traced pass: per-span sums of self time, py4j calls and Spark work."""
    per_unit = []
    for spans in units:
        m: dict[str, float] = defaultdict(float)
        for s in spans:
            g = groups.get(s.group, {})
            m[f"{s.name}.self_s"] += s.self_s
            m[f"{s.name}.py4j_calls"] += s.py4j_calls
            m["pass.total.py4j_calls"] += s.py4j_calls
            for stat in ("jobs", "tasks", "tasks_failed", "executor_s"):
                m[f"{s.name}.{stat}"] += g.get(stat, 0)
                m[f"pass.total.{stat}"] += g.get(stat, 0)
            if s.parent is None:
                m["pass.total.wall_s"] += s.end - s.start
        per_unit.append(m)
    keys = set().union(*per_unit)
    return {k: [u.get(k, 0.0) for u in per_unit] for k in keys}


def path_guard(workload, units: list[list]) -> tuple[bool, str]:
    """Does the distributed rank transform run where the workload expects?"""
    ranked = [s for spans in units for s in spans if s.name == "correlation.ranked"]
    in_spearman = sum(s.within("correlation.spearman_matrix") for s in ranked)
    if workload.ranked_in is None:
        ok = not ranked
        expect = "absent"
    else:
        ok = bool(ranked) and all(s.within(workload.ranked_in) for s in ranked)
        expect = f"only inside {workload.ranked_in}"
    return ok, (f"correlation.ranked spans: {len(ranked)} "
                f"({in_spearman} inside correlation.spearman_matrix); expected {expect}")


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(f"== {title}")
    for name, value, unit, note in rows:
        print(f"  {name:<48} {value:>14.6f} {unit:<6} {note}")


def build_input(spark, workload, seed: int, partitions: int):
    """The cached Spark input, the pandas frame it came from, and the
    build time in seconds."""
    t0 = time.perf_counter()
    pdf = workload.make_pandas(seed)
    df = spark.createDataFrame(pdf).repartition(partitions).cache()
    df.count()
    return df, pdf, time.perf_counter() - t0


def traced_passes(runner, tracer, seconds: float):
    """Traced and untraced passes interleaved T U T (U T)… until ``seconds``
    have elapsed and at least two traced passes have run, so that the py4j
    spread compares repeats; the difference of the traced and untraced
    medians is the tracing overhead. Returns (untraced passes, traced
    passes, spans per traced pass)."""
    passes, traced, units = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        first = len(tracer.spans)
        with tracer:
            traced.append(runner.run_pass(tracer))
        units.append(tracer.spans[first:])
        if len(traced) >= 2 and time.perf_counter() >= deadline:
            return passes, traced, units
        passes.append(runner.run_pass())


def narrow_report_spans(spark, tracer, seed: int, partitions: int) -> list:
    from workloads import narrow_frame
    from repro.core import create_report

    narrow = narrow_frame(spark, seed, partitions).cache()
    narrow.count()
    first = len(tracer.spans)
    with tracer, tracer.span("report.create_report"):
        create_report(narrow)
    narrow.unpersist()
    return tracer.spans[first:]


def run(args, bench: dict, tmp: Path) -> int:
    import sparkenv

    settings = sparkenv.load_settings()
    sparkenv.configure_launch(settings, tmp)

    import checks
    import tracing
    from workloads import WORKLOADS
    from repro.core import Config

    workload = WORKLOADS[args.workload]
    partitions = settings["input_partitions"]
    event_log = tmp / "eventlog" if args.trace else None

    t0 = time.perf_counter()
    spark = sparkenv.start(settings, tmp, event_log)
    session_s = time.perf_counter() - t0
    try:
        env = sparkenv.environment(spark)
        print(f"session {json.dumps(settings)}", file=sys.stderr)
        print(f"environment {json.dumps(env)}", file=sys.stderr)
        for key, want in settings["environment"].items():
            if env[key] != want:
                print(f"warning: {key} is {env[key]}, session.json records {want}",
                      file=sys.stderr)

        df, pdf, input_s = build_input(spark, workload, args.seed, partitions)
        ncols = len(df.columns)
        runner = Runner(workload, df, checks.Reference(pdf, Config.from_user(None)["bar.top_n"]))
        del pdf
        t0 = time.perf_counter()
        runner.warm_up()
        warmup_s = time.perf_counter() - t0

        rss_reset = reset_peak_rss()
        if args.trace:
            tracer = tracing.Tracer(spark.sparkContext)
            passes, traced, units = traced_passes(runner, tracer, args.seconds)
            narrow_spans = (narrow_report_spans(spark, tracer, args.seed, partitions)
                            if workload.narrow_report else [])
        else:
            passes = runner.measure(args.seconds)
        rss_mb = peak_rss_mb()
    finally:
        sparkenv.stop(spark)

    e2e = {
        "setup_s": session_s + input_s + warmup_s,
        **pass_metrics(passes),
        "driver_peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"session {session_s:.2f} + input {input_s:.2f} + warm-up pass {warmup_s:.2f}",
        "pass_s": f"median of {len(passes)} passes: " + " ".join(f"{sum(p):.2f}" for p in passes),
        "call_s_p50": f"median of {sum(len(p) for p in passes)} calls",
        "driver_peak_rss_mb": "peak during timed passes" if rss_reset
                              else "process lifetime peak (reset unsupported)",
    }
    ok = runner.failed == 0
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print_table("end-to-end (untraced)",
                [(m["name"], e2e[m["name"]], m["unit"], notes[m["name"]])
                 for m in bench["end_to_end"]])
    print(f"  error_rate = {runner.failed}/{runner.attempted} calls")
    print("== median latency per call, s" + ("  (untraced, traced)" if args.trace else ""))
    for i, call in enumerate(workload.calls):
        cols = [statistics.median(p[i] for p in passes)]
        if args.trace:
            cols.append(statistics.median(p[i] for p in traced))
        print(f"  {call.label:<48} " + " ".join(f"{v:>10.4f}" for v in cols))
    for p in runner.problems[:20]:
        print(f"  check failed: {p}", file=sys.stderr)
    declared, values = bench["end_to_end"], e2e

    if args.trace:
        groups = tracing.event_log_by_group(event_log)
        per_layer = layer_metrics(units, groups)
        layer = {k: statistics.median(v) for k, v in per_layer.items()}
        py4j = per_layer.get("pass.total.py4j_calls", [0])
        layer["pass.total.py4j_calls_spread"] = max(py4j) - min(py4j)
        layer["pass.trace.overhead_s"] = pass_metrics(traced)["pass_s"] - e2e["pass_s"]
        if narrow_spans:
            jobs_8col = layer_metrics([narrow_spans], groups)["pass.total.jobs"][0]
            layer["report.create_report.jobs_8col"] = jobs_8col
            print(f"  Spark jobs per report: {layer['pass.total.jobs']:.0f} with {ncols} "
                  f"columns, {jobs_8col:.0f} with 8 columns")
        guard_ok, guard = path_guard(workload, units)
        ok = ok and guard_ok
        print(f"  path guard {'ok' if guard_ok else 'FAILED'}: {guard}")
        declared, values = bench["per_layer"], layer
        print_table(f"per-layer (median of {len(units)} traced passes)",
                    [(m["name"], layer.get(m["name"], 0.0), m["unit"], "") for m in declared])

    print(json.dumps({
        "correct": ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root; src/repro or BENCHMARK.json not found",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = ROOT / ".perfbench_out"
    tmp = out / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        return run(args, bench, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            out.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
