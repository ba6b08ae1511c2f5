"""plexflow benchmark entry point.

    python3 perfbench/run.py --workload cli-1x --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
is the separate traced run: it repeats the seed's first pass untraced and
traced, and reports the per-layer metrics plus ``trace_overhead``.
``--workload all`` runs every workload, each in its own process, and prints
a summary. The last line of stdout is always one JSON result object.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402
from perfbench.layers import CLI, CV, LAYER_METRICS, LIB, REQUIRED  # noqa: E402

WORKLOADS = (CLI, LIB, CV)


def _workload(name: str, seed: int):
    if name == CLI:
        from perfbench.cli1x import Cli1x
        return Cli1x(seed)
    if name == LIB:
        from perfbench.library16x import Library16x
        return Library16x(seed)
    from perfbench.openpredict_cv import OpenPredictCv
    return OpenPredictCv(seed)


def _timing_run(wl, seconds: int):
    loop = harness.LoopResult()

    def one_pass(pass_index: int) -> None:
        for op in wl.operations(pass_index):
            secs, error, _ = wl.execute(op, traced=False)
            loop.samples.append(harness.Sample(op.name, secs, error, pass_index))

    passes = harness.closed_loop(seconds, one_pass)
    summary = harness.latency_summary(loop)
    metrics = {
        "throughput_ops_s": (summary.get("throughput_ops_s", 0.0), "1/s"),
        "latency_p50_ms": (summary.get("latency_p50_ms", 0.0), "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    p90 = summary.get("latency_p90_ms")
    beyond = summary.get("samples_beyond_p90", 0)
    tail = (f"latency_p90_ms = {p90:.6g} ms ({beyond} samples beyond)"
            if p90 is not None else
            f"latency_p90_ms not reported: {beyond} samples beyond p90, "
            f"{harness.MIN_BEYOND_TAIL} needed")
    notes = [f"{passes} passes, {summary['samples']} successful samples; {tail}"]
    return loop, metrics, {"passes": passes, **summary}, notes


def _traced_run(wl, seconds: int):
    from perfbench.spans import layer_metrics, uncalled

    loop = harness.LoopResult()
    groups = []
    wall = {False: 0.0, True: 0.0}
    traced_ops = 0

    def one_pair(_pair: int) -> None:
        nonlocal traced_ops
        ops = wl.operations(0)   # the same pass every time: counts repeat
        for traced in (False, True):
            for op in ops:
                secs, error, span_groups = wl.execute(op, traced=traced)
                loop.samples.append(harness.Sample(op.name, secs, error))
                wall[traced] += secs
                if traced:
                    groups.extend(span_groups)
                    traced_ops += 1

    pairs = harness.closed_loop(seconds, one_pair)
    values = layer_metrics(groups, traced_ops)
    values["trace_overhead"] = wall[True] / wall[False] - 1.0
    metrics = {m.name: (values[m.name], m.unit) for m in LAYER_METRICS}
    missing = uncalled(groups, REQUIRED[wl.name])
    notes = [f"{pairs} untraced+traced pass pairs, {traced_ops} traced operations"]
    if missing:
        notes.append("wrapper coverage: no calls recorded for " + ", ".join(missing))
    return loop, metrics, {"pairs": pairs, "traced_operations": traced_ops,
                           "uncalled": missing}, notes


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    harness.pin_environment()
    harness.import_plexflow()
    wl = _workload(name, seed)
    try:
        setup_s, setup_all = harness.timed_setup(wl.setup)
        if trace:
            loop, metrics, extra, notes = _traced_run(wl, seconds)
        else:
            loop, metrics, extra, notes = _timing_run(wl, seconds)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    finally:
        wl.close()
    record = harness.run_record(name, seed, seconds, trace)
    record.update(extra, setup_durations_s=setup_all, errors=loop.errors()[:20],
                  samples=[[s.op, s.seconds, s.error] for s in loop.samples])
    failed = loop.failed
    correct = failed == 0 and not extra.get("uncalled")
    notes += [f"error: {e}" for e in loop.errors()[:5]]
    harness.emit(record, metrics, len(loop.samples), failed, correct, notes)
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            totals["correct"] = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            totals["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
