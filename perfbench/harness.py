"""Shared plumbing: checkout paths, pinned environment, child processes,
the closed loop, summary statistics and the result record.

Nothing here imports plexflow or numpy at module level, so the traced
child bootstrap can import it before it times ``import plexflow.cli``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BOOTSTRAP = Path(__file__).resolve().parent / "bootstrap.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REQUEST_TIMEOUT_S = 120.0
SETUP_REPEATS = 3
TAIL_PERCENT = 90
MIN_BEYOND_TAIL = 10


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources, failed set-up)."""


def pin_environment() -> None:
    """One BLAS/OpenMP thread and the checkout's ``src`` first on the path,
    for this process and every child it starts."""
    if not (SRC / "plexflow" / "__init__.py").is_file():
        raise SetupError(f"no plexflow sources under {SRC}")
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_plexflow():
    """Import plexflow from this checkout and refuse any other copy."""
    import plexflow
    if Path(plexflow.__file__).resolve().parent != (SRC / "plexflow").resolve():
        raise SetupError(f"plexflow imported from {plexflow.__file__}, "
                         f"not from {SRC}")
    return plexflow


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Response:
    code: int | None          # None when the request timed out
    stdout: str
    stderr: str
    seconds: float


def run_child(argv: list[str], cwd: Path, traced_spans: Path | None = None,
              request: str = "") -> Response:
    """One fresh ``python -m plexflow`` process, or the traced bootstrap."""
    if traced_spans is None:
        cmd = [sys.executable, "-m", "plexflow", *argv]
    else:
        cmd = [sys.executable, str(BOOTSTRAP), str(traced_spans), request,
               "--", *argv]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                              timeout=REQUEST_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has already killed and reaped the child.
        return Response(None, exc.stdout or "", exc.stderr or "",
                        time.perf_counter() - start)
    return Response(done.returncode, done.stdout, done.stderr,
                    time.perf_counter() - start)


def traced_child(argv: list[str], cwd: Path,
                 request: str) -> tuple[Response, list | None]:
    """A request through the traced bootstrap, with the spans it recorded
    (None when the child wrote none)."""
    from .spans import load_spans

    path = cwd / f"spans-{request}.json"
    path.unlink(missing_ok=True)
    resp = run_child(argv, cwd, path, request)
    if not path.exists():
        return resp, None
    spans = load_spans(path)
    path.unlink()
    return resp, spans


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Closed loop


@dataclass
class Sample:
    op: str
    seconds: float
    error: str = ""           # empty when the operation succeeded
    pass_index: int = 0


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.error)

    def errors(self) -> list[str]:
        return [f"{s.op}: {s.error}" for s in self.samples if s.error]


def closed_loop(seconds: float, run_pass) -> int:
    """Run whole passes, one operation in flight, until another pass would
    end past ``seconds``; at least one pass. Returns the pass count."""
    start = time.perf_counter()
    passes = 0
    while True:
        run_pass(passes)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return passes


def timed_setup(setup) -> tuple[float, list[float]]:
    """Run ``setup`` SETUP_REPEATS times (each replaces the last one's
    state) and return the median duration and all durations."""
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations), durations


# ---------------------------------------------------------------------------
# Statistics


def tail_percentile(values: list[float], percent: int = TAIL_PERCENT,
                    min_beyond: int = MIN_BEYOND_TAIL) -> tuple[float | None, int]:
    """The ``percent``-th percentile and how many samples lie above it.

    The value is None unless at least ``min_beyond`` samples lie beyond
    it, so a tail is never read off a handful of points.
    """
    if len(values) < 2:
        return None, 0
    cut = statistics.quantiles(values, n=100)[percent - 1]
    beyond = sum(1 for v in values if v > cut)
    return (cut if beyond >= min_beyond else None), beyond


def latency_summary(loop: LoopResult) -> dict:
    """Median latency, the tail percentile when enough samples lie beyond
    it, and throughput as the median over passes of successful operations
    per second of their summed latency (one operation in flight)."""
    ok = [s for s in loop.samples if not s.error]
    if not ok:
        return {"samples": 0}
    per_pass: dict[int, list[float]] = {}
    for s in ok:
        per_pass.setdefault(s.pass_index, []).append(s.seconds)
    latencies = [s.seconds for s in ok]
    p90, beyond = tail_percentile(latencies)
    return {
        "samples": len(ok),
        "throughput_ops_s": statistics.median(
            len(v) / sum(v) for v in per_pass.values()),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": None if p90 is None else p90 * 1000.0,
        "samples_beyond_p90": beyond,
    }


# ---------------------------------------------------------------------------
# Run record and result line


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plexflow").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def emit(record: dict, metrics: dict[str, tuple[float, str]], attempted: int,
         failed: int, correct: bool, notes: list[str]) -> None:
    """Write the result file, print one line per metric, then the result
    object (always the last line on stdout)."""
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    rate = failed / attempted if attempted else None
    record = {**record, **result, "error_rate": rate}
    OUT.mkdir(exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{int(record['trace'])}.json")
    (OUT / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for line in notes:
        print(line)
    print(f"{record['workload']}: attempted {attempted}, failed {failed}, "
          f"error_rate {rate}, correct {correct}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  record: {OUT.name}/{name}")
    print(json.dumps(result), flush=True)
