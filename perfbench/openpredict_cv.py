"""``openpredict-cv``: cross-validation of the drug-repositioning pipeline
through fresh ``python -m plexflow run-openpredict`` processes, 200 drugs
x 120 diseases, 10 folds, metrics JSON and provenance trace written to
files.

One operation evaluates both schemes, as the paper reports them: a
``--scheme drugs`` process and a ``--scheme associations`` process, one
after the other, so the runs alternate between the schemes. The seed picks
which scheme goes first and is passed to the pipeline as ``--seed``.
Counting the pair as one operation keeps its latency unimodal; the two
schemes alone take about 7 s and 4.5 s, and a median over a handful of
such samples would fall in the gap between them.

The numpy layer (``build_features``, ``train_logistic``) dominates and the
RDF layers are nearly idle.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass

from .harness import OUT, children_peak_rss_mb, run_child, traced_child
from .layers import CV

DRUGS, DISEASES, FOLDS = 200, 120, 10
MIN_ROC_AUC = 0.80   # the synthetic bundle has a planted signal


@dataclass(frozen=True)
class Request:
    name: str


class OpenPredictCv:
    name = CV

    def __init__(self, seed: int):
        self.seed = seed
        self.work = OUT / "work" / CV
        self.first: dict[str, tuple[bytes, bytes]] = {}
        self.traced = 0
        schemes = ["drugs", "associations"]
        random.Random(seed).shuffle(schemes)
        self.schemes = schemes

    def setup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        warm = run_child(["run-openpredict", "--scheme", "associations",
                          "--drugs", "30", "--diseases", "20", "--folds", "2",
                          "--seed", str(self.seed), "--metrics", "warm.json"],
                         self.work)
        if warm.code != 0:
            raise RuntimeError(f"warm-up run failed: {warm.stderr.strip()}")

    def operations(self, pass_index: int) -> list[Request]:
        return [Request("+".join(self.schemes))]

    def execute(self, req: Request, traced: bool):
        """Both scheme processes; the latency is their summed wall time."""
        seconds, errors, groups = 0.0, [], []
        for scheme in self.schemes:
            argv = ["run-openpredict", "--scheme", scheme, "--drugs", str(DRUGS),
                    "--diseases", str(DISEASES), "--folds", str(FOLDS),
                    "--seed", str(self.seed), "--metrics", f"metrics-{scheme}.json",
                    "--trace", f"trace-{scheme}.nt"]
            outputs = (self.work / f"metrics-{scheme}.json",
                       self.work / f"trace-{scheme}.nt")
            for path in outputs:
                path.unlink(missing_ok=True)
            if traced:
                self.traced += 1
                resp, spans = traced_child(argv, self.work, f"r{self.traced}")
            else:
                resp, spans = run_child(argv, self.work), []
            seconds += resp.seconds
            error = self._check(scheme, resp, outputs)
            if spans is None:
                error, spans = error or "traced request wrote no spans", []
            if error:
                errors.append(f"{scheme}: {error}")
            groups.append(spans)
        return seconds, "; ".join(errors), groups

    def _check(self, scheme: str, resp, outputs) -> str:
        if resp.code is None:
            return "timed out"
        if resp.code != 0:
            return f"exit code {resp.code}: {resp.stderr.strip()[-200:]}"
        if not all(path.exists() for path in outputs):
            return "metrics or trace file missing"
        metrics_bytes, trace_bytes = (path.read_bytes() for path in outputs)
        try:
            auc = json.loads(metrics_bytes)["mean"]["roc_auc"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable metrics: {exc!r}"
        if not auc >= MIN_ROC_AUC:
            return f"mean ROC AUC {auc:.4f} below {MIN_ROC_AUC}"
        first = self.first.setdefault(scheme, (metrics_bytes, trace_bytes))
        if first != (metrics_bytes, trace_bytes):
            return "metrics or trace differ from the first run of this scheme"
        return ""

    def peak_rss_mb(self) -> float:
        return children_peak_rss_mb()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
