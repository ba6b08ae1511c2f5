"""Spans recorded around plexflow's public functions, from outside.

``install`` wraps each function in ``layers.WRAPPED`` at every place it is
bound: the defining module, every ``plexflow`` module that imported it with
``from ... import``, and the package namespace. Methods are patched on the
class. Each call records a span (name, start, end, parent span, request
id, result rows where the layer returns rows). Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from .layers import LAYER_METRICS, WRAPPED


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    rows: int | None = None
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self, request: str = ""):
        self.spans: list[Span] = []
        self.request = request
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        index = self._open(name, tag)
        try:
            yield
        finally:
            self._close(index, None)

    def _open(self, name: str, tag: str | None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.request, None, tag))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, rows: int | None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.rows = rows
        self._stack.pop()

    def wrap(self, name: str, fn, count_rows: bool, tag_arg: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, str(args[0]) if tag_arg and args else None)
            rows = None
            try:
                result = fn(*args, **kwargs)
                if count_rows:
                    rows = len(result)
                return result
            finally:
                self._close(index, rows)
        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def load_spans(path: Path) -> list[Span]:
    return [Span(**raw) for raw in json.loads(path.read_text())]


class Installed:
    """The bindings replaced by ``install``; ``uninstall`` puts them back."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)
        self.bindings.clear()


def install(recorder: SpanRecorder) -> Installed:
    installed = Installed()
    for spec in WRAPPED:
        module = importlib.import_module(spec.module)
        cls_name, _, attr = spec.attr.rpartition(".")
        if cls_name:
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            owners = [(cls, attr)]
        else:
            original = getattr(module, attr)
            owners = [(mod, name)
                      for mod_name, mod in list(sys.modules.items())
                      if mod is not None and (mod_name == "plexflow"
                                              or mod_name.startswith("plexflow."))
                      for name, value in list(vars(mod).items())
                      if value is original]
        wrapper = recorder.wrap(spec.name, original, spec.rows, spec.tag_arg)
        for owner, name in owners:
            installed.bindings.append((owner, name, original))
            setattr(owner, name, wrapper)
    return installed


# ---------------------------------------------------------------------------
# Arithmetic


def covered_length(start: float, end: float,
                   intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.duration - covered_length(span.start, span.end,
                                           children.get(i, []))
            for i, span in enumerate(spans)]


def layer_metrics(span_groups: list[list[Span]], operations: int) -> dict[str, float]:
    """Per-operation layer metrics over the spans of ``operations`` requests.

    ``span_groups`` holds one span list per recorder (parent indices are
    local to a list). Layers a workload never reaches read 0.
    """
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    self_s: dict[str, float] = {}
    cq_ms: dict[str, list[float]] = {}
    for spans in span_groups:
        for span, own in zip(spans, self_times(spans)):
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + own
            if span.rows is not None:
                rows[span.name] = rows.get(span.name, 0) + span.rows
            if span.name == "cq.run_cq" and span.tag:
                cq_ms.setdefault(span.tag, []).append(span.duration * 1000.0)
    per_op = max(operations, 1)
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        name = metric.name
        if name.endswith(".self_ms"):
            out[name] = self_s.get(name[:-len(".self_ms")], 0.0) * 1000.0 / per_op
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0) / per_op
        elif name.endswith(".rows"):
            out[name] = rows.get(name[:-len(".rows")], 0) / per_op
        elif name == "cli.import_ms":
            out[name] = self_s.get("cli.import", 0.0) * 1000.0 / per_op
        elif name.startswith("cq.") and name.endswith(".ms"):
            times = cq_ms.get(name[len("cq."):-len(".ms")])
            out[name] = statistics.median(times) if times else 0.0
    match_rows = rows.get("rdf.Graph.match", 0)
    result_rows = rows.get("query.evaluate", 0)
    out["query.match_rows_per_result"] = (match_rows / result_rows
                                          if result_rows else 0.0)
    return out


def uncalled(span_groups: list[list[Span]], required: tuple[str, ...]) -> list[str]:
    """Wrapped names a workload must exercise that recorded no call."""
    seen = {span.name for spans in span_groups for span in spans}
    return [name for name in required if name not in seen]
