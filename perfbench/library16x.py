"""``library-16x``: in-process calls against one frozen graph of 16
relabelled fixture copies (27,776 triples).

A pass runs the 12 competency questions (the seed picks which copy's
v0.1/v0.2 IRIs a parameterised question asks about), ``audit``, ``diff``
on a seeded copy, and ``load_workflow`` + ``validate`` on one seeded
workflow, in seeded order. No import or parsing happens inside the loop,
so the store (``Graph.match``) and the query evaluator dominate.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import scale
from .harness import self_peak_rss_mb
from .layers import CQ_IDS, LIB
from .spans import SpanRecorder, install

K = 16


@dataclass(frozen=True)
class Call:
    name: str
    copy: int          # which relabelled copy the parameters address
    version: str = ""  # workflow version for load_workflow + validate


class Library16x:
    name = LIB

    def __init__(self, seed: int):
        from plexflow.fixture import V01, V02

        self.seed = seed
        self.versions = (V01, V02)
        self.graph = None
        self.traced = 0
        self._references()

    # -- set-up

    def setup(self) -> None:
        from plexflow import generate_fixture, parse_ntriples, run_cq, serialize_ntriples

        self.graph = None
        ntriples = serialize_ntriples(generate_fixture())
        graph = parse_ntriples(scale.k_copy_ntriples(ntriples, K)).freeze()
        if len(graph) != K * 1736:
            raise RuntimeError(f"{K}-copy graph has {len(graph)} triples")
        run_cq("CQ3.1", graph)
        self.graph = graph

    def _references(self) -> None:
        """1x answers every checked output is compared against; built once,
        outside the timed set-up."""
        from plexflow import audit, diff, generate_fixture, load_workflow, run_cq

        g1 = generate_fixture().freeze()
        self.ref = {cq_id: run_cq(cq_id, g1, scale.cq_params(cq_id, 0)).to_json()
                    for cq_id in CQ_IDS}
        self.ref["audit"] = audit(g1).to_json()
        self.ref["diff"] = diff(g1, *self.versions).to_json()
        for version in self.versions:
            self.ref[version] = sorted(load_workflow(g1, version).steps)

    # -- operations

    def operations(self, pass_index: int) -> list[Call]:
        rng = random.Random(self.seed * 1_000_003 + pass_index)
        calls = [Call(cq_id, rng.randrange(K)) for cq_id in CQ_IDS]
        calls.append(Call("audit", 0))
        calls.append(Call("diff", rng.randrange(K)))
        calls.append(Call("validate", rng.randrange(K),
                          rng.choice(self.versions)))
        rng.shuffle(calls)
        return calls

    def execute(self, call: Call, traced: bool):
        recorder = installed = None
        if traced:
            self.traced += 1
            recorder = SpanRecorder(f"r{self.traced}")
            installed = install(recorder)
        start = time.perf_counter()
        try:
            result, error = self._invoke(call), ""
        except Exception as exc:   # a failed operation is counted, not fatal
            result, error = None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        if installed is not None:
            installed.uninstall()
        error = error or self._check(call, result)
        return seconds, error, [recorder.spans] if recorder else []

    def _invoke(self, call: Call):
        # Resolve through the modules, so a traced run hits the wrappers.
        import plexflow.cq
        import plexflow.fairaudit
        import plexflow.versiondiff
        import plexflow.workflow as wf

        g = self.graph
        if call.name == "audit":
            return plexflow.fairaudit.audit(g)
        if call.name == "diff":
            return plexflow.versiondiff.diff(
                g, *(scale.relabel(v, call.copy) for v in self.versions))
        if call.name == "validate":
            view = wf.load_workflow(g, scale.relabel(call.version, call.copy))
            return view, wf.validate(view)
        return plexflow.cq.run_cq(call.name, g, scale.cq_params(call.name, call.copy))

    def _check(self, call: Call, result) -> str:
        if call.name == "audit":
            return "" if result.to_json() == self.ref["audit"] else "audit differs from 1x"
        if call.name == "diff":
            ok = result.to_json() == scale.relabel(self.ref["diff"], call.copy)
            return "" if ok else "diff differs from the relabelled 1x diff"
        if call.name == "validate":
            view, violations = result
            if violations:
                return f"{len(violations)} violations"
            want = sorted(scale.relabel(s, call.copy) for s in self.ref[call.version])
            return "" if sorted(view.steps) == want else "workflow steps differ from 1x"
        if call.name in scale.UNPARAMETERISED_ROWS_1X:
            return scale.check_unparameterised(call.name, result.to_json(),
                                               self.ref[call.name], K)
        return scale.check_parameterised(call.name, result.to_json(),
                                         self.ref[call.name], call.copy)

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        self.graph = None
