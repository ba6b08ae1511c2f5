"""``cli-1x``: one fresh ``python -m plexflow`` process per request against
the bundled fixture (1,736 triples), written as ``.nt`` and as ``.ttl``.

A pass is 16 requests in seeded order: ``validate``, the 12 competency
questions, ``diff`` v0.1 -> v0.2, ``audit`` and ``fixture``; the seed
sends half of them to the ``.nt`` file and half to the ``.ttl`` file.
Interpreter start, imports and parsing dominate each request.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass

from .harness import OUT, children_peak_rss_mb, run_child, traced_child
from .layers import CLI, CQ_IDS
from .scale import cq_params

MANUAL = "<http://dkm.fbk.eu/ontologies/bpmn#ManualTask>"
SCRIPT = "<http://dkm.fbk.eu/ontologies/bpmn#ScriptTask>"

# Answers on the 1x fixture, with the v0.1 workflow as the parameter
# (v0.2 for CQ1.3); the first eight are the release acceptance counts.
# CQ2.2 covers v0.1 only: 60 of the 78 steps of both versions.
CQ_ROWS = {"CQ1.2": 56, "CQ1.3": 7, "CQ1.4": 15, "CQ2.1": 4, "CQ2.2": 60,
           "CQ2.3": 10, "CQ3.1": 2, "CQ3.3": 3}
DELTA = {"CQ3.2": {"added": 7, "changed": 3, "removed": 47},
         "CQ3.4": {"added": 2, "changed": 0, "removed": 0}}
DIFF_SIZES = {"removed_instructions": 47, "changed_instructions": 3,
              "added_instructions": 7, "automatized_steps": 3,
              "removed_datasets": 0, "changed_datasets": 0, "added_datasets": 2}
AUDIT_SUMMARY = {"pass": 9, "fail": 0, "not_machine_checkable": 2,
                 "error_failures": 0, "warning_failures": 0}


@dataclass(frozen=True)
class Request:
    name: str
    argv: tuple[str, ...]
    fmt: str    # "nt" or "ttl"


class Cli1x:
    name = CLI

    def __init__(self, seed: int):
        self.seed = seed
        self.work = OUT / "work" / CLI
        self.first: dict[tuple, tuple[str, bytes]] = {}
        self.traced = 0

    # -- set-up

    def setup(self) -> None:
        from plexflow import generate_fixture, serialize_ntriples
        from plexflow.vocab import prefixes_turtle

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        ntriples = serialize_ntriples(generate_fixture())
        (self.work / "fixture.nt").write_text(ntriples, encoding="utf-8")
        (self.work / "fixture.ttl").write_text(prefixes_turtle() + ntriples,
                                               encoding="utf-8")
        self.fixture_bytes = ntriples.encode()
        self.prefixes_bytes = prefixes_turtle().encode()
        warm = run_child(["validate", "fixture.nt"], self.work)
        if warm.code != 0 or warm.stdout != "ok: 2 workflow(s) valid\n":
            raise RuntimeError(f"warm-up validate failed: {warm.stderr.strip()}")

    # -- operations

    def operations(self, pass_index: int) -> list[Request]:
        from plexflow.fixture import V01, V02

        rng = random.Random(self.seed * 1_000_003 + pass_index)
        kinds = ["validate", *CQ_IDS, "diff", "audit", "fixture"]
        rng.shuffle(kinds)
        formats = ["nt", "ttl"] * (len(kinds) // 2)
        rng.shuffle(formats)
        out = []
        for kind, fmt in zip(kinds, formats):
            graph = f"fixture.{fmt}"
            if kind == "validate":
                argv = ["validate", graph]
            elif kind == "diff":
                argv = ["diff", "--graph", graph, "--from", V01, "--to", V02]
            elif kind == "audit":
                argv = ["audit", "--graph", graph]
            elif kind == "fixture":
                argv = ["fixture", "--out", "fixture-out.nt"]
                if fmt == "ttl":
                    argv += ["--prefixes", "prefixes-out.ttl"]
            else:
                argv = ["cq", "--id", kind, "--graph", graph]
                for name, value in cq_params(kind, 0).items():
                    argv += [f"--{name}", value]
            out.append(Request(kind, tuple(argv), fmt))
        return out

    def execute(self, req: Request, traced: bool):
        for name in ("fixture-out.nt", "prefixes-out.ttl"):
            (self.work / name).unlink(missing_ok=True)
        if traced:
            self.traced += 1
            resp, spans = traced_child(list(req.argv), self.work, f"r{self.traced}")
        else:
            resp, spans = run_child(list(req.argv), self.work), []
        error = self._check(req, resp)
        if spans is None:
            error, spans = error or "traced request wrote no spans", []
        return resp.seconds, error, [spans]

    def peak_rss_mb(self) -> float:
        return children_peak_rss_mb()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- checks

    def _check(self, req: Request, resp) -> str:
        if resp.code is None:
            return "timed out"
        if resp.code != 0:
            return f"exit code {resp.code}: {resp.stderr.strip()[-200:]}"
        produced = b""
        if req.name == "fixture":
            produced = self._read("fixture-out.nt")
            if produced != self.fixture_bytes:
                return "fixture output differs from the set-up fixture"
            if req.fmt == "ttl" and self._read("prefixes-out.ttl") != self.prefixes_bytes:
                return "prefixes output differs from prefixes_turtle()"
        first = self.first.setdefault(req.argv, (resp.stdout, produced))
        if first != (resp.stdout, produced):
            return "response differs from the first response to this request"
        try:
            return self._check_content(req.name, resp.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def _read(self, name: str) -> bytes:
        path = self.work / name
        return path.read_bytes() if path.exists() else b""

    @staticmethod
    def _check_content(name: str, stdout: str) -> str:
        if name == "validate":
            ok = stdout == "ok: 2 workflow(s) valid\n"
            return "" if ok else f"validate printed {stdout!r}"
        if name == "fixture":
            ok = stdout == "wrote 1736 triples to fixture-out.nt\n"
            return "" if ok else f"fixture printed {stdout!r}"
        payload = json.loads(stdout)
        if name == "audit":
            got = payload["summary"]
            return "" if got == AUDIT_SUMMARY else f"audit summary {got}"
        if name == "diff":
            got = {k: len(payload[k]) for k in DIFF_SIZES}
            return "" if got == DIFF_SIZES else f"diff sizes {got}"
        if name in DELTA:
            return "" if payload == DELTA[name] else f"{name} counts {payload}"
        rows = payload["rows"]
        if name == "CQ1.1":
            kinds = [row[payload["vars"].index("stepType")] for row in rows]
            got = (kinds.count(MANUAL), kinds.count(SCRIPT))
            return "" if got == (28, 14) else f"CQ1.1 manual/script {got}"
        if name == "CQ3.5":
            col = payload["vars"].index("activity")
            got = len({row[col] for row in rows if row[col] is not None})
            return "" if got == 14 else f"CQ3.5 has {got} activities"
        got = len(rows)
        return "" if got == CQ_ROWS[name] else f"{name} has {got} rows"
