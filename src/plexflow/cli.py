"""plexflow command line: validate, query, cq, diff, audit, fixture,
run-openpredict.

Every subcommand is a pure pipeline: the same inputs, flags and seed
produce byte-identical output. Exit codes: 0 success, 1 validation or
audit failures found, 2 usage error, 3 input parse error. Diagnostics go
to stderr with stable ``error:`` / ``warning:`` prefixes.

Each subcommand imports the modules it uses when it runs, so a process
loads only what its subcommand needs; only ``run-openpredict`` loads
numpy.
"""

from __future__ import annotations

import argparse
import json
import sys

from .rdf import Graph, RdfError, parse_ntriples, plain_iri, serialize_ntriples

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _error(message: str):
    print(f"error: {message}", file=sys.stderr)


def _warning(message: str):
    print(f"warning: {message}", file=sys.stderr)


def _read_input(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_PARSE) from exc


def _load_graph(path: str) -> Graph:
    text = _read_input(path)
    try:
        if path.endswith(".ttl"):
            from .turtle import parse_turtle
            return parse_turtle(text)
        return parse_ntriples(text)
    except RdfError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_PARSE) from exc


def _load_graphs(paths: list[str]) -> Graph:
    """The frozen union of the input graphs, built on the first one."""
    g = _load_graph(paths[0])
    for path in paths[1:]:
        g.add_all(_load_graph(path))
    return g.freeze()


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc


def _iri_argument(flag: str, value: str) -> str:
    """A workflow IRI given on the command line; anything else is a usage
    error naming the flag."""
    try:
        plain_iri(value)
    except RdfError as exc:
        raise _CliError(f"parameter --{flag} must be an absolute IRI: {value!r}",
                        EXIT_USAGE) from exc
    return value


def _cmd_validate(args) -> int:
    from .workflow import (
        WorkflowError, load_workflow, validate as validate_view, workflow_iris,
    )

    g = _load_graphs(args.graphs)
    targets = ([_iri_argument("workflow", args.workflow)] if args.workflow
               else workflow_iris(g))
    if not targets:
        raise _CliError("no workflow found in the input graphs", EXIT_FAILURES)
    failures = 0
    for wf in targets:
        try:
            view = load_workflow(g, wf)
        except WorkflowError as exc:
            _error(str(exc))
            failures += 1
            continue
        violations = validate_view(view)
        for v in violations:
            _error(str(v))
        failures += len(violations)
    if not failures:
        print(f"ok: {len(targets)} workflow(s) valid")
    return EXIT_FAILURES if failures else EXIT_OK


def _cmd_query(args) -> int:
    from .query import QueryError, evaluate, parse_query

    g = _load_graphs(args.graphs)
    text = _read_input(args.query)
    plan = [] if args.explain else None
    try:
        table = evaluate(parse_query(text), g, plan)
    except QueryError as exc:
        raise _CliError(f"{args.query}: {exc}", EXIT_PARSE) from exc
    _write_output(table.to_json() if args.format == "json" else table.to_tsv(),
                  args.out)
    for line in plan or ():
        print(line, file=sys.stderr)
    return EXIT_OK


def _cq_params(args) -> dict[str, str]:
    params = {}
    if args.workflow:
        params["workflow"] = args.workflow
    if getattr(args, "from"):
        params["from"] = getattr(args, "from")
    if args.to:
        params["to"] = args.to
    return params


def _cmd_cq(args) -> int:
    from . import cq as cq_mod

    g = _load_graphs(args.graphs)
    try:
        table = cq_mod.run_cq(args.id, g, _cq_params(args))
    except cq_mod.CqError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    if args.format == "tsv":
        _write_output(table.to_tsv(), args.out)
    elif "change" in table.variables:  # a version-delta table
        counts = cq_mod.delta_counts(table)
        _write_output(json.dumps(counts, sort_keys=True) + "\n", args.out)
    else:
        _write_output(table.to_json(), args.out)
    return EXIT_OK


def _cmd_diff(args) -> int:
    from . import versiondiff as diff_mod
    from .workflow import WorkflowError

    g = _load_graphs(args.graphs)
    try:
        report = diff_mod.diff(g, _iri_argument("from", getattr(args, "from")),
                               _iri_argument("to", args.to))
    except WorkflowError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    _write_output(report.to_json(), args.out)
    return EXIT_OK


def _cmd_audit(args) -> int:
    from . import fairaudit as audit_mod

    g = _load_graphs(args.graphs)
    report = audit_mod.audit(g)
    _write_output(report.to_json(), args.out)
    for result in report.warning_failures:
        _warning(f"{result.rule.id} failed: {', '.join(result.offenders)}")
    for result in report.error_failures:
        _error(f"{result.rule.id} failed: {', '.join(result.offenders)}")
    return EXIT_FAILURES if report.error_failures else EXIT_OK


def _cmd_fixture(args) -> int:
    from .fixture import generate_fixture
    from .vocab import prefixes_turtle

    g = generate_fixture()
    _write_output(serialize_ntriples(g), args.out)
    if args.prefixes:
        _write_output(prefixes_turtle(), args.prefixes)
    print(f"wrote {len(g)} triples to {args.out}")
    return EXIT_OK


def _load_openpredict_csv(args):
    """Bundle and gold standard from CSV files: a file that cannot be opened
    exits 2, malformed content exits 3."""
    from . import openpredict as op_mod

    try:
        bundle = op_mod.load_bundle_csv(args.drug_sim, args.disease_sim)
        if not args.gold:
            raise _CliError("--gold is required with CSV similarity input",
                            EXIT_USAGE)
        return bundle, op_mod.load_gold_csv(args.gold, bundle)
    except OSError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    except op_mod.PipelineError as exc:
        raise _CliError(str(exc), EXIT_PARSE) from exc


def _cmd_run_openpredict(args) -> int:
    from . import openpredict as op_mod

    scheme = (op_mod.HIDE_DRUGS if args.scheme == "drugs"
              else op_mod.HIDE_ASSOCIATIONS)
    try:
        if args.drug_sim or args.disease_sim:
            bundle, gold = _load_openpredict_csv(args)
        else:
            bundle, gold = op_mod.generate_bundle(
                args.drugs, args.diseases, seed=args.seed, planted=not args.null)
        if args.trace:
            from .fixture import MODEL_TRAINING_STEP_V01, generate_fixture
            from .vocab import OPREDICT
            workflow_graph = generate_fixture()
            record, trace_graph = op_mod.run_and_trace(
                bundle, gold, scheme, workflow_graph, MODEL_TRAINING_STEP_V01,
                OPREDICT.Agent_Joao, OPREDICT.Role_Executor,
                folds=args.folds, repetitions=args.reps, seed=args.seed)
            _write_output(serialize_ntriples(trace_graph), args.trace)
        else:
            record = op_mod.cross_validate(bundle, gold, scheme,
                                           folds=args.folds,
                                           repetitions=args.reps,
                                           seed=args.seed)
    except op_mod.PipelineError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    except MemoryError as exc:
        # numpy's message names the size it could not allocate.
        detail = f": {exc}" if str(exc) else ""
        raise _CliError(f"not enough memory{detail}", EXIT_USAGE) from exc
    payload = json.dumps(record.to_payload(), sort_keys=True, indent=2) + "\n"
    _write_output(payload, args.metrics)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plexflow",
        description="FAIR workflow provenance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check workflow graphs against the profile")
    p.add_argument("graphs", nargs="+", metavar="GRAPH",
                   help="input graphs (.nt or .ttl)")
    p.add_argument("--workflow", help="validate only this workflow IRI")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("query", help="run a query file against graphs")
    p.add_argument("--graph", dest="graphs", action="append", required=True)
    p.add_argument("--query", required=True, help="query file (.rq)")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--explain", action="store_true",
                   help="write the evaluation plan (join order, rows per step) "
                        "to stderr")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("cq", help="answer a canned competency question")
    p.add_argument("--id", required=True, metavar="CQID",
                   help="question id, e.g. CQ1.1 or CQ3.2")
    p.add_argument("--graph", dest="graphs", action="append", required=True)
    p.add_argument("--workflow", help="workflow IRI parameter")
    p.add_argument("--from", dest="from", help="old version IRI parameter")
    p.add_argument("--to", help="new version IRI parameter")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_cq)

    p = sub.add_parser("diff", help="diff two workflow versions")
    p.add_argument("--graph", dest="graphs", action="append", required=True)
    p.add_argument("--from", dest="from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("audit", help="run the FAIR rule checklist")
    p.add_argument("--graph", dest="graphs", action="append", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("fixture", help="write the bundled example graph")
    p.add_argument("--out", default="openpredict-fixture.nt")
    p.add_argument("--prefixes", help="also write the shared prefixes.ttl")
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("run-openpredict",
                       help="run the drug-repositioning pipeline")
    p.add_argument("--scheme", choices=("drugs", "associations"), required=True)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--drugs", type=int, default=100,
                   help="synthetic bundle size (ignored with CSV input)")
    p.add_argument("--diseases", type=int, default=80)
    p.add_argument("--null", action="store_true",
                   help="generate signal-free associations instead of planted ones")
    p.add_argument("--drug-sim", action="append", default=[],
                   help="drug similarity CSV (give 5)")
    p.add_argument("--disease-sim", action="append", default=[],
                   help="disease similarity CSV (give 2)")
    p.add_argument("--gold", help="gold standard CSV (with CSV input)")
    p.add_argument("--trace", help="write the provenance trace here (.nt)")
    p.add_argument("--metrics", help="write the metrics JSON here")
    p.set_defaults(func=_cmd_run_openpredict)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _CliError as exc:
        _error(str(exc))
        return exc.code
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
