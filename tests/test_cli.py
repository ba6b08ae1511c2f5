import hashlib
import json
import random
import subprocess
import sys

import pytest

from plexflow.cli import EXIT_FAILURES, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from plexflow.fixture import V01, V02
from plexflow.rdf import parse_ntriples, serialize_ntriples
from plexflow.vocab import DUL, PWO, prefixes_turtle

from conftest import mutated


@pytest.fixture(scope="module")
def fixture_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "openpredict-fixture.nt"
    assert main(["fixture", "--out", str(path)]) == EXIT_OK
    return path


def test_fixture_subcommand_writes_parseable_graph(fixture_file):
    g = parse_ntriples(fixture_file.read_text(encoding="utf-8"))
    assert len(g) > 1000


def test_fixture_deterministic_across_runs(fixture_file, tmp_path):
    again = tmp_path / "again.nt"
    assert main(["fixture", "--out", str(again)]) == EXIT_OK
    assert again.read_bytes() == fixture_file.read_bytes()


def test_validate_ok(fixture_file, capsys):
    assert main(["validate", str(fixture_file)]) == EXIT_OK
    out = capsys.readouterr()
    assert "ok: 2 workflow(s) valid" in out.out


def test_validate_broken_graph_reports_code(tmp_path, capsys):
    broken = tmp_path / "broken.ttl"
    broken.write_text(prefixes_turtle() + """
opredict:Plan_Bad rdf:type p-plan:Plan , dul:Workflow ;
  dc:hasVersion "1" ; pwo:hasFirstStep opredict:Step_Bad .
opredict:Step_Bad rdf:type bpmn:ManualTask , p-plan:Step ;
  p-plan:isStepOfPlan opredict:Plan_Bad ;
  dul:isDescribedBy opredict:Plan_I1 , opredict:Plan_I2 .
opredict:Plan_I1 rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English .
opredict:Plan_I2 rdf:type p-plan:Plan ;
  dc:language opredict:LinguisticSystem_English .
""", encoding="utf-8")
    assert main(["validate", str(broken)]) == EXIT_FAILURES
    err = capsys.readouterr().err
    assert "error:" in err
    assert "E_STEP_MULTI_INSTR" in err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.nt"
    bad.write_text("<urn:a> <urn:p> .\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["cq"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE


def test_cq_subcommand_delta_json(fixture_file, capsys):
    code = main(["cq", "--id", "CQ3.2", "--graph", str(fixture_file),
                 "--from", V01, "--to", V02])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"removed": 47, "changed": 3, "added": 7}


def test_cq_subcommand_rows_json(fixture_file, capsys):
    code = main(["cq", "--id", "CQ3.1", "--graph", str(fixture_file)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 2


def test_cq_missing_parameter(fixture_file, capsys):
    assert main(["cq", "--id", "CQ1.1", "--graph", str(fixture_file)]) == EXIT_USAGE
    assert "parameter" in capsys.readouterr().err


def test_cq_main_chain_of_1500_steps(tmp_path):
    # The longest chain `validate` is tested on, as N-Triples: a fresh
    # process answers CQ2.1 with every step, in chain order.
    steps = [f"<urn:step{i:04d}>" for i in range(1500)]
    lines = [f"<urn:plan> <{PWO.hasFirstStep}> {steps[0]} ."]
    lines += [f"{step} <{DUL.precedes}> {nxt} ." for step, nxt in zip(steps, steps[1:])]
    chain = tmp_path / "chain.nt"
    chain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "plexflow", "cq", "--id", "CQ2.1", "--graph",
         str(chain), "--workflow", "urn:plan", "--format", "tsv"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["?step"] + steps


def test_query_subcommand_tsv(fixture_file, tmp_path, capsys):
    rq = tmp_path / "steps.rq"
    rq.write_text(
        "PREFIX p-plan: <http://purl.org/net/p-plan#>\n"
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
        "SELECT ?s WHERE { ?s rdf:type p-plan:Step . } ORDER BY ?s\n",
        encoding="utf-8")
    code = main(["query", "--graph", str(fixture_file), "--query", str(rq)])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "?s"
    assert len(lines) == 1 + 78


def test_query_explain_goes_to_stderr_only(fixture_file, tmp_path, capsys):
    rq = tmp_path / "steps.rq"
    rq.write_text(
        "PREFIX p-plan: <http://purl.org/net/p-plan#>\n"
        "SELECT ?s ?t WHERE { ?s p-plan:isStepOfPlan ?w . OPTIONAL { ?s a ?t } }\n",
        encoding="utf-8")
    argv = ["query", "--graph", str(fixture_file), "--query", str(rq)]
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr()
    assert main(argv + ["--explain"]) == EXIT_OK
    explained = capsys.readouterr()
    assert explained.out == plain.out and plain.err == ""
    assert explained.err.splitlines() == [
        "pattern ?s <http://purl.org/net/p-plan#isStepOfPlan> ?w "
        "estimate=78 rows=78",
        "  pattern ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t "
        "estimate=525 rows=178",
        "optional extend rows=178",
    ]


def test_query_syntax_error(fixture_file, tmp_path, capsys):
    rq = tmp_path / "bad.rq"
    rq.write_text("SELECT ?s WHERE { ?s ?p }", encoding="utf-8")
    assert main(["query", "--graph", str(fixture_file),
                 "--query", str(rq)]) == EXIT_PARSE


def test_diff_subcommand(fixture_file, capsys):
    code = main(["diff", "--graph", str(fixture_file),
                 "--from", V01, "--to", V02])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["removed_instructions"]) == 47
    assert len(payload["automatized_steps"]) == 3


def test_audit_subcommand_pass_and_fail(fixture_file, tmp_path, capsys):
    assert main(["audit", "--graph", str(fixture_file)]) == EXIT_OK
    capsys.readouterr()
    crippled = tmp_path / "nourl.nt"
    lines = [line for line in fixture_file.read_text(encoding="utf-8").splitlines()
             if "downloadURL" not in line]
    crippled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["audit", "--graph", str(crippled)]) == EXIT_FAILURES
    err = capsys.readouterr().err
    assert "error: F3 failed" in err


def test_run_openpredict_deterministic(tmp_path):
    args = ["run-openpredict", "--scheme", "associations", "--folds", "4",
            "--seed", "42", "--drugs", "24", "--diseases", "18"]
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    assert main(args + ["--metrics", str(first)]) == EXIT_OK
    assert main(args + ["--metrics", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text(encoding="utf-8"))
    assert payload["scheme"] == "associations"
    assert 0.0 <= payload["mean"]["roc_auc"] <= 1.0


def test_run_openpredict_trace_output(tmp_path):
    trace = tmp_path / "trace.nt"
    metrics_path = tmp_path / "metrics.json"
    code = main(["run-openpredict", "--scheme", "drugs", "--folds", "4",
                 "--seed", "7", "--drugs", "24", "--diseases", "18",
                 "--trace", str(trace), "--metrics", str(metrics_path)])
    assert code == EXIT_OK
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "6a7bd9e6a5b51393bd0f3785e7d4fafd54e8273082c12bef7a55292a9ed387b5")
    g = parse_ntriples(trace.read_text(encoding="utf-8"))
    from plexflow.trace import load_trace
    ((_, artifacts),) = load_trace(g.freeze(), check_steps=False)
    assert len(artifacts) == 6


def test_console_entry_point_runs_in_subprocess(tmp_path):
    out = tmp_path / "sub.nt"
    result = subprocess.run(
        [sys.executable, "-m", "plexflow", "fixture", "--out", str(out)],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert out.exists()


MALFORMED_INPUTS = {
    "ttl-bad-u-escape": ("validate", "bad.ttl", b'<urn:s> <urn:p> "\\uZZZZ" .\n'),
    "ttl-U-escape-out-of-range": ("validate", "bad.ttl",
                                  b'<urn:s> <urn:p> "\\UFFFFFFFF" .\n'),
    "ttl-langstring-without-tag": (
        "validate", "bad.ttl",
        b'<urn:s> <urn:p> "x"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .\n'),
    "nt-truncated-statement": ("validate", "bad.nt", b"<urn:s> <urn:p>\n"),
    "nt-not-utf8": ("validate", "bad.nt", b'<urn:s> <urn:p> "\xff" .\n'),
    "rq-bad-u-escape": ("query", "bad.rq", b'SELECT ?s WHERE { ?s ?p "\\uZZZZ" }\n'),
    "rq-bad-regex": ("query", "bad.rq",
                     b'SELECT ?o WHERE { ?s ?p ?o FILTER(REGEX(?o, "(")) }\n'),
    "rq-nested-too-deep": ("query", "deep.rq",
                           b"SELECT ?s WHERE { ?s ?p ?o " + b"OPTIONAL { ?s ?p ?o " * 999
                           + b"}" * 1000 + b"\n"),
}


@pytest.mark.parametrize("command, name, data", MALFORMED_INPUTS.values(),
                         ids=MALFORMED_INPUTS.keys())
def test_malformed_input_exits_3_with_one_error_line(tmp_path, capsys,
                                                      command, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    if command == "validate":
        argv = ["validate", str(path)]
    else:
        graph = tmp_path / "one.nt"
        graph.write_text('<urn:s> <urn:p> "o" .\n', encoding="utf-8")
        argv = ["query", "--graph", str(graph), "--query", str(path)]
    # Any exception escaping main() would be a traceback under python -m.
    assert main(argv) == EXIT_PARSE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


# A valid first line that shares raw terms with a bad second line, so a
# parser that shares terms between statements cannot hide the error:
# name: (document, N-Triples message, Turtle message).
BAD_SECOND_LINES = {
    "bad-u-escape": ('<urn:s> <urn:p> "a" .\n<urn:s> <urn:p> "\\uZZZZ" .\n',
                     "line 2: bad \\u escape: '\\\\uZZZZ'",
                     "line 2, column 17: bad \\u escape: '\\\\uZZZZ'"),
    "relative-object": ("<urn:s> <urn:p> <urn:o> .\n<urn:s> <urn:p> <o> .\n",
                        "line 2: non-absolute IRI: 'o'",
                        "line 2, column 17: not an absolute IRI: 'o'"),
    "bad-lang-tag": ('<urn:s> <urn:p> "x"@en .\n<urn:s> <urn:p> "x"@1 .\n',
                     "line 2: malformed language tag",
                     "line 2, column 20: malformed language tag"),
    "literal-subject": ('<urn:s> <urn:p> "x" .\n"x" <urn:p> <urn:s> .\n',
                        "line 2: literal subject not allowed",
                        "line 2, column 1: literal only allowed in object position"),
    # A relative IRI spelled like the blank label on the line before.
    "blank-label-as-object": ("_:b1 <urn:p> <urn:o> .\n_:b1 <urn:p> <b1> .\n",
                              "line 2: non-absolute IRI: 'b1'",
                              "line 2, column 14: not an absolute IRI: 'b1'"),
    "blank-label-as-datatype": ('_:b1 <urn:p> <urn:o> .\n_:b1 <urn:p> "x"^^<b1> .\n',
                                "line 2: non-absolute IRI: 'b1'",
                                "line 2, column 19: not an absolute IRI: 'b1'"),
    "blank-label-as-predicate": ("_:b1 <urn:p> <urn:o> .\n_:b1 <b1> <urn:o> .\n",
                                 "line 2: non-absolute IRI: 'b1'",
                                 "line 2, column 6: not an absolute IRI: 'b1'"),
}


@pytest.mark.parametrize("suffix", [".nt", ".ttl"])
@pytest.mark.parametrize("text, nt_message, ttl_message", BAD_SECOND_LINES.values(),
                         ids=BAD_SECOND_LINES.keys())
def test_malformed_second_line_reports_its_position(tmp_path, capsys, suffix, text,
                                                    nt_message, ttl_message):
    path = tmp_path / f"bad{suffix}"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == EXIT_PARSE
    message = nt_message if suffix == ".nt" else ttl_message
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def _every_answer(graph: str, capsys) -> list:
    """Exit code, stdout and stderr of validate, diff, audit and all 12 CQs
    on one input file."""
    from plexflow.cq import CATALOGUE

    values = {"workflow": V01, "from": V01, "to": V02}
    argvs = [["validate", graph], ["audit", "--graph", graph],
             ["diff", "--graph", graph, "--from", V01, "--to", V02]]
    for entry in CATALOGUE.values():
        argvs.append(["cq", "--id", entry.id, "--graph", graph]
                     + [arg for name in entry.params for arg in (f"--{name}", values[name])])
    answers = []
    for argv in argvs:
        code = main(argv)
        answers.append((code, *capsys.readouterr()))
    return answers


def test_mutated_fixtures_exit_0_1_or_2_and_raise_nothing(fixture_graph, tmp_path,
                                                          capsys):
    triples = fixture_graph.match(None, None, None)
    path = tmp_path / "mutated.nt"
    seen = set()
    for seed in range(6):  # about 2 s: each seed is 15 cli.main calls
        path.write_text(serialize_ntriples(mutated(triples, random.Random(seed))),
                        encoding="utf-8")
        codes = {code for code, _, _ in _every_answer(str(path), capsys)}
        assert codes <= {EXIT_OK, EXIT_FAILURES, EXIT_USAGE}, seed
        seen |= codes
    assert EXIT_FAILURES in seen  # the mutations do break the profile


def test_one_input_answers_alike_as_nt_ttl_and_shuffled_nt(fixture_file, tmp_path,
                                                          capsys):
    text = fixture_file.read_text(encoding="utf-8")
    ttl = tmp_path / "fixture.ttl"
    ttl.write_text(prefixes_turtle() + text, encoding="utf-8")
    lines = text.splitlines(keepends=True)
    random.Random(7).shuffle(lines)
    shuffled = tmp_path / "shuffled.nt"
    shuffled.write_text("".join(lines), encoding="utf-8")
    expected = _every_answer(str(fixture_file), capsys)
    assert len(expected) == 15 and expected[0][0] == EXIT_OK
    assert _every_answer(str(ttl), capsys) == expected
    assert _every_answer(str(shuffled), capsys) == expected


def _write_csv_bundle(tmp_path, drug_cell="0.5"):
    """Five 2x2 drug and two 2x2 disease similarity files; returns the
    run-openpredict arguments naming them."""
    argv = ["run-openpredict", "--scheme", "drugs"]
    for flag, prefix, count in (("--drug-sim", "D", 5), ("--disease-sim", "S", 2)):
        for m in range(count):
            path = tmp_path / f"{prefix}{m}.csv"
            cell = drug_cell if (flag, m) == ("--drug-sim", 0) else "0.5"
            path.write_text(f"id,{prefix}0,{prefix}1\n{prefix}0,1.0,{cell}\n"
                            f"{prefix}1,{cell},1.0\n", encoding="utf-8")
            argv += [flag, str(path)]
    return argv


BAD_OPENPREDICT_CSV = {
    # name: (drug sim cell, gold bytes, file to drop, exit code, message parts)
    "gold-one-column": ("0.5", b"D0,S0\nD1\n", None, EXIT_PARSE,
                        ("gold.csv, line 2", "drug id and a disease id")),
    "gold-unknown-drug": ("0.5", b"# comment\nD9,S0\n", None, EXIT_PARSE,
                          ("gold.csv, line 2", "'D9'")),
    "gold-unknown-disease": ("0.5", b"D0,S7\n", None, EXIT_PARSE,
                             ("gold.csv, line 1", "'S7'")),
    "gold-not-utf8": ("0.5", b"D0,S\xff\n", None, EXIT_PARSE, ("gold.csv",)),
    "sim-not-a-number": ("high", b"D0,S0\n", None, EXIT_PARSE,
                         ("D0.csv, line 2", "'high'")),
    "sim-nan": ("nan", b"D0,S0\n", None, EXIT_PARSE,
                ("D0.csv, line 2", "finite and lie in [0, 1]")),
    "sim-out-of-range": ("1.5", b"D0,S0\n", None, EXIT_PARSE,
                         ("D0.csv, line 2", "finite and lie in [0, 1]")),
    "missing-gold": ("0.5", b"D0,S0\n", "gold.csv", EXIT_USAGE, ("gold.csv",)),
    "missing-drug-sim": ("0.5", b"D0,S0\n", "D3.csv", EXIT_USAGE, ("D3.csv",)),
    "missing-disease-sim": ("0.5", b"D0,S0\n", "S1.csv", EXIT_USAGE, ("S1.csv",)),
}


@pytest.mark.parametrize("cell, gold, drop, code, parts",
                         BAD_OPENPREDICT_CSV.values(),
                         ids=BAD_OPENPREDICT_CSV.keys())
def test_bad_openpredict_csv_input_exits_with_one_error_line(
        tmp_path, capsys, cell, gold, drop, code, parts):
    argv = _write_csv_bundle(tmp_path, drug_cell=cell)
    gold_path = tmp_path / "gold.csv"
    gold_path.write_bytes(gold)
    argv += ["--gold", str(gold_path)]
    if drop:
        (tmp_path / drop).unlink()
    # Any exception escaping main() would be a traceback under python -m.
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    for part in parts:
        assert part in lines[0]


def test_negative_seed_with_csv_input_exits_2(tmp_path, capsys):
    argv = _write_csv_bundle(tmp_path)
    gold_path = tmp_path / "gold.csv"
    gold_path.write_bytes(b"D0,S0\n")
    # Any exception escaping main() would be a traceback under python -m.
    assert main(argv + ["--gold", str(gold_path), "--seed", "-1"]) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: the seed must not be negative: -1"]


_SMALL_RUN = ["run-openpredict", "--scheme", "associations", "--folds", "4",
              "--drugs", "24", "--diseases", "18"]

USAGE_ERRORS = {
    # name: (argv, a part of the error line); FX is the fixture file and
    # BAD a path in a directory that does not exist.
    "validate-workflow-not-iri": (["validate", "FX", "--workflow", "foo"],
                                  "parameter --workflow must be an absolute IRI"),
    "diff-from-not-iri": (["diff", "--graph", "FX", "--from", "foo", "--to", "bar"],
                          "parameter --from must be an absolute IRI"),
    "diff-to-not-iri": (["diff", "--graph", "FX", "--from", V01, "--to", "bar"],
                        "parameter --to must be an absolute IRI"),
    "validate-workflow-space": (["validate", "FX", "--workflow", "http://a b"],
                                "parameter --workflow must be an absolute IRI"),
    "diff-from-space": (["diff", "--graph", "FX", "--from", "http://a b",
                         "--to", V02], "parameter --from must be an absolute IRI"),
    "fixture-out": (["fixture", "--out", "BAD"], "BAD"),
    "fixture-out-empty": (["fixture", "--out", ""], "''"),
    "fixture-prefixes": (["fixture", "--out", "OK", "--prefixes", "BAD"], "BAD"),
    "audit-out": (["audit", "--graph", "FX", "--out", "BAD"], "BAD"),
    "diff-out": (["diff", "--graph", "FX", "--from", V01, "--to", V02,
                  "--out", "BAD"], "BAD"),
    "cq-out": (["cq", "--id", "CQ1.1", "--graph", "FX", "--workflow", V01,
                "--out", "BAD"], "BAD"),
    "query-out": (["query", "--graph", "FX", "--query", "RQ", "--out", "BAD"], "BAD"),
    "run-openpredict-trace": (_SMALL_RUN + ["--trace", "BAD"], "BAD"),
    "run-openpredict-metrics": (_SMALL_RUN + ["--metrics", "BAD"], "BAD"),
    "run-openpredict-no-drugs": (["run-openpredict", "--scheme", "drugs",
                                  "--drugs", "0", "--diseases", "3"],
                                 "at least one drug and one disease"),
    "run-openpredict-no-diseases": (["run-openpredict", "--scheme", "drugs",
                                     "--drugs", "3", "--diseases", "0"],
                                    "at least one drug and one disease"),
    "run-openpredict-negative-drugs": (["run-openpredict", "--scheme", "drugs",
                                        "--drugs", "-1", "--diseases", "3"],
                                       "drugs and diseases must not be negative"),
    "run-openpredict-negative-diseases": (["run-openpredict", "--scheme", "drugs",
                                           "--drugs", "3", "--diseases", "-2"],
                                          "drugs and diseases must not be negative"),
    "run-openpredict-negative-seed": (_SMALL_RUN + ["--seed", "-1"],
                                      "the seed must not be negative: -1"),
}


def test_run_openpredict_out_of_memory_exits_2_with_one_error_line(
        monkeypatch, capsys):
    # A real allocation of this size could start touching pages on a host
    # that overcommits memory, so the generator raises instead.
    message = ("Unable to allocate 931. GiB for an array with shape "
               "(5, 1000000, 1000000) and data type float64")

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("plexflow.openpredict.generate_bundle", too_large)
    argv = ["run-openpredict", "--scheme", "drugs", "--drugs", "1000000",
            "--diseases", "1000000"]
    assert main(argv) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: not enough memory: {message}"]


@pytest.mark.parametrize("argv, part", USAGE_ERRORS.values(),
                         ids=USAGE_ERRORS.keys())
def test_bad_argument_exits_2_with_one_error_line(fixture_file, tmp_path, capsys,
                                                  argv, part):
    query = tmp_path / "q.rq"
    query.write_text("SELECT ?s WHERE { ?s ?p ?o }\n", encoding="utf-8")
    paths = {"FX": str(fixture_file), "RQ": str(query),
             "OK": str(tmp_path / "ok.nt"), "BAD": str(tmp_path / "missing" / "x")}
    argv = [paths.get(arg, arg) for arg in argv]
    # Any exception escaping main() would be a traceback under python -m.
    assert main(argv) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert paths.get(part, part) in lines[0]
