"""Each CLI process loads only what its subcommand uses.

Every request runs in a fresh interpreter: numpy and the OpenPREDICT
pipeline are loaded by ``run-openpredict`` alone, and the fixture builder
only by the subcommands that build the fixture.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plexflow
from plexflow.fixture import V01, V02, generate_fixture
from plexflow.rdf import serialize_ntriples
from plexflow.vocab import prefixes_turtle

SRC = str(Path(plexflow.__file__).resolve().parents[1])

QUERY = ("SELECT ?plan WHERE { ?plan "
         "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
         "<http://purl.org/net/p-plan#Plan> }\n")

GRAPH_COMMANDS = {
    "validate": ["validate", "{graph}"],
    "query": ["query", "--graph", "{graph}", "--query", "plans.rq"],
    "cq": ["cq", "--id", "CQ3.1", "--graph", "{graph}"],
    "diff": ["diff", "--graph", "{graph}", "--from", V01, "--to", V02],
    "audit": ["audit", "--graph", "{graph}"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup")
    ntriples = serialize_ntriples(generate_fixture())
    (path / "fixture.nt").write_text(ntriples, encoding="utf-8")
    (path / "fixture.ttl").write_text(prefixes_turtle() + ntriples,
                                      encoding="utf-8")
    (path / "plans.rq").write_text(QUERY, encoding="utf-8")
    return path


def _loaded_after(statement: str, cwd: Path, *flags: str) -> set[str]:
    """Names in ``sys.modules`` of a fresh interpreter, started with
    ``flags``, after ``statement``."""
    listing = cwd / "modules.json"
    probe = (f"{statement}\n"
             "import json, sys\n"
             f"with open({str(listing)!r}, 'w') as out:\n"
             "    json.dump(sorted(sys.modules), out)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *flags, "-c", probe], cwd=cwd, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(json.loads(listing.read_text()))


def _main(argv: list[str]) -> str:
    return ("import sys, plexflow.cli\n"
            f"if plexflow.cli.main({argv!r}) != 0:\n"
            "    sys.exit('main failed')")


def test_import_plexflow_loads_no_submodule(workdir):
    loaded = _loaded_after("import plexflow", workdir)
    assert "numpy" not in loaded
    assert not [name for name in loaded if name.startswith("plexflow.")]


def test_import_cli_loads_no_numpy(workdir):
    loaded = _loaded_after("import plexflow.cli", workdir)
    assert not {"numpy", "plexflow.openpredict", "plexflow.fixture"} & loaded


@pytest.mark.parametrize("fmt", ["nt", "ttl"])
@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
def test_graph_commands_load_no_numpy_and_no_fixture(workdir, command, fmt):
    argv = [arg.format(graph=f"fixture.{fmt}") for arg in GRAPH_COMMANDS[command]]
    loaded = _loaded_after(_main(argv), workdir)
    assert not {"numpy", "plexflow.openpredict", "plexflow.fixture"} & loaded
    if command in ("diff", "audit"):
        # Neither reaches the query engine, which shares Turtle's grammar.
        assert ("plexflow.turtle" in loaded) == (fmt == "ttl")


def test_cq_reads_its_template_without_importlib_resources(workdir):
    # Under -S no site hook preloads anything, so this is what a plain
    # install pays: the templates are plain files beside the package.
    argv = ["cq", "--id", "CQ1.1", "--workflow", V01, "--graph", "fixture.nt"]
    loaded = _loaded_after(_main(argv), workdir, "-S")
    assert "plexflow.cq" in loaded
    assert not {"importlib.resources", "pathlib"} & loaded


def test_fixture_command_loads_no_numpy(workdir):
    loaded = _loaded_after(_main(["fixture", "--out", "written.nt"]), workdir)
    assert "plexflow.fixture" in loaded
    assert not {"numpy", "plexflow.openpredict"} & loaded


def test_run_openpredict_loads_numpy_but_not_the_fixture(workdir):
    argv = ["run-openpredict", "--scheme", "drugs", "--drugs", "12",
            "--diseases", "9", "--folds", "2", "--metrics", "metrics.json"]
    loaded = _loaded_after(_main(argv), workdir)
    assert {"numpy", "plexflow.openpredict"} <= loaded
    assert not {"plexflow.fixture", "plexflow.trace", "plexflow.workflow"} & loaded


def test_run_openpredict_does_not_load_numpy_ma(workdir):
    # Importing numpy.ma costs a run-openpredict process about 15 ms.
    argv = ["run-openpredict", "--scheme", "drugs", "--drugs", "30",
            "--diseases", "20", "--folds", "2", "--metrics", "metrics.json"]
    loaded = _loaded_after(_main(argv), workdir)
    assert "plexflow.openpredict" in loaded
    assert "numpy.ma" not in loaded


# Neither is on any subcommand's path: importing dataclasses pulls in
# inspect, and generating a dataclass's methods costs each class at import.
# numpy imports inspect itself, so run-openpredict is checked for
# dataclasses only.
STARTUP_RUNS = {
    **{f"{command}-{fmt}": [arg.format(graph=f"fixture.{fmt}") for arg in argv]
       for command, argv in GRAPH_COMMANDS.items() for fmt in ("nt", "ttl")},
    "fixture": ["fixture", "--out", "written.nt"],
    "run-openpredict": ["run-openpredict", "--scheme", "drugs", "--drugs", "12",
                        "--diseases", "9", "--folds", "2", "--metrics", "metrics.json"],
}


@pytest.mark.parametrize("run", sorted(STARTUP_RUNS))
def test_no_subcommand_loads_dataclasses(workdir, run):
    loaded = _loaded_after(_main(STARTUP_RUNS[run]), workdir)
    assert "dataclasses" not in loaded
    if run != "run-openpredict":
        assert "inspect" not in loaded


def test_no_module_imports_dataclasses():
    for path in sorted(Path(SRC, "plexflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in {name.split(".")[0] for name in names}, path.name
