from pathlib import Path

import pytest

from plexflow.fixture import generate_fixture
from plexflow.rdf import Graph, parse_ntriples, serialize_ntriples
from plexflow.vocab import prefixes_turtle

DATA_DIR = Path(__file__).parent / "data"
BASE = "https://w3id.org/fair/openpredict/"


@pytest.fixture(scope="session")
def fixture_graph():
    return generate_fixture()


def load_listing(name: str) -> str:
    """One of the bundled workflow listings, with the shared prefix preamble."""
    body = (DATA_DIR / name).read_text(encoding="utf-8")
    return prefixes_turtle() + "\n" + body


def relabel(text: str, copy: int) -> str:
    """``text`` moved to fixture copy ``copy``, which lives under
    ``BASE/c<copy>/``; copy 0 is the fixture itself."""
    return text if copy == 0 else text.replace(BASE, f"{BASE}c{copy}/")


def k_copy_graph(k: int) -> Graph:
    """The fixture relabelled into k copies."""
    nt = serialize_ntriples(generate_fixture())
    return parse_ntriples("".join(relabel(nt, i) for i in range(k))).freeze()


@pytest.fixture(scope="session")
def sixteen_copy_graph():
    return k_copy_graph(16)
