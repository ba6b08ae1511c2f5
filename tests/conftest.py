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


def k_copy_graph(k: int) -> Graph:
    """The fixture relabelled into k copies, copy i under ``BASE/c<i>/``."""
    nt = serialize_ntriples(generate_fixture())
    return parse_ntriples("".join(
        nt if i == 0 else nt.replace(BASE, f"{BASE}c{i}/")
        for i in range(k))).freeze()


@pytest.fixture(scope="session")
def sixteen_copy_graph():
    return k_copy_graph(16)
