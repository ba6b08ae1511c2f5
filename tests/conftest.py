import random
from pathlib import Path

import pytest

from plexflow.fixture import generate_fixture
from plexflow.rdf import (
    BlankNode, Graph, Triple, lit, parse_ntriples, serialize_ntriples,
)
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


def mutated(triples: list[Triple], rng: random.Random) -> Graph:
    """A graph of ``triples`` after 1–39 random edits, each one of: drop a
    triple; replace an object with ``""``, ``"x"``, ``"1.0"``, a blank node
    or another triple's object; add a triple made of three triples' parts."""
    triples = list(triples)
    for n in range(rng.randint(1, 39)):
        i = rng.randrange(len(triples))
        edit = rng.randrange(3)
        if edit == 0:
            triples.pop(i)
        elif edit == 1:
            s, p, _ = triples[i]
            triples[i] = Triple(s, p, rng.choice(
                (lit(""), lit("x"), lit("1.0"), BlankNode(f"m{n}"),
                 rng.choice(triples).o)))
        else:
            triples.append(Triple(rng.choice(triples).s, rng.choice(triples).p,
                                  rng.choice(triples).o))
    return Graph(triples)
