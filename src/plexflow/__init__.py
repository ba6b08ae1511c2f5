"""plexflow: FAIR scientific-workflow provenance toolkit.

An embedded RDF store with N-Triples and Turtle-subset syntax, a typed
workflow/provenance profile over P-PLAN, PROV, DUL, BPMN, DCAT and
friends, a SPARQL-subset engine with a canned competency-question
catalogue, a workflow version diff, a FAIR audit checklist, and a
desk-scale drug-repositioning pipeline whose runs are recorded into the
same provenance graph.
"""

from .rdf import (
    BlankNode, Graph, IRI, Literal, Triple, bnode, iri, isomorphic, lit,
    parse_ntriples, serialize_ntriples,
)
from .turtle import parse_turtle
from .query import ResultTable, evaluate, parse_query, run_query
from .cq import run_cq
from .workflow import emit_triples, load_workflow, step_order, validate
from .trace import Tracer, load_activity, load_trace
from .versiondiff import diff
from .fairaudit import audit
from .fixture import generate_fixture

__version__ = "0.1.0"

__all__ = [
    "BlankNode", "Graph", "IRI", "Literal", "Triple", "bnode", "iri", "lit",
    "isomorphic", "parse_ntriples", "serialize_ntriples", "parse_turtle",
    "ResultTable", "evaluate", "parse_query", "run_query", "run_cq",
    "emit_triples", "load_workflow", "step_order", "validate",
    "Tracer", "load_activity", "load_trace",
    "diff", "audit", "generate_fixture", "__version__",
]
