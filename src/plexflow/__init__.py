"""plexflow: FAIR scientific-workflow provenance toolkit.

An embedded RDF store with N-Triples and Turtle-subset syntax, a typed
workflow/provenance profile over P-PLAN, PROV, DUL, BPMN, DCAT and
friends, a SPARQL-subset engine with a canned competency-question
catalogue, a workflow version diff, a FAIR audit checklist, and a
desk-scale drug-repositioning pipeline whose runs are recorded into the
same provenance graph.

The exported names load their home module on first use (PEP 562), so
``python -m plexflow`` imports only what its subcommand needs. Each
access reads the name from its module again; nothing is cached here.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> home module.
_EXPORTS = {
    "BlankNode": "rdf", "Graph": "rdf", "IRI": "rdf", "Literal": "rdf",
    "Triple": "rdf", "bnode": "rdf", "iri": "rdf", "lit": "rdf",
    "isomorphic": "rdf", "parse_ntriples": "rdf", "serialize_ntriples": "rdf",
    "parse_turtle": "turtle",
    "ResultTable": "query", "evaluate": "query", "parse_query": "query",
    "run_query": "query",
    "run_cq": "cq",
    "emit_triples": "workflow", "load_workflow": "workflow",
    "step_order": "workflow", "validate": "workflow",
    "Tracer": "trace", "load_activity": "trace", "load_trace": "trace",
    "diff": "versiondiff",
    "audit": "fairaudit",
    "generate_fixture": "fixture",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
