"""Namespace registry and frozen term catalog for the workflow profile.

Every vocabulary term the toolkit reads or writes lives here: the profile
reuses P-PLAN, PROV, DUL, BPMN 2.0, DCAT, DCMI Terms, PWO, OPMW, MLS, SHACL,
EDAM, FaBiO, Reproduce-me and schema.org. Queries and emitters only ever
compare IRIs minted from this module, so the toolkit stays self-consistent
even where a public namespace could not be re-confirmed at build time (the
BPMN and Reproduce-me bases are frozen here and documented in the README).

``dc:`` binds to DCMI *Terms* (``http://purl.org/dc/terms/``): the profile
uses ``dc:hasVersion``, which only exists there, not in DC Elements 1.1.

The empty prefix and ``opredict:`` both resolve to the example-workflow base
``https://w3id.org/fair/openpredict/``.
"""

from __future__ import annotations

from .rdf import IRI

NAMESPACES: dict[str, str] = {
    "": "https://w3id.org/fair/openpredict/",
    "opredict": "https://w3id.org/fair/openpredict/",
    "p-plan": "http://purl.org/net/p-plan#",
    "prov": "http://www.w3.org/ns/prov#",
    "dul": "http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#",
    "bpmn": "http://dkm.fbk.eu/ontologies/bpmn#",
    "dcat": "http://www.w3.org/ns/dcat#",
    "dc": "http://purl.org/dc/terms/",
    "pwo": "http://purl.org/spar/pwo/",
    "opmw": "http://www.opmw.org/ontology/",
    "mls": "http://www.w3.org/ns/mls#",
    "sh": "http://www.w3.org/ns/shacl#",
    "edam": "http://edamontology.org/",
    "fabio": "http://purl.org/spar/fabio/",
    "reprod": "https://w3id.org/reproduceme#",
    "schema": "http://schema.org/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}


class UnknownPrefixError(KeyError):
    """CURIE uses a prefix that is not registered."""


class Namespace:
    """Attribute-style IRI minting: ``PPLAN.Step`` -> full IRI string."""

    def __init__(self, base: str):
        self._base = base

    def __getattr__(self, local: str) -> str:
        if local.startswith("_"):
            raise AttributeError(local)
        return self._base + local

    def __getitem__(self, local: str) -> str:
        return self._base + local

    def __contains__(self, iri: str) -> bool:
        return isinstance(iri, str) and iri.startswith(self._base)

    @property
    def base(self) -> str:
        return self._base


OPREDICT = Namespace(NAMESPACES["opredict"])
PPLAN = Namespace(NAMESPACES["p-plan"])
PROV = Namespace(NAMESPACES["prov"])
DUL = Namespace(NAMESPACES["dul"])
BPMN = Namespace(NAMESPACES["bpmn"])
DCAT = Namespace(NAMESPACES["dcat"])
DC = Namespace(NAMESPACES["dc"])
PWO = Namespace(NAMESPACES["pwo"])
OPMW = Namespace(NAMESPACES["opmw"])
MLS = Namespace(NAMESPACES["mls"])
SH = Namespace(NAMESPACES["sh"])
EDAM = Namespace(NAMESPACES["edam"])
FABIO = Namespace(NAMESPACES["fabio"])
REPROD = Namespace(NAMESPACES["reprod"])
SCHEMA = Namespace(NAMESPACES["schema"])
RDF = Namespace(NAMESPACES["rdf"])
RDFS = Namespace(NAMESPACES["rdfs"])
XSD = Namespace(NAMESPACES["xsd"])

# The six evaluation measures of the OpenPREDICT example workflow
# (instances of mls:EvaluationMeasure, ML-Schema: Publio et al.,
# arXiv:1807.05351), minted in the example-workflow namespace. The fixture
# declares them and the traced pipeline records its means against them.
MEASURES: dict[str, str] = {
    "accuracy": OPREDICT.EvaluationMeasure_PredictiveAccuracy,
    "average_precision": OPREDICT.EvaluationMeasure_AveragePrecision,
    "f1": OPREDICT.EvaluationMeasure_F1,
    "precision": OPREDICT.EvaluationMeasure_Precision,
    "recall": OPREDICT.EvaluationMeasure_Recall,
    "roc_auc": OPREDICT.EvaluationMeasure_RocAuc,
}

# Profile vocabulary: every class, property and controlled term the toolkit
# emits or queries, keyed by CURIE. Instance-level IRIs (steps, activities,
# datasets of a particular workflow) are data, not catalog entries.
CURIES: tuple[str, ...] = (
    "rdf:type",
    "rdf:langString",
    "rdfs:label",
    "xsd:string",
    "xsd:date",
    "xsd:dateTime",
    "xsd:language",
    "xsd:integer",
    "xsd:decimal",
    "p-plan:Plan",
    "p-plan:Step",
    "p-plan:Variable",
    "p-plan:Activity",
    "p-plan:isStepOfPlan",
    "p-plan:hasInputVar",
    "p-plan:hasOutputVar",
    "p-plan:correspondsToStep",
    "dul:Workflow",
    "dul:isDescribedBy",
    "dul:precedes",
    "pwo:hasFirstStep",
    "bpmn:ManualTask",
    "bpmn:ScriptTask",
    "prov:Agent",
    "prov:SoftwareAgent",
    "prov:Role",
    "prov:Usage",
    "prov:qualifiedUsage",
    "prov:entity",
    "prov:Association",
    "prov:qualifiedAssociation",
    "prov:agent",
    "prov:hadRole",
    "prov:hadPlan",
    "prov:wasAttributedTo",
    "prov:generated",
    "prov:qualifiedGeneration",
    "prov:Generation",
    "prov:atTime",
    "prov:startedAtTime",
    "prov:endedAtTime",
    "prov:wasRevisionOf",
    "dcat:Dataset",
    "dcat:Distribution",
    "dcat:distribution",
    "dcat:downloadURL",
    "dcat:mediaType",
    "dc:hasVersion",
    "dc:creator",
    "dc:created",
    "dc:modified",
    "dc:description",
    "dc:language",
    "dc:license",
    "dc:publisher",
    "dc:LinguisticSystem",
    "opmw:WorkflowExecutionArtifact",
    "mls:ModelEvaluation",
    "mls:specifiedBy",
    "mls:EvaluationMeasure",
    "sh:NodeShape",
    "sh:sparql",
    "sh:select",
    "sh:SPARQLConstraint",
    "sh:targetClass",
    "edam:operation_0004",
    "edam:operation_2409",
    "edam:format_1915",
    "edam:format_2330",
    "edam:format_2376",
    "edam:format_3256",
    "edam:topic_0128",
    "reprod:Cell",
    "fabio:Triplestore",
    "schema:ComputerLanguage",
)


def expand_str(curie: str) -> str:
    """Expand ``prefix:local`` to a full IRI string."""
    prefix, sep, local = curie.partition(":")
    if not sep:
        raise UnknownPrefixError(f"not a CURIE: {curie!r}")
    if prefix not in NAMESPACES:
        raise UnknownPrefixError(f"unknown prefix: {prefix!r}")
    return NAMESPACES[prefix] + local


# Longest base first, so e.g. rdf# beats any shorter shared base. The empty
# prefix only aliases opredict's base, so it is left out.
_BASES = sorted(
    ((base, prefix) for prefix, base in NAMESPACES.items() if prefix),
    key=lambda item: -len(item[0]),
)


def compress(iri: "IRI | str") -> str:
    """Compress an IRI to a CURIE under the longest matching base.

    Returns the IRI string unchanged when no registered base matches.
    """
    value = iri.value if isinstance(iri, IRI) else iri
    for base, prefix in _BASES:
        if value.startswith(base) and len(value) > len(base):
            return f"{prefix}:{value[len(base):]}"
    return value


TERM_CATALOG: dict[str, str] = {curie: expand_str(curie) for curie in CURIES}


def in_catalog_namespace(iri: str) -> bool:
    """True when the IRI falls under one of the registered namespaces."""
    return any(iri.startswith(base) for base, _ in _BASES)


def prefixes_turtle() -> str:
    """The ``prefixes.ttl`` preamble shared by all serialized examples."""
    lines = []
    for prefix in sorted(NAMESPACES):
        lines.append(f"@prefix {prefix}: <{NAMESPACES[prefix]}> .")
    return "\n".join(lines) + "\n"
