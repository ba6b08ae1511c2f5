"""Deterministic generator for the bundled OpenPREDICT example graph.

The graph describes two versions of a drug-repositioning workflow:

- v0.1 has a 4-step spine (prepare input data, feature generation, model
  training and evaluation, result presentation) plus a fully manual data
  preparation phase: 42 steps attached to the main protocol (28 manual,
  14 computational). Its two notebook instructions are sub-plans carrying
  another 18 cell steps, for 60 steps overall. Ten of the cell
  instructions are linked to three natural-language specification
  instructions (different abstraction levels of the same work).
- v0.2 automates most of the data preparation: 18 steps (9 manual, 9
  computational), reusing 8 of the v0.1 instructions, revising 3 of them
  from manual use to computational use, and adding 7 new ones.

Seven dataset distributions (with their verbatim download URLs) hang off
usage bindings; v0.1 reaches 5 of them and v0.2 all 7. Fourteen recorded
executions, including one whose six model-evaluation artifacts carry the
reference accuracy value "0.833336", provide the retrospective side.

Step and instruction names that appear in the published workflow keep
their exact spelling (including the ``OpenPREDCIT`` typo in one step IRI);
the remaining names are synthesized. The generator is pure, so its
canonical N-Triples serialization is byte-identical across runs, and it
self-checks every structural count it promises.
"""

from __future__ import annotations

from functools import partial

from .rdf import Graph, iri, lit
from .trace import Tracer
from .vocab import (
    DC, EDAM, FABIO, MEASURES, MLS, OPREDICT as OP, PROV, RDF, RDFS, REPROD,
    SCHEMA,
)
from .workflow import (
    MANUAL, SCRIPT, AgentAssociation, AgentDef, DatasetRecord, DistributionDef,
    Instruction, LANGUAGE_ENGLISH, LANGUAGE_PYTHON_3_5, QueryShape, StepDef,
    UsageBinding, VariableDef, WorkflowDef, WorkflowView, _add, emit_triples,
)

V01 = OP.Plan_Main_Protocol_v01
V02 = OP.Plan_Main_Protocol_v02
LICENSE = "https://creativecommons.org/licenses/by/4.0/"

AGENT_REMZI = OP.Agent_Remzi
AGENT_AHMED = OP.Agent_Ahmed
AGENT_JOAO = OP.Agent_Joao
AGENT_JUPYTER = OP.Agent_Jupyter_Notebook

ROLE_CREATOR = OP.Role_Creator
ROLE_DEVELOPER = OP.Role_Developer
ROLE_EXECUTOR = OP.Role_Executor
ROLE_ENVIRONMENT = OP.Role_Execution_environment

MODEL_TRAINING_STEP_V01 = OP[
    "Step_Model_preparation_train_and_evaluation_Workflow_OpenPREDCIT_-_ML_ipynb"]
MODEL_TRAINING_STEP_V02 = OP.Step_Model_preparation_train_and_evaluation_v02
REFERENCE_ACTIVITY = OP.Activity_Model_preparation_train_and_evaluation_Execution_1546302862
REFERENCE_ACCURACY = "0.833336"

_DATA_HANDLING = EDAM.operation_2409

# key: (distribution local name, download URL, media type)
_DISTRIBUTIONS = {
    "gold": (
        "Distribution_gold_standard_drug_indications_msb201126-s4.xls",
        "https://www.ncbi.nlm.nih.gov/pmc/articles/PMC3159979/bin/msb201126-s4.xls",
        EDAM.format_2330),
    "mesh": (
        "Distribution_mesh_annotation_mim2mesh.tsv",
        "http://www.paccanarolab.org/static_content/disease_similarity/mim2mesh.tsv",
        EDAM.format_2330),
    "phenotype": (
        "Distribution_phenotype_annotation_hpoteam.tab_Build_1266",
        "http://compbio.charite.de/jenkins/job/hpo.annotations/1266/artifact/misc/"
        "phenotype_annotation_hpoteam.tab",
        EDAM.format_2330),
    "pubchem": (
        "Distribution_pubchem_to_drugbank_pubchem.tsv",
        "https://raw.githubusercontent.com/dhimmel/drugbank/"
        "3e87872db5fca5ac427ce27464ab945c0ceb4ec6/data/mapping/pubchem.tsv",
        EDAM.format_2330),
    "kegg": (
        "Distribution_release-4-kegg-kegg-drug.nq.gz",
        "http://download.bio2rdf.org/files/release/4/kegg/kegg-drug.nq.gz",
        EDAM.format_3256),
    "sider": (
        "Distribution_release-4-sider-sider-se.nq.gz",
        "http://download.bio2rdf.org/files/release/4/sider/sider-se.nq.gz",
        EDAM.format_3256),
    "interactome": (
        "Distribution_srep-2016-161017-srep35241-extref-srep35241-s3.txt",
        "https://media.nature.com/full/nature-assets/srep/2016/161017/srep35241/"
        "extref/srep35241-s3.txt",
        EDAM.format_2330),
}

_DATASETS = {
    "gold": ("Dataset_Gold_standard_drug_indications",
             "Gold standard drug indications",
             "Curated drug-disease association pairs used as positives"),
    "mesh": ("Dataset_Mesh_annotations", "MeSH annotations",
             "MeSH term annotations used for disease similarity"),
    "phenotype": ("Dataset_Phenotype_annotations", "Phenotype annotations",
                  "HPO phenotype annotations linking terms to OMIM diseases"),
    "pubchem": ("Dataset_Pubchem_drugbank_mapping", "PubChem to DrugBank mapping",
                "Identifier mapping between PubChem compounds and DrugBank drugs"),
    "kegg": ("Dataset_Kegg_drug", "KEGG drug",
             "KEGG drug records used for additional drug targets"),
    "sider": ("Dataset_Sider_side_effects", "SIDER side effects",
              "SIDER drug side-effect records"),
    "interactome": ("Dataset_Human_interactome_barabasi", "Human interactome",
                    "Protein-protein interactions in the human interactome"),
}

# v0.1 data sources and which distribution each one binds.
_SOURCES_V01 = (
    ("Drugbank", "pubchem"),
    ("Kegg", "kegg"),
    ("Sider", "sider"),
    ("Human_interactome_barabasi", "interactome"),
    ("Phenotype_annotation", "phenotype"),
)

_SPINE_V01 = (
    ("Step_Prepare_Input_Data_Files", MANUAL, "Plan_Prepare_Input_Data_Files"),
    ("Step_Feature_generation_Pipeline_OpenPREDICT_ipynb", SCRIPT,
     "Plan_Feature_generation_Pipeline_OpenPREDICT_ipynb"),
    ("Step_Model_preparation_train_and_evaluation_Workflow_OpenPREDCIT_-_ML_ipynb",
     SCRIPT, "Plan_Model_preparation_train_and_evaluation_Workflow_OpenPREDCIT_-_ML_ipynb"),
    ("Step_Format_results_for_presentation", MANUAL,
     "Plan_Format_results_for_presentation"),
)

_ANALYSIS_STEPS_V01 = (
    "Compute_drug_fingerprint_similarity",
    "Compute_drug_target_sequence_similarity",
    "Compute_drug_target_GO_similarity",
    "Compute_drug_side_effect_similarity",
    "Compute_drug_interaction_profile_similarity",
    "Compute_disease_phenotype_similarity",
    "Compute_disease_mesh_similarity",
    "Merge_similarity_matrices",
    "Build_gold_standard_pairs",
    "Generate_drug_disease_features",
    "Train_logistic_classifier",
    "Evaluate_model_cross_validation",
)

_FG_CELLS = 11   # notebook cells under the v0.1 feature-generation plan
_MP_CELLS = 7    # notebook cells under the v0.1 model-preparation plan

_SPEC_LOAD = OP.Plan_Specification_Load_features_and_gold_standard
_SPEC_SCORES = OP.Plan_Specification_Compute_pair_similarity_scores
_SPEC_TRAIN = OP.Plan_Specification_Train_and_evaluate_classifier


def _label(iri: str) -> str:
    """A label from an IRI's local name, without its leading type word."""
    local = iri.rsplit("/", 1)[-1]
    body = local.split("_", 1)[1] if "_" in local else local
    return body.replace("_", " ")


class _Builder:
    """The records of both versions: each version's steps, and one pool of
    everything else, which v0.2 shares with v0.1 by IRI."""

    def __init__(self):
        self.steps: dict[str, dict[str, StepDef]] = {V01: {}, V02: {}}
        self.instructions: dict[str, Instruction] = {}
        self.variables: dict[str, VariableDef] = {}
        self.usages: dict[str, UsageBinding] = {}
        self.distributions: dict[str, DistributionDef] = {}

    def step(self, version: str, iri: str, kind: str, instruction: str,
             plan: str = "", precedes=(), inputs=(), outputs=(),
             op_class=None) -> str:
        self.steps[version][iri] = StepDef(
            iri=iri, plan=plan or version, kind=kind, instruction=instruction,
            precedes=frozenset(precedes), input_vars=frozenset(inputs),
            output_vars=frozenset(outputs), operation_class=op_class,
            label=_label(iri))
        return iri

    def instruction(self, iri: str, language: str, described_by=None,
                    revision_of=None, usages=(), extra_types=(),
                    first_step: str = "", description: str = "") -> str:
        self.instructions[iri] = Instruction(
            iri=iri,
            language=(language,),
            description=description or _label(iri),
            label=_label(iri),
            described_by=described_by,
            revision_of=revision_of,
            qualified_usages=frozenset(usages),
            first_step=first_step,
            extra_types=frozenset(extra_types),
        )
        return iri

    def variable(self, iri: str) -> str:
        self.variables.setdefault(iri, VariableDef(iri, _label(iri)))
        return iri

    def usage(self, iri: str, entities: tuple[str, ...]) -> str:
        self.usages[iri] = UsageBinding(iri, frozenset(entities), _label(iri))
        return iri

    def distribution(self, key: str) -> str:
        local, url, media = _DISTRIBUTIONS[key]
        iri = OP[local]
        self.distributions[iri] = DistributionDef(
            iri=iri, download_url=url, media_type=media,
            label=local.removeprefix("Distribution_"))
        return iri


def _build_v01(b: _Builder) -> WorkflowDef:
    step = partial(b.step, V01)

    # Spine: the only chain reachable from the first step.
    spine_iris = [OP[local] for local, _, _ in _SPINE_V01]
    for i, (local, kind, instr_local) in enumerate(_SPINE_V01):
        first_step = ""
        if instr_local.endswith("ipynb"):
            prefix = ("Feature_generation_01_Pipeline_Source"
                      if "Feature_generation" in instr_local
                      else "Model_preparation_01_Workflow_Source")
            first_step = OP[f"Step_{prefix}_Cell01"]
        language = LANGUAGE_PYTHON_3_5 if instr_local.endswith("ipynb") else LANGUAGE_ENGLISH
        instr = b.instruction(OP[instr_local], language, first_step=first_step)
        nxt = (spine_iris[i + 1],) if i + 1 < len(spine_iris) else ()
        outputs = ()
        inputs = ()
        if "Feature_generation" in local:
            inputs = (b.variable(OP.Variable_Triplestore_endpoint_for_input_data),)
            outputs = (b.variable(OP.Variable_Feature_matrix_csv),)
        elif "Model_preparation" in local:
            inputs = (b.variable(OP.Variable_Feature_matrix_csv),)
            outputs = (b.variable(OP.Variable_Model_evaluation_results),)
        step(OP[local], kind, instr, precedes=nxt, inputs=inputs, outputs=outputs)

    # Manual data preparation: download / save / clean / FAIRify / model /
    # metadata / triplestore load / review.
    local_files = []
    for source, dist_key in _SOURCES_V01:
        online = b.variable(OP[f"Variable_{source}_dataset_online"])
        local_file = b.variable(OP[f"Variable_{source}_local_file"])
        local_files.append(local_file)
        dist = b.distribution(dist_key)
        usage = b.usage(OP[f"Usage_Bind_{source}_download_to_variable"],
                        (online, dist))
        instr_download = b.instruction(OP[f"Plan_Download_{source}_dataset"],
                                       LANGUAGE_ENGLISH, usages=(usage,))
        instr_save = b.instruction(OP[f"Plan_Save_{source}_dataset"],
                                   LANGUAGE_ENGLISH)
        save_next = [OP.Step_Save_files_in_triplestore]
        if source == "Human_interactome_barabasi":
            save_next.append(OP.Step_Clean_data_human_interactome_barabasi)
        if source == "Phenotype_annotation":
            save_next.append(OP.Step_Clean_data_phenotype_annotation)
        step(OP[f"Step_Download_{source}_dataset"], MANUAL, instr_download,
             precedes=(OP[f"Step_Save_{source}_dataset"],), outputs=(online,),
             op_class=_DATA_HANDLING)
        step(OP[f"Step_Save_{source}_dataset"], MANUAL, instr_save,
             precedes=tuple(save_next), inputs=(online,), outputs=(local_file,),
             op_class=_DATA_HANDLING)
        instr_model = b.instruction(
            OP["Plan_Define_semantic_model_bio2rdf_dataset"] if source in ("Kegg", "Sider")
            else OP[f"Plan_Define_semantic_model_{source}_dataset"],
            LANGUAGE_ENGLISH)
        instr_meta = b.instruction(
            OP["Plan_Define_metadata_bio2rdf_dataset"] if source in ("Kegg", "Sider")
            else OP[f"Plan_Define_metadata_{source}_dataset"],
            LANGUAGE_ENGLISH)
        step(OP[f"Step_Define_semantic_model_{source}_dataset"], MANUAL, instr_model,
             precedes=(OP[f"Step_Define_metadata_{source}_dataset"],))
        step(OP[f"Step_Define_metadata_{source}_dataset"], MANUAL, instr_meta)

    for source, dist_key in (("human_interactome_barabasi", "interactome"),
                             ("phenotype_annotation", "phenotype")):
        var_key = ("Human_interactome_barabasi" if "interactome" in dist_key
                   else "Phenotype_annotation")
        local_file = OP[f"Variable_{var_key}_local_file"]
        fairified = b.variable(OP[f"Variable_{var_key}_fairified_rdf"])
        instr_clean = b.instruction(OP[f"Plan_Clean_data_{source}"], LANGUAGE_ENGLISH)
        usage = b.usage(OP[f"Usage_FAIRify_{source}"],
                        (local_file, b.distribution(dist_key)))
        instr_fair = b.instruction(
            OP[f"Plan_Execute_FAIRifier_process_to_{source}"],
            LANGUAGE_ENGLISH, usages=(usage,))
        step(OP[f"Step_Clean_data_{source}"], MANUAL, instr_clean,
             precedes=(OP[f"Step_Execute_FAIRifier_process_to_{source}"],),
             inputs=(local_file,))
        step(OP[f"Step_Execute_FAIRifier_process_to_{source}"], MANUAL, instr_fair,
             inputs=(local_file,), outputs=(fairified,))

    endpoint = b.variable(OP.Variable_Triplestore_endpoint_for_input_data)
    usage_store = b.usage(OP.Usage_Bind_triplestore_endpoint,
                          (endpoint, OP.Triplestore_OpenPREDICT_input_data))
    instr_store = b.instruction(OP.Plan_Save_files_in_triplestore,
                                LANGUAGE_ENGLISH, usages=(usage_store,))
    step(OP.Step_Save_files_in_triplestore, MANUAL, instr_store,
         inputs=tuple(local_files), outputs=(endpoint,), op_class=_DATA_HANDLING)
    step(OP.Step_Review_prepared_input_data, MANUAL,
         b.instruction(OP.Plan_Review_prepared_input_data, LANGUAGE_ENGLISH))

    analysis_iris = [OP[f"Step_{local}"] for local in _ANALYSIS_STEPS_V01]
    merge = OP.Step_Merge_similarity_matrices
    generate = OP.Step_Generate_drug_disease_features
    train = OP.Step_Train_logistic_classifier
    evaluate = OP.Step_Evaluate_model_cross_validation
    for local in _ANALYSIS_STEPS_V01:
        iri = OP[f"Step_{local}"]
        if local.startswith("Compute_"):
            precedes = (merge,)
        elif iri == merge:
            precedes = (generate,)
        elif iri == OP.Step_Build_gold_standard_pairs:
            precedes = (generate,)
        elif iri == generate:
            precedes = (train,)
        elif iri == train:
            precedes = (evaluate,)
        else:
            precedes = ()
        step(iri, SCRIPT, b.instruction(OP[f"Plan_{local}"], LANGUAGE_PYTHON_3_5),
             precedes=precedes)

    # Notebook cells: sub-plan steps under the two spine notebook plans.
    fg_plan = OP.Plan_Feature_generation_Pipeline_OpenPREDICT_ipynb
    mp_plan = OP["Plan_Model_preparation_train_and_evaluation_Workflow_OpenPREDCIT_-_ML_ipynb"]
    for plan, prefix, count in (
            (fg_plan, "Feature_generation_01_Pipeline_Source", _FG_CELLS),
            (mp_plan, "Model_preparation_01_Workflow_Source", _MP_CELLS)):
        for n in range(1, count + 1):
            cell_step = OP[f"Step_{prefix}_Cell{n:02d}"]
            described_by = None
            if prefix.startswith("Feature") and 1 <= n <= 5:
                described_by = _SPEC_LOAD
            elif prefix.startswith("Feature") and 6 <= n <= 9:
                described_by = _SPEC_SCORES
            elif prefix.startswith("Model") and n == 1:
                described_by = _SPEC_TRAIN
            instr = b.instruction(OP[f"Plan_{prefix}_Cell{n:02d}"],
                                  LANGUAGE_PYTHON_3_5,
                                  described_by=described_by,
                                  extra_types=(REPROD.Cell,))
            outputs = ()
            if prefix.startswith("Feature") and n == 11:
                outputs = (b.variable(OP.Variable_drugs_fingerprint_similarity_csv),)
            precedes = ((OP[f"Step_{prefix}_Cell{n + 1:02d}"],)
                        if n < count else ())
            step(cell_step, SCRIPT, instr, plan=plan, precedes=precedes,
                 outputs=outputs)

    for spec, desc in ((_SPEC_LOAD, "Load all features and the gold standard"),
                       (_SPEC_SCORES,
                        "Compute similarity scores for drug-disease pairs"),
                       (_SPEC_TRAIN, "Train the classifier and evaluate it")):
        b.instruction(spec, LANGUAGE_ENGLISH, description=desc)

    return WorkflowDef(
        iri=V01, version="0.1", created="2018-11-27", modified="2019-05-15",
        creator=AGENT_REMZI, attributed_to=AGENT_REMZI,
        first_step=OP.Step_Prepare_Input_Data_Files,
        label="Main Protocol v.0.1", description="OpenPREDICT Main Protocol v.0.1",
        language=LANGUAGE_ENGLISH, license=LICENSE)


def _build_v02(b: _Builder) -> WorkflowDef:
    step = partial(b.step, V02)

    # Revised instructions: the three manual procedures that became scripts.
    instr_prepare = b.instruction(
        OP.Plan_Prepare_Input_Data_Files_v02, LANGUAGE_PYTHON_3_5,
        revision_of=OP.Plan_Prepare_Input_Data_Files)
    usage_hi = b.usage(OP.Usage_FAIRify_human_interactome_barabasi_v02,
                       (OP.Variable_Human_interactome_barabasi_local_file,
                        b.distribution("interactome")))
    instr_fair_hi = b.instruction(
        OP.Plan_Execute_FAIRifier_process_to_human_interactome_barabasi_v02,
        LANGUAGE_PYTHON_3_5,
        revision_of=OP.Plan_Execute_FAIRifier_process_to_human_interactome_barabasi,
        usages=(usage_hi,))
    usage_ph = b.usage(OP.Usage_FAIRify_phenotype_annotation_v02,
                       (OP.Variable_Phenotype_annotation_local_file,
                        b.distribution("phenotype")))
    instr_fair_ph = b.instruction(
        OP.Plan_Execute_FAIRifier_process_to_phenotype_annotation_v02,
        LANGUAGE_PYTHON_3_5,
        revision_of=OP.Plan_Execute_FAIRifier_process_to_phenotype_annotation,
        usages=(usage_ph,))

    # New instructions: data preparation for the two new sources plus the
    # identifier mapping, the feature-generation rewrite, and model training.
    var_gold = b.variable(OP.Variable_Gold_standard_indications)
    usage_gold = b.usage(OP.Usage_Bind_gold_standard_download,
                         (var_gold, b.distribution("gold")))
    instr_gold = b.instruction(OP.Plan_Prepare_gold_standard_drug_indications,
                               LANGUAGE_PYTHON_3_5, usages=(usage_gold,))
    var_mesh = b.variable(OP.Variable_Mesh_annotations)
    usage_mesh = b.usage(OP.Usage_Bind_mesh_annotations_download,
                         (var_mesh, b.distribution("mesh")))
    instr_mesh = b.instruction(OP.Plan_Prepare_mesh_annotations,
                               LANGUAGE_PYTHON_3_5, usages=(usage_mesh,))
    var_pubchem = b.variable(OP.Variable_Pubchem_drugbank_mapping)
    usage_pubchem = b.usage(OP.Usage_Bind_pubchem_mapping_download,
                            (var_pubchem, b.distribution("pubchem")))
    instr_pubchem = b.instruction(OP.Plan_Prepare_pubchem_drugbank_mapping,
                                  LANGUAGE_PYTHON_3_5, usages=(usage_pubchem,))
    instr_fg = b.instruction(OP.Plan_Feature_generation_v02, LANGUAGE_PYTHON_3_5)
    instr_scores = b.instruction(OP.Plan_Compute_similarity_scores_v02,
                                 LANGUAGE_PYTHON_3_5)
    instr_combine = b.instruction(OP.Plan_Combine_features_v02, LANGUAGE_PYTHON_3_5)
    instr_train = b.instruction(OP.Plan_Model_training_and_evaluation_v02,
                                LANGUAGE_PYTHON_3_5)

    spine = (OP.Step_Prepare_Input_Data_Files_v02,
             OP.Step_Feature_generation_v02,
             MODEL_TRAINING_STEP_V02,
             OP.Step_Format_results_for_presentation_v02)
    step(spine[0], SCRIPT, instr_prepare, precedes=(spine[1],),
         outputs=(OP.Variable_Triplestore_endpoint_for_input_data,),
         op_class=_DATA_HANDLING)
    step(spine[1], SCRIPT, instr_fg, precedes=(spine[2],),
         inputs=(OP.Variable_Triplestore_endpoint_for_input_data,),
         outputs=(OP.Variable_Feature_matrix_csv,))
    # The training notebook is new Python code but still run by hand,
    # cell by cell, so the step stays manual while its language is Python.
    step(spine[2], MANUAL, instr_train, precedes=(spine[3],),
         inputs=(OP.Variable_Feature_matrix_csv,),
         outputs=(OP.Variable_Model_evaluation_results,))
    step(spine[3], MANUAL, OP.Plan_Format_results_for_presentation)

    step(OP.Step_Execute_FAIRifier_process_to_human_interactome_barabasi_v02,
         SCRIPT, instr_fair_hi,
         inputs=(OP.Variable_Human_interactome_barabasi_local_file,),
         outputs=(OP.Variable_Human_interactome_barabasi_fairified_rdf,))
    step(OP.Step_Execute_FAIRifier_process_to_phenotype_annotation_v02,
         SCRIPT, instr_fair_ph,
         inputs=(OP.Variable_Phenotype_annotation_local_file,),
         outputs=(OP.Variable_Phenotype_annotation_fairified_rdf,))
    step(OP.Step_Prepare_gold_standard_drug_indications_v02, SCRIPT, instr_gold,
         outputs=(var_gold,), op_class=_DATA_HANDLING)
    step(OP.Step_Prepare_mesh_annotations_v02, SCRIPT, instr_mesh,
         outputs=(var_mesh,), op_class=_DATA_HANDLING)
    step(OP.Step_Prepare_pubchem_drugbank_mapping_v02, SCRIPT, instr_pubchem,
         outputs=(var_pubchem,), op_class=_DATA_HANDLING)
    step(OP.Step_Compute_similarity_scores_v02, SCRIPT, instr_scores,
         precedes=(OP.Step_Combine_features_v02,))
    step(OP.Step_Combine_features_v02, SCRIPT, instr_combine)

    # Manual steps reusing the v0.1 instructions.
    for source in ("Drugbank", "Kegg", "Sider"):
        online = OP[f"Variable_{source}_dataset_online"]
        local_file = OP[f"Variable_{source}_local_file"]
        step(OP[f"Step_Download_{source}_dataset_v02"], MANUAL,
             OP[f"Plan_Download_{source}_dataset"],
             precedes=(OP[f"Step_Save_{source}_dataset_v02"],),
             outputs=(online,), op_class=_DATA_HANDLING)
        step(OP[f"Step_Save_{source}_dataset_v02"], MANUAL,
             OP[f"Plan_Save_{source}_dataset"],
             inputs=(online,), outputs=(local_file,), op_class=_DATA_HANDLING)
    step(OP.Step_Save_files_in_triplestore_v02, MANUAL,
         OP.Plan_Save_files_in_triplestore,
         inputs=(OP.Variable_Drugbank_local_file, OP.Variable_Kegg_local_file,
                 OP.Variable_Sider_local_file),
         outputs=(OP.Variable_Triplestore_endpoint_for_input_data,),
         op_class=_DATA_HANDLING)

    return WorkflowDef(
        iri=V02, version="0.2", created="2019-05-15", modified="2019-07-03",
        creator=AGENT_REMZI, attributed_to=AGENT_REMZI,
        first_step=spine[0],
        label="Main Protocol v.0.2", description="OpenPREDICT Main Protocol v.0.2",
        language=LANGUAGE_ENGLISH, license=LICENSE, revision_of=V01)


def _datasets(b: _Builder) -> dict[str, DatasetRecord]:
    """Every dataset, each with its one distribution, which this adds to
    the pool whether or not a version binds it."""
    out = {}
    for key, (ds_local, label, description) in _DATASETS.items():
        out[OP[ds_local]] = DatasetRecord(
            iri=OP[ds_local], distributions=frozenset({b.distribution(key)}),
            label=label, description=description, license=LICENSE)
    return out


def _agents() -> dict[str, AgentDef]:
    return {
        AGENT_REMZI: AgentDef(AGENT_REMZI, "Remzi"),
        AGENT_AHMED: AgentDef(AGENT_AHMED, "Ahmed"),
        AGENT_JOAO: AgentDef(AGENT_JOAO, "Joao"),
        AGENT_JUPYTER: AgentDef(AGENT_JUPYTER, "Jupyter Notebook",
                                software=True, version="5.7.8"),
    }


def _associations(all_instructions: dict[str, Instruction]) -> dict[str, AgentAssociation]:
    every_plan = frozenset(all_instructions) | {V01, V02}
    python_plans = frozenset(
        iri for iri, instr in all_instructions.items()
        if instr.language == (LANGUAGE_PYTHON_3_5,))
    cells = frozenset(iri for iri, instr in all_instructions.items()
                      if REPROD.Cell in instr.extra_types)
    ahmed_plans = cells | {OP.Plan_Feature_generation_v02,
                           OP.Plan_Compute_similarity_scores_v02,
                           OP.Plan_Combine_features_v02}
    out = {}
    for iri, agent, role, plans in (
            (OP.Association_Remzi_creator, AGENT_REMZI, ROLE_CREATOR, every_plan),
            (OP.Association_Remzi_developer, AGENT_REMZI, ROLE_DEVELOPER,
             python_plans),
            (OP.Association_Remzi_executor, AGENT_REMZI, ROLE_EXECUTOR, every_plan),
            (OP.Association_Ahmed_developer, AGENT_AHMED, ROLE_DEVELOPER,
             ahmed_plans),
            (OP.Association_Joao_executor, AGENT_JOAO, ROLE_EXECUTOR,
             frozenset({V01, V02}))):
        out[iri] = AgentAssociation(iri=iri, agent=agent, role=role, plans=plans,
                                    label=_label(iri))
    return out


def _shape() -> QueryShape:
    text = (
        "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
        "PREFIX opredict: <https://w3id.org/fair/openpredict/>\n"
        "SELECT ?drug ?smiles WHERE {\n"
        "  ?drug rdf:type opredict:Drug .\n"
        "  ?drug opredict:hasSmiles ?smiles .\n"
        "}\n")
    return QueryShape(
        iri=OP.Shape_Fetch_drug_smiles,
        constraint_iri=OP.SPARQLConstraint_Fetch_drug_smiles,
        sparql_text=text,
        target_usage=OP.Usage_Bind_Drugbank_download_to_variable)


def _raw_metadata(g: Graph):
    english = OP.LinguisticSystem_English
    _add(g, english, RDF.type, iri(DC.LinguisticSystem))
    _add(g, english, RDFS.label, lit("English"))
    python = OP.LinguisticSystem_Python_3_5
    _add(g, python, RDF.type, iri(SCHEMA.ComputerLanguage))
    _add(g, python, RDF.type, iri(DC.LinguisticSystem))
    _add(g, python, RDFS.label, lit("Python 3.5"))
    _add(g, python, DC.hasVersion, lit("3.5"))
    for role, label in ((ROLE_CREATOR, "Creator"), (ROLE_DEVELOPER, "Developer"),
                        (ROLE_EXECUTOR, "Executor"),
                        (ROLE_ENVIRONMENT, "Execution environment")):
        _add(g, role, RDF.type, iri(PROV.Role))
        _add(g, role, RDFS.label, lit(label))
    store = OP.Triplestore_OpenPREDICT_input_data
    _add(g, store, RDF.type, iri(FABIO.Triplestore))
    _add(g, store, RDFS.label, lit("OpenPREDICT input data triplestore"))
    for measure in MEASURES.values():
        _add(g, measure, RDF.type, iri(MLS.EvaluationMeasure))
        _add(g, measure, RDFS.label, lit(_label(measure)))


_REFERENCE_EVALUATIONS = (
    ("accuracy", "ModelEvaluation_Accuracy_Execution_1546302862", "0.833336"),
    ("average_precision",
     "ModelEvaluation_AveragePrecision_Execution_1546302862", "0.829842"),
    ("f1", "ModelEvaluation_F1_Execution_1546302862", "0.821005"),
    ("precision", "ModelEvaluation_Precision_1546302862", "0.810934"),
    ("recall", "ModelEvaluation_Recall_Execution_1546302862", "0.831340"),
    ("roc_auc", "ModelEvaluation_RocAuc_Execution_1546302862", "0.830927"),
)

_EVAL_VALUES = {
    1546303600: {"accuracy": "0.831204", "average_precision": "0.828113",
                 "f1": "0.819377", "precision": "0.808215", "recall": "0.830852",
                 "roc_auc": "0.829166"},
    1546304200: {"accuracy": "0.834871", "average_precision": "0.831007",
                 "f1": "0.823930", "precision": "0.812466", "recall": "0.835712",
                 "roc_auc": "0.832308"},
    1546304800: {"accuracy": "0.829940", "average_precision": "0.826551",
                 "f1": "0.818024", "precision": "0.806632", "recall": "0.829741",
                 "roc_auc": "0.828477"},
    1559002400: {"accuracy": "0.852109", "average_precision": "0.849216",
                 "f1": "0.841773", "precision": "0.832907", "recall": "0.850832",
                 "roc_auc": "0.851426"},
    1559003000: {"accuracy": "0.849873", "average_precision": "0.846015",
                 "f1": "0.838346", "precision": "0.829174", "recall": "0.847723",
                 "roc_auc": "0.848590"},
}


def _record_executions(g: Graph):
    tracer = Tracer(g)
    fg01 = OP.Step_Feature_generation_Pipeline_OpenPREDICT_ipynb

    for n, epoch in enumerate((1546300000, 1546300600, 1546301200, 1546301800),
                              start=1):
        activity = tracer.begin_activity(fg01, AGENT_JOAO, ROLE_EXECUTOR, epoch)
        tracer.associate(activity, AGENT_JUPYTER, ROLE_ENVIRONMENT)
        tracer.record_artifact(activity, f"features-v01-run{n}.csv", epoch + 540)

    reference = tracer.begin_activity(
        MODEL_TRAINING_STEP_V01, AGENT_JOAO, ROLE_EXECUTOR, 1546302862,
        iri=REFERENCE_ACTIVITY)
    tracer.associate(reference, AGENT_JUPYTER, ROLE_ENVIRONMENT)
    for key, artifact_local, value in _REFERENCE_EVALUATIONS:
        tracer.record_evaluation(reference, MEASURES[key], value,
                                 "2019-01-01T00:02:31.011",
                                 artifact_iri=OP[artifact_local])

    for epoch in (1546303600, 1546304200, 1546304800):
        activity = tracer.begin_activity(MODEL_TRAINING_STEP_V01, AGENT_JOAO,
                                         ROLE_EXECUTOR, epoch)
        tracer.associate(activity, AGENT_JUPYTER, ROLE_ENVIRONMENT)
        for key, value in sorted(_EVAL_VALUES[epoch].items()):
            tracer.record_evaluation(activity, MEASURES[key], value, epoch + 151)

    v02_generic = (
        (OP.Step_Execute_FAIRifier_process_to_human_interactome_barabasi_v02,
         1559000000, "human-interactome-barabasi.nt"),
        (OP.Step_Execute_FAIRifier_process_to_phenotype_annotation_v02,
         1559000600, "phenotype-annotation.nt"),
        (OP.Step_Prepare_gold_standard_drug_indications_v02,
         1559001200, "gold-standard-pairs.csv"),
        (OP.Step_Feature_generation_v02, 1559001800, "features-v02.csv"),
    )
    for step_iri, epoch, artifact in v02_generic:
        activity = tracer.begin_activity(step_iri, AGENT_JOAO, ROLE_EXECUTOR, epoch)
        tracer.associate(activity, AGENT_JUPYTER, ROLE_ENVIRONMENT)
        tracer.record_artifact(activity, artifact, epoch + 420)

    for epoch in (1559002400, 1559003000):
        activity = tracer.begin_activity(MODEL_TRAINING_STEP_V02, AGENT_JOAO,
                                         ROLE_EXECUTOR, epoch)
        tracer.associate(activity, AGENT_JUPYTER, ROLE_ENVIRONMENT)
        for key, value in sorted(_EVAL_VALUES[epoch].items()):
            tracer.record_evaluation(activity, MEASURES[key], value, epoch + 187)

    tracer.emit(g)


def _check_counts(view01: WorkflowView, view02: WorkflowView):
    main01 = [view01.steps[s] for s in view01.main_step_ids()]
    main02 = [view02.steps[s] for s in view02.main_step_ids()]
    manual01 = sum(1 for s in main01 if s.kind == MANUAL)
    script01 = sum(1 for s in main01 if s.kind == SCRIPT)
    manual02 = sum(1 for s in main02 if s.kind == MANUAL)
    script02 = sum(1 for s in main02 if s.kind == SCRIPT)
    assert (manual01, script01) == (28, 14), (manual01, script01)
    assert (manual02, script02) == (9, 9), (manual02, script02)
    assert len(view01.steps) == 60, len(view01.steps)
    assert len(view02.steps) == 18, len(view02.steps)

    used01 = {s.instruction for s in view01.steps.values()}
    used02 = {s.instruction for s in view02.steps.values()}
    assert len(used01) == 58, len(used01)
    assert len(used02) == 18, len(used02)
    assert len(used01 & used02) == 8, sorted(used01 & used02)


def generate_fixture() -> Graph:
    """Build the example graph; the result is frozen and deterministic."""
    b = _Builder()
    head01, head02 = _build_v01(b), _build_v02(b)
    # v0.1's view carries every shared record and v0.2's only its head and
    # steps; the graph is the union of both emissions.
    shape = _shape()
    view01 = WorkflowView(
        workflow=head01, steps=b.steps[V01], instructions=b.instructions,
        variables=b.variables, usages=b.usages, datasets=_datasets(b),
        distributions=b.distributions, agents=_agents(),
        associations=_associations(b.instructions), shapes={shape.iri: shape})
    view02 = WorkflowView(workflow=head02, steps=b.steps[V02])
    _check_counts(view01, view02)

    g = emit_triples(view01)
    g.add_all(emit_triples(view02))
    _raw_metadata(g)
    _record_executions(g)
    return g.freeze()
