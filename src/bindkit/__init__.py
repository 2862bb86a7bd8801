"""bindkit: coordinate-free receptor-ligand featurization and affinity
screening.

Ligands enter as SMILES and become molecular graphs, hashed circular
fingerprints, and graph feature blocks.  Receptors enter as FASTA sequences
and become property-table descriptors and residue-chain graphs.  Curated
affinity pairs in log10 Ki units feed a native least-squares boosted-tree
regressor, scored with MAE, affinity-binned MAE, and a strong-binder
classification accuracy.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.  Names resolve on
# first use (PEP 562), so `import bindkit` loads no submodule and a command
# loads only the modules it runs.
_EXPORTS = {
    "smiles": """Atom Bond Molecule ParseError EmptyInputError UnknownSymbolError
        UnbalancedParenError UnclosedRingError DuplicateBondError ValenceError
        parse_smiles assign_implicit_hydrogens perceive_rings from_smiles""",
    "fasta": """ProteinSequence FastaError NoHeaderError EmptyRecordError
        IllegalResidueError parse_fasta format_fasta""",
    "ligand_features": """ecfp morgan_environments full_refinement_ids
        infer_hybridization ligand_graph_features""",
    "protein_features": """ResiduePropertyTable UnknownResidueError
        load_property_table default_table residue_properties
        receptor_descriptor receptor_graph_features""",
    "dataset": """RawRecord AffinityRecord Dataset EmptyAfterFilteringError
        TooFewRecordsError pair_key ingest split featurize_pairs read_raw_tsv
        write_dataset load_dataset""",
    "gbdt": "train",
    "model": """GbdtModel ModelFormatError ModelVersionError save_model load_model
        write_features""",
    "errors": "DatasetError GbdtError DimensionMismatchError",
    "metrics": "mae binned_mae classify_accuracy build_report write_report",
    "config": "KiBounds TrainParams ConfigError PipelineConfig load_config",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "_formats"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
