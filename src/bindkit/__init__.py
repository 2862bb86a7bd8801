"""bindkit: coordinate-free receptor-ligand featurization and affinity
screening.

Ligands enter as SMILES and become molecular graphs, hashed circular
fingerprints, and graph feature blocks.  Receptors enter as FASTA sequences
and become property-table descriptors and residue-chain graphs.  Curated
affinity pairs in log10 Ki units feed a native least-squares boosted-tree
regressor, scored with MAE, affinity-binned MAE, and a strong-binder
classification accuracy.
"""
from .smiles import (
    Atom,
    Bond,
    Molecule,
    ParseError,
    EmptyInputError,
    UnknownSymbolError,
    UnbalancedParenError,
    UnclosedRingError,
    DuplicateBondError,
    ValenceError,
    parse_smiles,
    assign_implicit_hydrogens,
    perceive_rings,
    from_smiles,
)
from .fasta import (
    ProteinSequence,
    FastaError,
    NoHeaderError,
    EmptyRecordError,
    IllegalResidueError,
    parse_fasta,
    format_fasta,
)
from .ligand_features import (
    Fingerprint,
    LigandGraphFeatures,
    ecfp,
    morgan_environments,
    full_refinement_ids,
    infer_hybridization,
    ligand_graph_features,
)
from .protein_features import (
    ResiduePropertyTable,
    ReceptorDescriptor,
    ReceptorGraphFeatures,
    UnknownResidueError,
    EmptySequenceError,
    load_property_table,
    default_table,
    residue_properties,
    receptor_descriptor,
    receptor_graph_features,
)
from .dataset import (
    KiBounds,
    RawRecord,
    AffinityRecord,
    Dataset,
    DatasetError,
    EmptyAfterFilteringError,
    TooFewRecordsError,
    pair_key,
    ingest,
    split,
    featurize_pairs,
    read_raw_tsv,
    write_dataset,
    load_dataset,
    write_features,
    load_features,
)
from .gbdt import (
    FeatureStore,
    TrainParams,
    GbdtModel,
    GbdtError,
    DimensionMismatchError,
    ModelFormatError,
    ModelVersionError,
    train,
    save_model,
    load_model,
)
from .metrics import (
    mae,
    binned_mae,
    classify_accuracy,
    build_report,
    write_report,
)
from .config import ConfigError, PipelineConfig, load_config

__version__ = "0.1.0"
