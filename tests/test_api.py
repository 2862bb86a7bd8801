"""The public names of every bindkit module resolve.

A star import reads a module's __all__ and fails on a name the module no
longer defines, so an entry left behind when a function is deleted shows up
here; the package import checks the re-exports of bindkit/__init__.py,
which resolve on first use.
"""
import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys
import tomllib

import pytest

import bindkit

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bindkit.__path__))


def test_submodules_found():
    assert "gbdt" in SUBMODULES and "ligand_features" in SUBMODULES


@pytest.mark.parametrize("name", SUBMODULES)
def test_star_import_resolves_all(name):
    namespace = {}
    exec(f"from bindkit.{name} import *", namespace)
    module = importlib.import_module(f"bindkit.{name}")
    assert set(getattr(module, "__all__", ())) <= namespace.keys()


@pytest.mark.parametrize("name", ["affinity_histogram", "graph_record",
                                  "write_ligand_graphs", "FeatureStore",
                                  "load_features", "atom_invariant",
                                  "feature_schema", "LigandGraphFeatures",
                                  "ReceptorGraphFeatures",
                                  "ReceptorDescriptor", "Fingerprint",
                                  "BinnedMae", "EmptySequenceError"])
def test_removed_names_are_not_exported(name):
    assert not hasattr(bindkit, name)
    for sub in SUBMODULES:
        assert name not in getattr(importlib.import_module(f"bindkit.{sub}"),
                                   "__all__", ())


# Every name bindkit exported when its __init__ imported each module eagerly,
# by the module it was imported from, less the classes deleted since
# (LigandGraphFeatures, ReceptorGraphFeatures: one GraphFeatures record;
# ReceptorDescriptor: receptor_descriptor returns its vector; Fingerprint:
# ecfp returns packed rows; EmptySequenceError: the receptor featurizers
# take a ProteinSequence, which is never empty).
FORMER_EXPORTS = {
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
    "dataset": """KiBounds RawRecord AffinityRecord Dataset DatasetError
        EmptyAfterFilteringError TooFewRecordsError pair_key ingest split
        featurize_pairs read_raw_tsv write_dataset load_dataset write_features""",
    "gbdt": """TrainParams GbdtModel GbdtError
        DimensionMismatchError ModelFormatError ModelVersionError train
        save_model load_model""",
    "metrics": "mae binned_mae classify_accuracy build_report write_report",
    "config": "ConfigError PipelineConfig load_config",
}
FORMER = [(module, name) for module, names in FORMER_EXPORTS.items()
          for name in names.split()]


@pytest.mark.parametrize("module, name", FORMER)
def test_former_export_is_the_module_object(module, name):
    assert getattr(bindkit, name) is getattr(
        importlib.import_module(f"bindkit.{module}"), name)


def test_exports_are_listed():
    names = {name for _, name in FORMER}
    assert set(bindkit.__all__) == names
    assert names | set(SUBMODULES) <= set(dir(bindkit))
    namespace = {}
    exec("from bindkit import *", namespace)
    assert names <= namespace.keys()


def test_moved_classes_keep_their_identity():
    from bindkit import config, dataset, errors, gbdt, metrics
    assert dataset.KiBounds is config.KiBounds
    assert gbdt.TrainParams is config.TrainParams
    assert dataset.DatasetError is errors.DatasetError
    assert gbdt.DimensionMismatchError is errors.DimensionMismatchError
    assert issubclass(gbdt.ModelFormatError, gbdt.GbdtError)
    with pytest.raises(gbdt.DimensionMismatchError):
        metrics.mae([1.0, 2.0], [1.0])


def test_feature_directory_writer_lives_in_model():
    """model writes the feature directory it reads, so the commands that
    write one (featurize) do not load gbdt."""
    from bindkit import dataset, errors, gbdt, ligand_features, model
    assert dataset.write_features is model.write_features
    assert bindkit.write_features is model.write_features
    assert not hasattr(gbdt, "write_features")
    assert ligand_features.FingerprintFormatError is errors.FingerprintFormatError


@pytest.mark.parametrize("name", sorted(bindkit.cli._LAZY))
def test_cli_lazy_names_resolve(name):
    """Each name the command line imports on first use is an attribute of
    the module it names, so a name deleted there fails here, not only when
    its command runs."""
    module = importlib.import_module(f"bindkit.{bindkit.cli._LAZY[name]}")
    assert getattr(bindkit.cli, name) is getattr(module, name)


def test_data_errors_share_one_base_and_config_errors_do_not():
    from bindkit.config import ConfigError
    from bindkit.errors import DataError
    from bindkit.metrics import MetricsError
    from bindkit.protein_features import PropertyTableError
    values = [getattr(bindkit, name) for name in bindkit.__all__]
    classes = [value for value in values
               if isinstance(value, type) and issubclass(value, Exception)]
    assert len(classes) == 20          # 21 less EmptySequenceError
    for cls in classes + [MetricsError, PropertyTableError]:
        assert issubclass(cls, DataError) is (cls is not ConfigError), cls
    assert not issubclass(ConfigError, DataError)
    assert issubclass(bindkit.UnknownResidueError, KeyError)
    assert str(bindkit.UnknownResidueError("J")) == "'J'"


def test_pyproject_requires_python_311_and_ships_the_table():
    path = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    with open(path, "rb") as fh:
        doc = tomllib.load(fh)
    assert doc["project"]["requires-python"] == ">=3.11"
    assert doc["project"]["scripts"] == {"bindkit": "bindkit.cli:entry"}
    assert "data/*.csv" in doc["tool"]["setuptools"]["package-data"]["bindkit"]


def test_removed_methods_are_gone():
    from bindkit.protein_features import ResiduePropertyTable
    assert not hasattr(ResiduePropertyTable, "row")


def test_submodules_are_the_modules_of_the_package():
    """bindkit.<module> resolves for every module, those with no exports
    (cli, _formats) included."""
    assert set(bindkit._SUBMODULES) == set(SUBMODULES)


def test_removed_attributes_are_gone():
    from bindkit.model import Features
    from bindkit.smiles import Bond
    assert not hasattr(Features, "n_rows")        # len(X) or X.shape[0]
    assert not hasattr(Bond, "key")


def test_import_loads_no_submodule_and_no_numpy():
    code = ("import sys, bindkit\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'numpy' or m.startswith('bindkit.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_formats_adds_only_the_standard_library_and_errors():
    """bindkit._formats, which every command loads, adds only standard
    library modules and bindkit.errors to a python -S process: no numpy,
    no dataclasses (with inspect), and no hashlib until a file is
    digested."""
    code = ("import sys\n"
            f"sys.path.insert(0, {str(pathlib.Path(bindkit.__file__).parent.parent)!r})\n"
            "before = set(sys.modules)\n"
            "import bindkit._formats\n"
            "print(sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(ast.literal_eval(proc.stdout))
    ours = {m for m in added if m.partition(".")[0] == "bindkit"}
    assert ours == {"bindkit", "bindkit._formats", "bindkit.errors"}
    assert {m.partition(".")[0] for m in added - ours} <= sys.stdlib_module_names
    assert not {"numpy", "dataclasses", "inspect", "hashlib"} & added
