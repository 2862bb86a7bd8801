"""Pipeline configuration.

Config files are TOML 1.0, read by the standard library's ``tomllib``;
text it cannot read is a ConfigError naming the file.  One key table,
_SCHEMA, names every section and key and the reader that type-checks its
value; unknown sections or keys are rejected rather than ignored, so typos
fail loudly.  Numbers must be finite, the fingerprint radius and width and
the tree depth have maxima (MAX_RADIUS, MAX_NBITS, MAX_DEPTH) and the
evaluation bins must tile their range, so a value no command can run is an
error here.  The resolved configuration has a canonical JSON form whose
SHA-256 digest stamps every derived artifact.

The module imports without numpy: the value classes of other modules that
a config holds (KiBounds, TrainParams) are defined here.
"""
from __future__ import annotations

import json
import math
import os
import tomllib
from dataclasses import asdict, dataclass, field, fields, replace

from .metrics import (
    DEFAULT_BIN_START,
    DEFAULT_BIN_STOP,
    DEFAULT_BIN_WIDTH,
    DEFAULT_THRESHOLD,
    _bin_edges,
)

__all__ = ["ConfigError", "KiBounds", "TrainParams", "PipelineConfig",
           "config_from_mapping", "load_config", "property_table_bytes",
           "MAX_RADIUS", "MAX_NBITS", "MAX_DEPTH", "DEFAULT_PROPERTY_TABLE"]

MAX_RADIUS = 8              # ECFP radius; 2 and 3 are the usual choices
MAX_NBITS = 1 << 16         # fingerprint width
MAX_DEPTH = 10              # an oblivious tree stores 2**depth leaves
# The residue property table when [paths] property_table is unset
DEFAULT_PROPERTY_TABLE = os.path.join(os.path.dirname(__file__), "data",
                                      "residue_properties.csv")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class KiBounds:
    """Plausibility window for inhibition constants, in nM."""
    min_nm: float = 1e-3
    max_nm: float = 1e10

    def __post_init__(self):
        if not (self.min_nm > 0 and self.max_nm > self.min_nm):
            raise ValueError("need 0 < min_nm < max_nm")


@dataclass(frozen=True)
class TrainParams:
    n_trees: int = 500
    max_depth: int = 6
    learning_rate: float = 0.05
    min_samples_leaf: int = 20
    n_histogram_bins: int = 256
    subsample: float = 1.0
    early_stopping_rounds: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise ValueError(f"max_depth must be in [1, {MAX_DEPTH}]")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not (2 <= self.n_histogram_bins <= 65536):
            raise ValueError("n_histogram_bins must be in [2, 65536]")
        if not (0.0 < self.subsample <= 1.0):
            raise ValueError("subsample must be in (0, 1]")
        if self.early_stopping_rounds is not None and self.early_stopping_rounds < 1:
            raise ValueError("early_stopping_rounds must be >= 1 or None")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 2024
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    ki_min_nm: float = KiBounds.min_nm
    ki_max_nm: float = KiBounds.max_nm
    radius: int = 2
    nbits: int = 2048
    gbdt: TrainParams = field(default_factory=TrainParams)
    bin_start: float = DEFAULT_BIN_START
    bin_stop: float = DEFAULT_BIN_STOP
    bin_width: float = DEFAULT_BIN_WIDTH
    threshold: float = DEFAULT_THRESHOLD
    property_table: str | None = None
    fasta: str | None = None
    workers: int = 1            # [featurize] workers: digested, no effect

    @property
    def bounds(self) -> KiBounds:
        return KiBounds(self.ki_min_nm, self.ki_max_nm)

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        import hashlib                  # only ingest and featurize stamp it
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "PipelineConfig":
        if seed < 0:                    # numpy's generators refuse it
            raise ConfigError("seed must be >= 0")
        return replace(self, seed=seed, gbdt=replace(self.gbdt, seed=seed))


def property_table_bytes(path: str | None) -> bytes:
    """The bytes of the property table at path, or of the shipped one when
    path is None, read through this package's loader (a file on disk or a
    zip member alike) without importing importlib.resources, which pulls
    in pathlib, tempfile, shutil and zipfile."""
    if path is None:
        return __spec__.loader.get_data(DEFAULT_PROPERTY_TABLE)
    with open(path, "rb") as fh:
        return fh.read()


def _of_type(*types):
    """The reader of a TOML value of one of these types."""
    def read(value, where: str):
        if isinstance(value, bool) and bool not in types:
            raise ConfigError(f"{where}: unexpected boolean")
        if not isinstance(value, types):
            names = "/".join(t.__name__ for t in types)
            raise ConfigError(f"{where}: expected {names}, got {type(value).__name__}")
        return value
    return read


def _number(value, where: str) -> float:
    """A TOML integer or float as a finite float."""
    try:
        number = float(_of_type(int, float)(value, where))
    except OverflowError:               # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {number}")
    return number


def _ratios(value, where: str) -> tuple[float, float, float]:
    ratios = _of_type(list)(value, where)
    if len(ratios) != 3:
        raise ConfigError(f"{where} needs exactly three entries")
    return tuple(_number(r, f"{where}[]") for r in ratios)


# The key table: each section (None for the top level), its keys in the
# order they are read, and the reader of each key's TOML value.  A key sets
# the PipelineConfig field of its name, or under [gbdt] the TrainParams one.
_SCHEMA = {
    None: {"seed": _of_type(int)},
    "split": {"ratios": _ratios},
    "curation": {"ki_min_nm": _number, "ki_max_nm": _number},
    "fingerprint": {"radius": _of_type(int), "nbits": _of_type(int)},
    "gbdt": {f.name: _number if f.type == "float" else _of_type(int)
             for f in fields(TrainParams) if f.name != "seed"},
    "evaluation": {"bin_start": _number, "bin_stop": _number,
                   "bin_width": _number, "threshold": _number},
    "paths": {"property_table": _of_type(str), "fasta": _of_type(str)},
    "featurize": {"workers": _of_type(int)},
}

# The check across the keys of a section, run as soon as it is read, and the
# prefix of its message; TrainParams checks the [gbdt] keys itself.
_SECTION_CHECKS = {
    "curation": ("curation bounds: ", lambda c: c.bounds),
    "evaluation": ("evaluation: ", lambda c: _bin_edges(c.bin_start, c.bin_stop, c.bin_width)),
}


def config_from_mapping(doc: dict) -> PipelineConfig:
    """The config of a TOML document.  Unknown names fail before any value is
    read, then each section in table order, then the checks across sections."""
    for section, body in doc.items():
        if isinstance(body, dict):
            if section not in _SCHEMA or section is None:
                raise ConfigError(f"unknown config section [{section}]")
            for key in body:
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
        elif section not in _SCHEMA[None]:
            raise ConfigError(f"unknown top-level key {section!r}")

    cfg = PipelineConfig()
    for section, readers in _SCHEMA.items():
        body = doc if section is None else doc.get(section, {})
        values = {key: read(body[key], f"{section}.{key}" if section else key)
                  for key, read in readers.items() if key in body}
        prefix, check = _SECTION_CHECKS.get(section, ("", lambda cfg: None))
        try:
            if section == "gbdt":
                values = {"gbdt": replace(cfg.gbdt, **values)}
            cfg = replace(cfg, **values)
            check(cfg)
        except ValueError as exc:
            raise ConfigError(prefix + str(exc)) from exc

    if cfg.workers < 1:
        raise ConfigError("featurize.workers must be >= 1")
    if not 0 <= cfg.radius <= MAX_RADIUS:
        raise ConfigError(f"fingerprint.radius must be in [0, {MAX_RADIUS}]")
    if not (0 < cfg.nbits <= MAX_NBITS and cfg.nbits & (cfg.nbits - 1) == 0):
        raise ConfigError(f"fingerprint.nbits must be a power of two <= {MAX_NBITS}")
    if any(r <= 0 for r in cfg.ratios) or abs(sum(cfg.ratios) - 1.0) > 1e-9:
        raise ConfigError("split.ratios must be positive and sum to 1")
    # gbdt seed follows the pipeline seed unless training is re-seeded later
    return cfg.with_seed(cfg.seed)


def load_config(path=None) -> PipelineConfig:
    """Load a config file, or the defaults when path is None."""
    if path is None:
        return config_from_mapping({})
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = tomllib.loads(text)
    except (ValueError, RecursionError) as exc:
        # TOMLDecodeError is a ValueError, as is an integer literal of more
        # than 4,300 digits; deeply nested arrays overflow the recursion limit
        raise ConfigError(f"{path}: not valid TOML ({exc})") from exc
    return config_from_mapping(doc)
