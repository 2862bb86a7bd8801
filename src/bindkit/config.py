"""Pipeline configuration.

Config files are TOML 1.0, read by the standard library's ``tomllib``;
text it cannot read is a ConfigError naming the file.  Every value is then
type-checked against the schema below, and unknown sections or keys are
rejected rather than ignored, so typos fail loudly.  Numbers must be
finite, the fingerprint radius and width and the tree depth have maxima
(MAX_RADIUS, MAX_NBITS, MAX_DEPTH) and the evaluation bins must tile their
range, so a value no command can run is an error here.
The resolved configuration has a canonical JSON form whose SHA-256 digest
stamps every derived artifact.

The module imports without numpy: the value classes of other modules that
a config holds (KiBounds, TrainParams) are defined here.
"""
from __future__ import annotations

import json
import math
import tomllib
from dataclasses import asdict, dataclass, field, fields, replace

from .metrics import (
    DEFAULT_BIN_START,
    DEFAULT_BIN_STOP,
    DEFAULT_BIN_WIDTH,
    DEFAULT_THRESHOLD,
    MetricsError,
    _bin_count,
)

__all__ = ["ConfigError", "KiBounds", "TrainParams", "PipelineConfig",
           "config_from_mapping", "load_config", "MAX_RADIUS", "MAX_NBITS",
           "MAX_DEPTH"]

MAX_RADIUS = 8              # ECFP radius; 2 and 3 are the usual choices
MAX_NBITS = 1 << 16         # fingerprint width
MAX_DEPTH = 10              # an oblivious tree stores 2**depth leaves


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
    bounds: KiBounds = field(default_factory=KiBounds)
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

    def canonical_json(self) -> str:
        doc = {
            "seed": self.seed,
            "ratios": list(self.ratios),
            "ki_min_nm": self.bounds.min_nm,
            "ki_max_nm": self.bounds.max_nm,
            "radius": self.radius,
            "nbits": self.nbits,
            "gbdt": asdict(self.gbdt),
            "bin_start": self.bin_start,
            "bin_stop": self.bin_stop,
            "bin_width": self.bin_width,
            "threshold": self.threshold,
            "property_table": self.property_table,
            "fasta": self.fasta,
            "workers": self.workers,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        import hashlib                  # only ingest and featurize stamp it
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def with_seed(self, seed: int) -> "PipelineConfig":
        if seed < 0:                    # numpy's generators refuse it
            raise ConfigError("seed must be >= 0")
        return replace(self, seed=seed, gbdt=replace(self.gbdt, seed=seed))


_SCHEMA = {
    None: {"seed"},
    "split": {"ratios"},
    "curation": {"ki_min_nm", "ki_max_nm"},
    "fingerprint": {"radius", "nbits"},
    "gbdt": tuple(f.name for f in fields(TrainParams) if f.name != "seed"),
    "evaluation": {"bin_start", "bin_stop", "bin_width", "threshold"},
    "paths": {"property_table", "fasta"},
    "featurize": {"workers"},
}


def _expect(value, types, where: str):
    if isinstance(value, bool) and bool not in types:
        raise ConfigError(f"{where}: unexpected boolean")
    if not isinstance(value, tuple(types)):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{where}: expected {names}, got {type(value).__name__}")
    return value


def _number(value, where: str) -> float:
    """A TOML integer or float as a finite float."""
    try:
        number = float(_expect(value, [int, float], where))
    except OverflowError:               # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {number}")
    return number


def config_from_mapping(doc: dict) -> PipelineConfig:
    for section, body in doc.items():
        if isinstance(body, dict):
            if section not in _SCHEMA or section is None:
                raise ConfigError(f"unknown config section [{section}]")
            for key in body:
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
        else:
            if section not in _SCHEMA[None]:
                raise ConfigError(f"unknown top-level key {section!r}")

    cfg = PipelineConfig()
    if "seed" in doc:
        cfg = replace(cfg, seed=_expect(doc["seed"], [int], "seed"))
    sp = doc.get("split", {})
    if "ratios" in sp:
        ratios = _expect(sp["ratios"], [list], "split.ratios")
        if len(ratios) != 3:
            raise ConfigError("split.ratios needs exactly three entries")
        cfg = replace(cfg, ratios=tuple(_number(r, "split.ratios[]")
                                        for r in ratios))
    cu = doc.get("curation", {})
    if cu:
        try:
            bounds = KiBounds(
                min_nm=_number(cu.get("ki_min_nm", cfg.bounds.min_nm),
                               "curation.ki_min_nm"),
                max_nm=_number(cu.get("ki_max_nm", cfg.bounds.max_nm),
                               "curation.ki_max_nm"))
        except ValueError as exc:
            raise ConfigError(f"curation bounds: {exc}") from exc
        cfg = replace(cfg, bounds=bounds)
    fp = doc.get("fingerprint", {})
    if "radius" in fp:
        cfg = replace(cfg, radius=_expect(fp["radius"], [int], "fingerprint.radius"))
    if "nbits" in fp:
        cfg = replace(cfg, nbits=_expect(fp["nbits"], [int], "fingerprint.nbits"))
    gb = doc.get("gbdt", {})
    if gb:
        kwargs = {}
        for key in _SCHEMA["gbdt"]:
            if key not in gb:
                continue
            value = gb[key]
            if key in ("learning_rate", "subsample"):
                value = _number(value, f"gbdt.{key}")
            else:
                value = _expect(value, [int], f"gbdt.{key}")
            kwargs[key] = value
        try:
            cfg = replace(cfg, gbdt=replace(cfg.gbdt, **kwargs))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    ev = doc.get("evaluation", {})
    updates = {}
    for toml_key, attr in (("bin_start", "bin_start"), ("bin_stop", "bin_stop"),
                           ("bin_width", "bin_width"), ("threshold", "threshold")):
        if toml_key in ev:
            updates[attr] = _number(ev[toml_key], f"evaluation.{toml_key}")
    if updates:
        cfg = replace(cfg, **updates)
        try:
            _bin_count(cfg.bin_start, cfg.bin_stop, cfg.bin_width)
        except MetricsError as exc:
            raise ConfigError(f"evaluation: {exc}") from exc
    pa = doc.get("paths", {})
    if "property_table" in pa:
        cfg = replace(cfg, property_table=_expect(pa["property_table"], [str],
                                                  "paths.property_table"))
    if "fasta" in pa:
        cfg = replace(cfg, fasta=_expect(pa["fasta"], [str], "paths.fasta"))
    fe = doc.get("featurize", {})
    if "workers" in fe:
        workers = _expect(fe["workers"], [int], "featurize.workers")
        if workers < 1:
            raise ConfigError("featurize.workers must be >= 1")
        cfg = replace(cfg, workers=workers)

    if not 0 <= cfg.radius <= MAX_RADIUS:
        raise ConfigError(f"fingerprint.radius must be in [0, {MAX_RADIUS}]")
    if not (0 < cfg.nbits <= MAX_NBITS and cfg.nbits & (cfg.nbits - 1) == 0):
        raise ConfigError(
            f"fingerprint.nbits must be a power of two <= {MAX_NBITS}")
    if any(r <= 0 for r in cfg.ratios) or abs(sum(cfg.ratios) - 1.0) > 1e-9:
        raise ConfigError("split.ratios must be positive and sum to 1")
    # gbdt seed follows the pipeline seed unless training is re-seeded later
    return cfg.with_seed(cfg.seed)


def load_config(path=None) -> PipelineConfig:
    """Load a config file, or the defaults when path is None."""
    if path is None:
        return config_from_mapping({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
