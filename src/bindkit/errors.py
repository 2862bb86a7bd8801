"""Error classes shared by the numpy-backed modules and the modules that
import without numpy.

`metrics` raises these and `cli` catches them, and neither may load numpy,
so they live here rather than in `dataset`, `gbdt` and `ligand_features`,
which import numpy and re-export them under their old names.

Every error of a bad input file or value is a DataError, which the command
line reports with exit code 2.  `config.ConfigError` is not one: a config
problem exits 1.
"""
from __future__ import annotations

__all__ = ["DataError", "DatasetError", "GbdtError", "DimensionMismatchError",
           "FingerprintFormatError"]


class DataError(ValueError):
    pass


class DatasetError(DataError):
    pass


class GbdtError(DataError):
    pass


class DimensionMismatchError(GbdtError):
    pass


class FingerprintFormatError(DataError):
    """A packed fingerprint block whose type or width does not fit its bits."""
