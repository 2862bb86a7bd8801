"""Error classes shared by the numpy-backed modules and the modules that
import without numpy.

`_formats` and `metrics` raise these and `cli` catches them, and none of
them may load numpy, so they live here rather than in `dataset`, `gbdt`
and `ligand_features`, which import numpy and re-export them under their
old names.

Every error of a bad input file or value is a DataError, which the command
line reports with exit code 2.  `config.ConfigError` is not one: a config
problem exits 1.
"""
from __future__ import annotations

__all__ = ["DataError", "DatasetError", "DatasetFormatError",
           "EmptyAfterFilteringError", "GbdtError", "DimensionMismatchError",
           "FingerprintFormatError"]


class DataError(ValueError):
    pass


class DatasetError(DataError):
    pass


class DatasetFormatError(DatasetError):
    pass


class EmptyAfterFilteringError(DatasetError):
    pass


class GbdtError(DataError):
    pass


class DimensionMismatchError(GbdtError):
    pass


class FingerprintFormatError(DataError):
    """A fingerprint bit block that is not a CSR of ascending bits below
    nbits: the wrong dtype or rank, offsets that do not run from 0 to the
    number of set bits without decreasing, or a row whose bits reach nbits
    or do not strictly ascend."""
