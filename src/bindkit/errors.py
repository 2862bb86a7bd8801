"""Error classes shared by the numpy-backed modules and the modules that
import without numpy.

`metrics` raises these and `cli` catches them, and neither may load numpy,
so they live here rather than in `dataset`, `gbdt` and `ligand_features`,
which import numpy and re-export them under their old names.
"""
from __future__ import annotations

__all__ = ["DatasetError", "GbdtError", "DimensionMismatchError",
           "FingerprintFormatError"]


class DatasetError(ValueError):
    pass


class GbdtError(ValueError):
    pass


class DimensionMismatchError(GbdtError):
    pass


class FingerprintFormatError(ValueError):
    """A packed fingerprint block whose type or width does not fit its bits."""
