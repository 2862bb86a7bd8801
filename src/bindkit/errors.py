"""Error classes shared by the numpy-backed modules and the modules that
import without numpy.

`metrics` and the `evaluate` command raise these and must not load numpy,
so they live here rather than in `dataset` and `gbdt`, which import numpy
and re-export them under their old names.
"""
from __future__ import annotations

__all__ = ["DatasetError", "GbdtError", "DimensionMismatchError"]


class DatasetError(ValueError):
    pass


class GbdtError(ValueError):
    pass


class DimensionMismatchError(GbdtError):
    pass
