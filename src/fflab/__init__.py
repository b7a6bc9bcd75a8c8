"""Desk-scale laboratory for Lorentz quasi-norms, dyadic capacities and
randomized nested-cube measures.

Importing fflab before numpy defaults OpenBLAS to one thread; a value of
OPENBLAS_NUM_THREADS already set is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy loads OpenBLAS

from .lorentz import LorentzExponents, WeightedSample, lorentz_norm, lorentz_seq_norm  # noqa: E402
from .measures import CubeMeasure, ShiftSample  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "LorentzExponents",
    "WeightedSample",
    "lorentz_norm",
    "lorentz_seq_norm",
    "CubeMeasure",
    "ShiftSample",
    "__version__",
]
