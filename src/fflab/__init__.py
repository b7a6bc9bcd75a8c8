"""Desk-scale laboratory for Lorentz quasi-norms, dyadic capacities and
randomized nested-cube measures."""

from .lorentz import LorentzExponents, WeightedSample, lorentz_norm, lorentz_seq_norm
from .measures import CubeMeasure, ShiftSample

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
