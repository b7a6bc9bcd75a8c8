"""Shipped construction presets.

Branching sequences are empirical: they are the smallest ones we found that
keep the strict side-halving property while staying desk-scale.
"""

from __future__ import annotations

from .cantor import ConstructionParams, greedy_spacing_branching

__all__ = ["preset", "PRESET_NAMES"]

PRESET_NAMES = ("layer-law", "norm-growth")


def preset(name: str, depth: int = 0, seed: int = 7) -> ConstructionParams:
    """Resolve a named preset.

    layer-law: d = 1, p = 4, beta = 1; branching chosen greedily so that
    ``depth`` full layers exist (default 4).  Used by the layer-sum check.

    norm-growth: d = 1, p = 4, q = 2, beta = 2, branching (3, 8, 16); three
    expansion steps giving four measure stages.  Used by the per-step norm
    growth check.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if name == "layer-law":
        layers = depth or 4
        m = greedy_spacing_branching(1, 4.0, 1.0, layers)
        return ConstructionParams(1, 4.0, 3.0, 1.0, m, seed=seed)
    if name == "norm-growth":
        m = (3, 8, 16)
        if depth:
            if depth > len(m):
                raise ValueError(f"norm-growth preset supports depth <= {len(m)}")
            m = m[:depth]
        return ConstructionParams(1, 4.0, 2.0, 2.0, m, seed=seed)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
