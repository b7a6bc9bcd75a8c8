"""Nested-cube construction: tree bookkeeping and randomized realization.

The tree grows one node per step in index (breadth-first) order: step k gives
node k its M_k kids.  Weights are exact rationals so the per-layer sum is
exactly 1; kid side lengths follow the size rule tying the side to the
branching count, the node weight and the layer.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .capacity import DyadicCovering, ResourceLimitError
from .measures import CubeMeasure, ShiftSample
from .spectral import FreqGrid, _moment_integrals, expected_transform

__all__ = [
    "SpacingViolation",
    "SelectionBudgetError",
    "ConstructionParams",
    "TreeNode",
    "CubeTree",
    "build_tree",
    "greedy_spacing_branching",
    "layer_covering",
    "sample_shifts",
    "SelectionCertificate",
    "NuSelection",
    "select_nu",
    "realize_tree",
]


class SpacingViolation(ValueError):
    """The kid-side sequence failed the strict halving requirement."""

    def __init__(self, step: int, r_prev: float, r_new: float, suggested_m: int):
        super().__init__(
            f"spacing violated at step {step}: side {r_new} is not below "
            f"{r_prev}/2; raise the branching count to at least {suggested_m}"
        )
        self.step = step
        self.suggested_m = suggested_m


class SelectionBudgetError(ResourceLimitError):
    """Rejection sampling ran out of draws."""


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of the construction: dimension, exponents, branching, seed."""

    d: int
    p: float
    q: float
    beta: float
    M: tuple
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "M", tuple(int(m) for m in self.M))
        if self.d not in (1, 2):
            raise ValueError("only d = 1 and d = 2 are supported at desk scale")
        if not self.p > 2:
            raise ValueError("p must exceed 2")
        if not self.q > 1:
            raise ValueError("q must exceed 1")
        if not self.beta > self.q_dual / 2.0:
            raise ValueError(f"beta must exceed q'/2 = {self.q_dual / 2}")
        for m in self.M:
            if m < 2:
                raise ValueError("every branching count must be at least 2")

    @property
    def q_dual(self) -> float:
        return self.q / (self.q - 1.0)


def _kid_side(d: int, p: float, beta: float, weight: Fraction, layer: int, m: int) -> float:
    """Side of the m kids spawned by a node of the given weight and layer."""
    b = float(weight)
    return m ** (-p / (2.0 * d)) * b ** (p / (2.0 * d * beta)) / (layer + 1)


@dataclass(slots=True)
class TreeNode:
    index: int
    parent: Optional[int]
    layer: int
    weight: Fraction
    side: float
    corner: Optional[tuple] = None
    kids: Tuple[int, ...] = ()


@dataclass
class CubeTree:
    """The construction tree; geometry (corners) and the selection
    certificates, one per step in step order, are filled by realize_tree."""

    params: ConstructionParams
    nodes: List[TreeNode]
    certificates: List[SelectionCertificate] = field(default_factory=list)

    @property
    def steps(self) -> List[tuple]:
        """(expanded node index, M, kid side), one per step in step order."""
        return [(node.index, len(node.kids), self.nodes[node.kids[0]].side) for node in self.nodes if node.kids]

    def layer_nodes(self, n: int) -> List[TreeNode]:
        return [node for node in self.nodes if node.layer == n]

    def is_layer_complete(self, n: int) -> bool:
        """Layer n is complete when every layer n-1 node has been expanded."""
        if n == 0:
            return True
        parents = self.layer_nodes(n - 1)
        return bool(parents) and all(node.kids for node in parents)

    def max_complete_layer(self) -> int:
        n = 0
        while self.is_layer_complete(n + 1):
            n += 1
        return n

    def layer_weight_sum(self, n: int) -> Fraction:
        return sum((node.weight for node in self.layer_nodes(n)), Fraction(0))


# Nodes of one tree, counted before each step makes its kids.  The largest
# shipped preset, layer-law at depth 4, has 6 270; a one-step d = 1 tree of
# 60 004 nodes builds and realizes in 2.4 s at 201 MB peak RSS (2-core host).
_NODE_BUDGET = 2**16


def _least_branching(side, rate: float, m: int, r_prev: float, step: int) -> int:
    """Least branching count from m on whose kid side ``side(m)`` falls
    below r_prev / 2; ResourceLimitError past _NODE_BUDGET, since no tree
    could hold more kids.  As side(m) = side(1) * m**-rate, the search starts
    one below the power where it falls, past any rounding, capped past the budget."""
    half = r_prev / 2
    log_m = math.log(side(1) / half) / rate if rate > 0 else math.inf  # a side that never shrinks
    n = max(m, math.floor(math.exp(min(log_m, math.log(_NODE_BUDGET + 2)))) - 1)
    while not side(n) < half and n <= _NODE_BUDGET:
        n += 1
    if n > _NODE_BUDGET:
        raise ResourceLimitError(f"step {step} needs over {_NODE_BUDGET} kids to halve its side, past the node budget")
    return n


def _grow(d: int, p: float, beta: float, branching) -> List[TreeNode]:
    """Grow the tree by expanding node k at step k with M_k kids, where
    M_k = ``branching(k, node, side, r_prev)`` and None ends the growth.

    ``side(m)`` is the size rule's kid side for m kids of node k.  The kid
    sides over consecutive steps, starting from the root's side 1, must drop
    strictly below half the previous value, otherwise SpacingViolation
    reports the minimal branching count that would restore it.  A step that
    would take the tree past ``_NODE_BUDGET`` nodes raises
    ResourceLimitError before it makes a kid.  Every M_k >= 2, so node k
    exists at step k.
    """
    nodes = [TreeNode(0, None, 0, Fraction(1), 1.0)]
    r_prev = 1.0
    for k in itertools.count():
        node = nodes[k]
        side = functools.partial(_kid_side, d, p, beta, node.weight, node.layer)
        m = branching(k, node, side, r_prev)
        if m is None:
            return nodes
        if len(nodes) + m > _NODE_BUDGET:
            raise ResourceLimitError(f"the tree would hold {len(nodes) + m} nodes, over the budget of {_NODE_BUDGET}")
        r = side(m)
        if not r < r_prev / 2:
            raise SpacingViolation(k, r_prev, r, _least_branching(side, p / (2.0 * d), m, r_prev, k))
        kid_weight = node.weight / m
        if kid_weight > Fraction(1, 2 ** (node.layer + 1)):
            raise RuntimeError(f"node {k}: kid weight {kid_weight} exceeds 2^-{node.layer + 1}")
        first = len(nodes)
        nodes.extend(TreeNode(first + j, k, node.layer + 1, kid_weight, r) for j in range(m))
        node.kids = tuple(range(first, first + m))
        r_prev = r


def build_tree(params: ConstructionParams) -> CubeTree:
    """Grow the tree from the branching list: step k gives node k its M_k
    kids.  Weights are exact rationals, kid sides follow the size rule, and
    the spacing rule and node budget hold as in ``_grow``."""
    M = params.M
    return CubeTree(params, _grow(params.d, params.p, params.beta, lambda k, *_: M[k] if k < len(M) else None))


def greedy_spacing_branching(d: int, p: float, beta: float, layers: int) -> tuple:
    """Branching counts chosen greedily: the minimal M_k >= 2 per step that
    keeps the kid sides strictly halving, from the root's side 1 on,
    continued until ``layers`` full layers exist.  The tree grows as in
    build_tree, so a choice that would pass the node budget raises
    ResourceLimitError at the step that makes it."""
    if d not in (1, 2):
        raise ValueError("only d = 1 and d = 2 are supported at desk scale")
    if not p > 2:
        raise ValueError("p must exceed 2")
    if not beta > 0:
        raise ValueError("beta must be positive")

    def least(k, node, side, r_prev):
        return None if node.layer >= layers else _least_branching(side, p / (2.0 * d), 2, r_prev, k)

    return tuple(len(node.kids) for node in _grow(d, p, beta, least) if node.kids)


def layer_covering(tree: CubeTree, n: int) -> DyadicCovering:
    """Diameters of all layer-n cubes, ready for the covering-sum evaluator."""
    if not tree.is_layer_complete(n):
        raise ValueError(f"layer {n} incomplete: the deepest complete layer is {tree.max_complete_layer()}")
    sqrt_d = math.sqrt(tree.params.d)
    diams = tuple(node.side * sqrt_d for node in tree.layer_nodes(n))
    return DyadicCovering(diams)


def sample_shifts(M: int, r: float, rng: np.random.Generator, d: int = 1) -> ShiftSample:
    """M independent uniform shifts in [0, 1-r]^d."""
    draws = rng.random((int(M), d)) * (1.0 - r)
    return ShiftSample(int(M), r, draws, d)


@dataclass(frozen=True)
class SelectionCertificate:
    """Why a shift sample was accepted: both centred moment integrals and
    the thresholds they had to meet."""

    integrals: tuple  # (I_p1, I_p2) for the accepted sample
    thresholds: tuple
    exponents: tuple  # (p1, p2)
    draws: int
    calibration_draws: int


@dataclass(frozen=True)
class NuSelection:
    sample: ShiftSample
    certificate: SelectionCertificate


def _default_selection_grid(d: int, r: float) -> FreqGrid:
    extent = min(4.0 / r, 512.0)
    if d == 1:
        n = int(min(4096, max(256, 16 * math.ceil(extent))))
    else:
        n = int(min(256, max(64, 4 * math.ceil(extent))))
    n += n % 2
    return FreqGrid(d, extent, n)


# Shift samples drawn to calibrate select_nu's thresholds; odd, so that the
# median is the middle sorted value (np.median would import numpy.ma).
_CALIBRATION_DRAWS = 15


def select_nu(
    M: int, r: float, p1: float, p2: float, budget: int, rng: np.random.Generator, d: int = 1
) -> NuSelection:
    """Rejection-sample a shift configuration with small centred moments.

    The moments are Riemann sums over ``_default_selection_grid(d, r)``.
    ``_CALIBRATION_DRAWS`` samples, drawn as one batch from the same stream
    as that many sample_shifts calls, fix each threshold at 4x the median of
    their integral int |nu_hat - E mu_hat|^{p_i} over the truncated grid.
    Then up to ``budget`` fresh samples are drawn, and the first whose two
    integrals both fall at or below their thresholds is returned with its
    certificate; otherwise SelectionBudgetError is raised.
    """
    if not p1 > p2 > 2:
        raise ValueError("need p1 > p2 > 2")
    grid = _default_selection_grid(d, r)
    expected_vals = expected_transform(r, grid).values
    exponents = (p1, p2)
    calib_shifts = rng.random((_CALIBRATION_DRAWS, int(M), d)) * (1.0 - r)
    moments = _moment_integrals(r, grid, expected_vals, exponents)
    calib = moments(calib_shifts)
    thresholds = tuple((4.0 * np.sort(calib, axis=0)[_CALIBRATION_DRAWS // 2]).tolist())

    for i in range(budget):
        s = sample_shifts(M, r, rng, d)
        integrals = tuple(moments(s.shifts[None])[0].tolist())
        if all(ii <= t for ii, t in zip(integrals, thresholds)):
            return NuSelection(s, SelectionCertificate(integrals, thresholds, exponents, i + 1, _CALIBRATION_DRAWS))
    raise SelectionBudgetError(f"no sample met both thresholds {thresholds} within budget {budget}")


def realize_tree(tree: CubeTree, params: ConstructionParams, budget: int = 64):
    """Place kid cubes by randomized shifts and emit every measure stage.

    The steps are read off the tree's nodes.  At step k the shifts are
    drawn, with the moment exponents p1 = p + 2 and p2 = p1 / 2, for the
    relative side r_k / side(Q_k), and mapped through the homothety onto
    Q_k.  Q_k is then the first atom of the last stage, so the next stage is
    the last one without it, followed by equal shares of its mass on its
    kids.  Returns the tree with geometry and selection certificates, and
    the list of measures from the initial uniform stage through the deepest
    stage.
    """
    p1 = params.p + 2.0
    p2 = p1 / 2.0
    d = params.d
    tree.nodes[0].corner = tuple(0.0 for _ in range(d))
    tree.certificates = []
    measures = [CubeMeasure(d, ((tree.nodes[0].corner, 1.0, 1.0),), (Fraction(1),))]

    for k, m, r in tree.steps:
        node = tree.nodes[k]
        rel_r = r / node.side
        rng = np.random.default_rng(np.random.SeedSequence(params.seed, spawn_key=(k,)))
        sel = select_nu(m, rel_r, p1, p2, budget, rng, d=d)
        tree.certificates.append(sel.certificate)
        for kid_index, v in zip(node.kids, sel.sample.shifts.tolist()):
            kid = tree.nodes[kid_index]
            kid.corner = tuple(c + node.side * vc for c, vc in zip(node.corner, v))
        kids = [(tree.nodes[j].corner, tree.nodes[j].side) for j in node.kids]
        measures.append(measures[-1].split_first(kids))
    return tree, measures
