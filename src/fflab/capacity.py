"""Covering sums, dyadic capacities and their property verifiers.

The capacity of a point cloud is computed as a certified optimum over
coverings drawn from the dyadic-box lattice.  Because all boxes of one
generation share a diameter, the covering cost depends only on the vector of
per-generation box counts, so a Pareto-frontier dynamic program over the
occupied dyadic tree is exact for every monotone block aggregator, including
the concave regime q < 1.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .lorentz import LorentzExponents, WeightedSample, _sample_norms, dyadic_block_index

__all__ = [
    "ResourceLimitError",
    "DyadicCovering",
    "CapacityParams",
    "GaugeFunction",
    "PointCloud",
    "nh_covering_sum",
    "nh_capacity_delta",
    "enumerate_antichain_coverings",
    "HlpItem",
    "HlpInstance",
    "HlpVerdict",
    "check_hlp_item",
    "GridMeasure",
    "tent_profile",
    "bump_pairing",
    "FrostmanResult",
    "frostman_ratio",
]


class ResourceLimitError(RuntimeError):
    """Raised when a search exceeds its desk-scale budget."""


def _check_regular(f: Callable[[float], float], name: str) -> None:
    """Sampled regularity check: nondecreasing, f(0) = 0, doubling on a log grid."""
    if abs(f(0.0)) > 1e-12:
        raise ValueError(f"{name}(0) = {f(0.0)}, expected 0")
    # sample only small scales: covering diameters live there, and common
    # logarithmic gauges are monotone only near zero
    ts = 2.0 ** np.arange(-20, -2)
    vals = np.array([f(t) for t in ts])
    if np.any(np.diff(vals) < -1e-12):
        raise ValueError(f"{name} is not non-decreasing on the sample grid")
    if np.any(vals[:-1] <= 0):
        raise ValueError(f"{name} vanishes at a positive sample point")
    ratios = vals[1:] / vals[:-1]
    if np.max(ratios) > 1e6:
        raise ValueError(f"{name} fails the sampled doubling check (ratio {np.max(ratios)})")


@dataclass(frozen=True)
class CapacityParams:
    """Aggregation parameters (alpha, q) with an optional block gauge phi.

    When phi is absent the power law phi(t) = t^q is implied; q = math.inf
    switches the outer sum to a sup.
    """

    alpha: float
    q: float = 1.0
    phi: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.q > 0:
            raise ValueError("q must be positive")
        if self.phi is not None:
            if self.q == math.inf:
                raise ValueError("phi cannot be combined with q = inf")
            _check_regular(self.phi, "phi")

    def block_gauge(self, s: float) -> float:
        if self.phi is not None:
            return float(self.phi(s))
        return s**self.q


@dataclass(frozen=True)
class GaugeFunction:
    """A regular gauge f for sums Sigma f(diam); validated by sampling."""

    f: Callable[[float], float]

    def __post_init__(self):
        _check_regular(self.f, "gauge")

    def __call__(self, t: float) -> float:
        return float(self.f(t))


@dataclass(frozen=True)
class DyadicCovering:
    """A multiset of covering-set diameters below the scale bound delta."""

    diameters: tuple
    delta: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "diameters", tuple(float(t) for t in self.diameters))
        for t in self.diameters:
            if not t > 0:
                raise ValueError("zero or negative diameter rejected")
            if not t < self.delta:
                raise ValueError(f"diameter {t} not below the scale bound {self.delta}")


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points in the closed unit cube."""

    points: tuple  # of coordinate tuples
    d: int

    def __post_init__(self):
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        for p in pts:
            if len(p) != self.d:
                raise ValueError(f"point {p} has dimension {len(p)}, expected {self.d}")
            if any(c < 0 or c > 1 for c in p):
                raise ValueError(f"point {p} outside the unit cube")

    def union(self, other: "PointCloud") -> "PointCloud":
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        return PointCloud(tuple(dict.fromkeys(self.points + other.points)), self.d)


def nh_covering_sum(cov: DyadicCovering, params: CapacityParams) -> float:
    """Block-aggregated covering sum Sigma_k phi(Sigma_{diam in Delta_k} diam^alpha)."""
    if not cov.diameters:
        return 0.0
    block_sums: dict = {}
    for t in cov.diameters:
        k = dyadic_block_index(t)
        block_sums[k] = block_sums.get(k, 0.0) + t**params.alpha
    if params.q == math.inf:
        return max(block_sums.values())
    return sum(params.block_gauge(s) for s in block_sums.values())


# ---------------------------------------------------------------------------
# capacity at scale delta: exact optimum over dyadic-box coverings


def _box_of(point, g: int):
    scale = 2**g
    return tuple(min(int(c * scale), scale - 1) for c in point)


# Rows per skyline block.  The kept rows are compared in chunks of the same
# size, so every comparison temporary holds at most _PRUNE_BLOCK^2 bools.
_PRUNE_BLOCK = 256


def _below(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(b), len(a)) bools: row j of ``a`` <= row i of ``b`` in every
    column, accumulated one column at a time."""
    out = a[None, :, 0] <= b[:, None, 0]
    for j in range(1, a.shape[1]):
        out &= a[None, :, j] <= b[:, None, j]
    return out


def _prune(rows: np.ndarray) -> np.ndarray:
    """Pareto-minimal rows of an (n, n_gen) int64 array, componentwise order.

    A sorted block skyline (Kung, Luccio & Preparata 1975): the rows are
    sorted by (sum, columns) and duplicates dropped, so a row can only be
    dominated by a row of strictly smaller sum, that is by an earlier one.
    Each block of rows is tested with ``<=`` against the rows kept so far
    and against its own rows of smaller sum.  Domination is transitive, so
    a dominated row always has a kept dominator in one of the two.  The
    kept rows come back in (sum, columns) order.
    """
    sums = rows.sum(axis=1)
    order = np.lexsort((*rows.T[::-1], sums))
    rows, sums = rows[order], sums[order]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    rows, sums = rows[fresh], sums[fresh]
    kept = np.empty_like(rows)
    n_kept = 0
    for start in range(0, len(rows), _PRUNE_BLOCK):
        block = rows[start:start + _PRUNE_BLOCK]
        block_sums = sums[start:start + _PRUNE_BLOCK]
        smaller = block_sums[None, :] < block_sums[:, None]
        dominated = (_below(block, block) & smaller).any(axis=1)
        for lo in range(0, n_kept, _PRUNE_BLOCK):
            dominated |= _below(kept[lo:min(lo + _PRUNE_BLOCK, n_kept)], block).any(axis=1)
        survivors = block[~dominated]
        kept[n_kept:n_kept + len(survivors)] = survivors
        n_kept += len(survivors)
    return kept[:n_kept]


def _merge(acc: Optional[np.ndarray], front: np.ndarray) -> np.ndarray:
    """Pareto frontier of the Minkowski sum of two frontiers; ``acc`` None
    is the empty sum, so the first frontier is taken as it is."""
    if acc is None:
        return front
    return _prune((acc[:, None, :] + front[None, :, :]).reshape(-1, acc.shape[1]))


def _groups(points, g: int):
    """The points grouped by their box at generation g, in point order."""
    boxes: dict = {}
    for p in points:
        boxes.setdefault(_box_of(p, g), []).append(p)
    return boxes.values()


_FRONTIER_BUDGET = 200_000


def _frontier(points, g: int, g_min: int, depth: int, counter: list) -> np.ndarray:
    """Pareto frontier of per-generation count vectors covering ``points``.

    The box containing ``points`` sits at generation g.  Each row has one
    column per generation g_min..depth.  ``counter[0]`` sums the sizes of
    the pruned frontiers built so far, against ``_FRONTIER_BUDGET``.
    """
    take = np.zeros((1, depth - g_min + 1), dtype=np.int64)
    take[0, g - g_min] = 1
    if g == depth:
        return take
    acc = None
    for kid_points in _groups(points, g + 1):
        acc = _merge(acc, _frontier(kid_points, g + 1, g_min, depth, counter))
        counter[0] += len(acc)
        if counter[0] > _FRONTIER_BUDGET:
            raise ResourceLimitError(
                f"covering search reached {counter[0]} frontier rows, over the budget "
                f"of {_FRONTIER_BUDGET}, at depth {depth}; reduce depth"
            )
    # every row of acc covers the box with deeper boxes only, so taking
    # the box itself is incomparable with all of them
    return np.vstack((acc, take))


def _frontier_cost(front: np.ndarray, g_min: int, d: int, params: CapacityParams) -> float:
    """Least covering sum over the count rows of ``front``.

    Column j counts the boxes of generation g_min + j, one generation per
    dyadic block since sqrt(d) < 2 for d <= 3.  Each distinct count of a
    column is scored once as the block gauge of count * diam**alpha, and
    the columns are added left to right (max for q = inf); a zero
    count adds 0.0.
    """
    sup = params.q == math.inf
    costs = np.zeros(front.shape)
    for j in range(front.shape[1]):
        term = (2.0 ** (-(g_min + j)) * math.sqrt(d)) ** params.alpha
        counts, at = np.unique(front[:, j], return_inverse=True)
        scored = [c * term if sup or c == 0 else params.block_gauge(c * term) for c in counts.tolist()]
        costs[:, j] = np.array(scored)[at]
    if sup:
        return float(costs.max(axis=1).min())
    total = costs[:, 0].copy()
    for j in range(1, costs.shape[1]):
        total += costs[:, j]
    return float(total.min())


def nh_capacity_delta(cloud: PointCloud, params: CapacityParams, delta: float, depth: int) -> float:
    """Exact infimum of nh_covering_sum over dyadic-box coverings.

    Boxes are drawn from generations ceil(log2(1/delta))..depth.  The value
    upper-bounds the unrestricted capacity.
    """
    if not cloud.points:
        return 0.0
    if not 0 < delta:
        raise ValueError("delta must be positive")
    g_min = max(0, math.ceil(math.log2(1.0 / delta)))
    if depth < g_min:
        raise ValueError(f"depth {depth} below the coarsest generation {g_min}")
    if depth > 16:
        raise ResourceLimitError(f"depth {depth} exceeds the desk-scale limit 16")
    counter = [0]
    acc = None
    for top_points in _groups(cloud.points, g_min):
        acc = _merge(acc, _frontier(top_points, g_min, g_min, depth, counter))
    return _frontier_cost(acc, g_min, cloud.d, params)


def enumerate_antichain_coverings(cloud: PointCloud, delta: float, depth: int):
    """Yield the diameter multisets of every dyadic antichain covering.

    Exhaustive take-or-refine enumeration over the occupied tree; intended as
    an independent oracle for nh_capacity_delta on tiny instances.
    """
    if not cloud.points:
        yield ()
        return
    g_min = max(0, math.ceil(math.log2(1.0 / delta)))

    def expand(points, g):
        diam = 2.0 ** (-g) * math.sqrt(cloud.d)
        if g == depth:
            yield (diam,)
            return
        yield (diam,)
        kid_lists = [list(expand(pts, g + 1)) for pts in _groups(points, g + 1)]
        for combo in itertools.product(*kid_lists):
            yield tuple(itertools.chain.from_iterable(combo))

    top_lists = [list(expand(pts, g_min)) for pts in _groups(cloud.points, g_min)]
    for combo in itertools.product(*top_lists):
        yield tuple(itertools.chain.from_iterable(combo))


# ---------------------------------------------------------------------------
# Proposition-style property checks


class HlpItem(enum.Enum):
    SUBADDITIVITY = "subadditivity"
    SEPARATED_ADDITIVITY = "separated_additivity"
    Q_MONOTONE = "q_monotone"
    ALPHA_JUMP = "alpha_jump"
    GAUGE_LOWER = "gauge_lower"
    GAUGE_UPPER = "gauge_upper"


@dataclass(frozen=True)
class HlpInstance:
    """One generated test instance; only the fields the item needs are set."""

    cloud_a: Optional[PointCloud] = None
    cloud_b: Optional[PointCloud] = None
    params: Optional[CapacityParams] = None
    delta: float = 0.5
    depth: int = 8
    profile: Optional[tuple] = None  # per-generation counts M_k, k = 1..len
    gauge: Optional[GaugeFunction] = None
    alpha: Optional[float] = None
    alpha2: Optional[float] = None
    q: Optional[float] = None
    q2: Optional[float] = None


@dataclass(frozen=True)
class HlpVerdict:
    ok: bool
    lhs: float
    rhs: float
    note: str = ""


def _merge_factor(params: CapacityParams) -> float:
    """Cost of merging two coverings' block sums: (a+b)^q <= 2^{q-1}(a^q+b^q)
    for q > 1; concave or sup aggregation merges for free."""
    if params.phi is not None:
        raise ValueError("merge factor is only pinned for the power gauge")
    if params.q == math.inf or params.q <= 1:
        return 1.0
    return 2.0 ** (params.q - 1.0)


def _profile_terms(profile):
    ks = np.arange(1, len(profile) + 1)
    return np.asarray(profile, dtype=float), 2.0 ** (-ks)


def check_hlp_item(item: HlpItem, inst: HlpInstance) -> HlpVerdict:
    """Evaluate one capacity property on a generated instance.

    SUBADDITIVITY and SEPARATED_ADDITIVITY compare capacities of point
    clouds at matched depth.  Q_MONOTONE, ALPHA_JUMP, GAUGE_LOWER and
    GAUGE_UPPER evaluate the corresponding inequality chains directly on a
    per-generation count profile {M_k}.
    """
    if item is HlpItem.SUBADDITIVITY:
        union = inst.cloud_a.union(inst.cloud_b)
        lhs = nh_capacity_delta(union, inst.params, inst.delta, inst.depth)
        rhs = nh_capacity_delta(inst.cloud_a, inst.params, inst.delta, inst.depth) + nh_capacity_delta(
            inst.cloud_b, inst.params, inst.delta, inst.depth
        )
        # at a matched finite depth the convex regime only admits the
        # elementary merge factor: refining one covering out of the way,
        # which restores plain subadditivity, needs unbounded depth
        factor = _merge_factor(inst.params)
        note = "" if factor == 1.0 else f"merge factor {factor}"
        return HlpVerdict(lhs <= factor * rhs + 1e-12, lhs, factor * rhs, note)

    if item is HlpItem.SEPARATED_ADDITIVITY:
        gap = min(
            math.dist(a, b) for a in inst.cloud_a.points for b in inst.cloud_b.points
        )
        if gap <= inst.delta:
            return HlpVerdict(True, math.nan, math.nan, "clouds not separated; vacuous")
        union = inst.cloud_a.union(inst.cloud_b)
        lhs = nh_capacity_delta(union, inst.params, inst.delta, inst.depth)
        parts = [
            nh_capacity_delta(c, inst.params, inst.delta, inst.depth)
            for c in (inst.cloud_a, inst.cloud_b)
        ]
        rhs = parts[0] + parts[1]
        if inst.params.phi is None and inst.params.q == 1:
            # for the additive gauge the separated optimum splits exactly
            return HlpVerdict(abs(lhs - rhs) <= 1e-9, lhs, rhs)
        # a non-additive gauge merges the parts' block sums, so only
        # two-sided bounds are available at fixed depth
        factor = _merge_factor(inst.params)
        ok = lhs <= factor * rhs + 1e-12 and lhs >= max(parts) - 1e-12
        return HlpVerdict(ok, lhs, factor * rhs, "two-sided bounds (gauge not additive)")

    if item is HlpItem.Q_MONOTONE:
        counts, diams = _profile_terms(inst.profile)
        s = counts * diams**inst.alpha
        s = s[s > 0]

        def outer(qv):
            if qv == math.inf:
                return float(np.max(s)) ** (1.0 / inst.alpha)
            return float(np.sum(s**qv)) ** (1.0 / (inst.alpha * qv))

        q1, q2 = inst.q, inst.q2
        lhs, rhs = outer(q2), outer(q1)
        return HlpVerdict(lhs <= rhs * (1 + 1e-12), lhs, rhs)

    if item is HlpItem.ALPHA_JUMP:
        counts, diams = _profile_terms(inst.profile)
        sup1 = float(np.max(counts * diams**inst.alpha))
        tail2 = counts * diams**inst.alpha2
        lhs = float(tail2[-1])
        # the alpha2-terms must decay geometrically once the alpha-sup is bounded
        bound = sup1 * 2.0 ** (-(len(counts)) * (inst.alpha2 - inst.alpha))
        return HlpVerdict(lhs <= bound * (1 + 1e-12), lhs, bound)

    counts, diams = _profile_terms(inst.profile)
    f_vals = np.array([inst.gauge(t) for t in diams])
    if item is HlpItem.GAUGE_LOWER:
        qv = inst.q
        if not 0 < qv < 1:
            raise ValueError("gauge_lower chain requires 0 < q < 1")
        lhs = float(np.sum(counts**qv * diams ** (qv * inst.alpha)))
        fac1 = float(np.sum(counts * f_vals)) ** qv
        fac2 = float(np.sum((diams**inst.alpha / f_vals) ** (qv / (1.0 - qv)))) ** (1.0 - qv)
        rhs = fac1 * fac2
        return HlpVerdict(lhs <= rhs * (1 + 1e-12), lhs, rhs)

    if item is HlpItem.GAUGE_UPPER:
        qv = inst.q
        lhs = float(np.sum(counts * f_vals))
        if qv == math.inf:
            rhs = float(np.max(counts * diams**inst.alpha)) * float(
                np.sum(f_vals / diams**inst.alpha)
            )
        else:
            if not qv > 1:
                raise ValueError("gauge_upper chain requires q > 1")
            qp = qv / (qv - 1.0)
            rhs = float(np.sum(counts**qv * diams ** (qv * inst.alpha))) ** (1.0 / qv) * float(
                np.sum((f_vals / diams**inst.alpha) ** qp)
            ) ** (1.0 / qp)
        return HlpVerdict(lhs <= rhs * (1 + 1e-12), lhs, rhs)

    raise ValueError(f"unknown item {item}")


# ---------------------------------------------------------------------------
# Frostman-type ratio experiment


@dataclass(frozen=True)
class GridMeasure:
    """A discrete signed measure: point masses on a dyadic grid in [0,1]^d."""

    d: int
    points: tuple  # of coordinate tuples
    weights: tuple  # signed reals, one per point

    def __post_init__(self):
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(pts) != len(self.weights):
            raise ValueError("points and weights must have equal length")


def tent_profile(t: float) -> float:
    """The fixed radially non-increasing tent, supported on the closed 3-ball."""
    return max(0.0, 1.0 - t / 3.0)


def bump_pairing(mu: GridMeasure, center, radius: float) -> float:
    """Integral of the scaled tent bump centered at ``center`` against mu."""
    return sum(
        w * tent_profile(math.dist(p, center) / radius)
        for p, w in zip(mu.points, mu.weights)
    )


@dataclass(frozen=True)
class FrostmanResult:
    hypothesis_constant: float
    conclusion_constant: float
    families_tried: int
    sets_tried: int


def _dyadic_ball_candidates(d: int):
    radii = [2.0**-k for k in range(2, 5)]
    grid = [j / 8.0 for j in range(9)]
    for center in itertools.product(grid, repeat=d):
        for r in radii:
            yield (center, r)


# frostman_ratio's search sizes: random ball families drawn, balls per
# family, generations of test boxes, and the depth of each box's capacity.
_RANDOM_FAMILIES = 200
_MAX_FAMILY = 6
_SET_DEPTH = 4
_CAPACITY_DEPTH = 8


def frostman_ratio(
    mu: GridMeasure, alpha: float, q: float, gamma: float, rng: np.random.Generator
) -> FrostmanResult:
    """(hypothesis_constant, conclusion_constant) of the bump-to-capacity transfer.

    The hypothesis constant maximizes |Sigma_j <bump_j, mu>| over an
    enumerated family of finite disjoint dyadic-ball packings (all
    singletons, all disjoint pairs, and _RANDOM_FAMILIES families drawn from
    ``rng``, each maximal up to _MAX_FAMILY balls), normalized by the
    Lorentz sequence norm of the radii raised to q*gamma.  The conclusion
    constant maximizes |mu|(A) / capacity(A)^gamma over the occupied dyadic
    boxes A of generations 0.._SET_DEPTH, each capacity a dyadic optimum to
    depth _CAPACITY_DEPTH.
    """
    if mu.d not in (1, 2):
        raise ValueError("only d = 1 and d = 2 are supported at desk scale")
    if q == math.inf:
        raise ValueError("q must be finite: the radii norm is raised to the power q*gamma")
    if not mu.points:
        return FrostmanResult(0.0, 0.0, 0, 0)
    candidates = list(_dyadic_ball_candidates(mu.d))

    def disjoint(a, b):
        return math.dist(a[0], b[0]) > a[1] + b[1]

    families = [[c] for c in candidates]
    for a, b in itertools.combinations(candidates, 2):
        if disjoint(a, b):
            families.append([a, b])
    for _ in range(_RANDOM_FAMILIES):
        fam: list = []
        order = rng.permutation(len(candidates))
        for idx in order:
            c = candidates[idx]
            if all(disjoint(c, other) for other in fam):
                fam.append(c)
            if len(fam) == _MAX_FAMILY:
                break
        if len(fam) > 2:
            families.append(fam)

    hyp = 0.0
    radii_norms = _sample_norms(
        [WeightedSample.from_sequence(r for _, r in fam) for fam in families],
        LorentzExponents(alpha, q),
    )
    for fam, radii_norm in zip(families, radii_norms.tolist()):
        total = sum(bump_pairing(mu, center, r) for center, r in fam)
        denom = radii_norm ** (q * gamma)
        if denom > 0:
            hyp = max(hyp, abs(total) / denom)

    params = CapacityParams(alpha, q / alpha)
    boxes: dict = {}
    for g in range(0, _SET_DEPTH + 1):
        for p, w in zip(mu.points, mu.weights):
            boxes.setdefault((g, _box_of(p, g)), []).append((p, abs(w)))
    conc = 0.0
    for inside in boxes.values():
        mass = sum(w for _, w in inside)
        if mass == 0:
            continue
        cloud = PointCloud(tuple(p for p, _ in inside), mu.d)
        cap = nh_capacity_delta(cloud, params, 0.5, _CAPACITY_DEPTH)
        if cap > 0:
            conc = max(conc, mass / cap**gamma)
    return FrostmanResult(hyp, conc, len(families), len(boxes))
