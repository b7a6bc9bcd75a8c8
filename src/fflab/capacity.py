"""Covering sums, dyadic capacities and their property verifiers.

The capacity of a point cloud is computed as a certified optimum over
coverings drawn from the dyadic-box lattice.  Because all boxes of one
generation share a diameter, the covering cost depends only on the vector of
per-generation box counts, so a Pareto-frontier dynamic program over the
occupied dyadic tree is exact for every monotone block aggregator, including
the concave regime q < 1.  The DP and criterion 10's exhaustive search share
one count-vector scorer, ``covering_sums``, exact to the last bit."""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .checks import CheckResult
from .lorentz import LorentzExponents, WeightedSample, _row_sums, _sample_norms, dyadic_block_index

__all__ = [
    "ResourceLimitError",
    "DyadicCovering",
    "CapacityParams",
    "GaugeFunction",
    "PointCloud",
    "nh_covering_sum",
    "covering_sums",
    "nh_capacity_delta",
    "enumerate_antichain_coverings",
    "HlpItem",
    "HlpInstance",
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
    """A multiset of covering-set diameters: the order of ``diameters``
    carries no meaning, and ``nh_covering_sum`` does not read it."""

    diameters: tuple

    def __post_init__(self):
        object.__setattr__(self, "diameters", tuple(float(t) for t in self.diameters))
        for t in self.diameters:
            if not t > 0:
                raise ValueError("zero or negative diameter rejected")


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
    """Block-aggregated covering sum Sigma_k phi(Sigma_{diam in Delta_k} diam^alpha).

    The diameters are taken largest first, so each block adds its terms in
    descending order and the blocks are added coarse to fine, in ascending
    ``dyadic_block_index`` as the DP adds its generations: the sum is a
    function of the multiset, to the last bit.
    """
    if not cov.diameters:
        return 0.0
    block_sums: dict = {}
    for t in sorted(cov.diameters, reverse=True):
        k = dyadic_block_index(t)
        block_sums[k] = block_sums.get(k, 0.0) + t**params.alpha
    if params.q == math.inf:
        return max(block_sums.values())
    return sum(params.block_gauge(s) for s in block_sums.values())


def covering_sums(keys: Tuple[np.ndarray, np.ndarray], params: CapacityParams) -> np.ndarray:
    """``nh_covering_sum`` of the covering behind each count vector, to the
    last bit.  ``keys`` is ``(diameters, counts)``: column g of ``counts``
    counts the sets of diameter ``diameters[g]``; the diameters descend,
    each in its own dyadic block as the generations 2^-g sqrt(d) do in
    every d.  Each (column, count) pair is scored once by the left-to-right
    addition of t**alpha and the block gauge of ``nh_covering_sum``, and
    the scores are added coarse to fine (``_row_sums``; max for q = inf)."""
    diameters, counts = keys
    sup = params.q == math.inf
    table = np.zeros((len(diameters), int(counts.max(initial=0)) + 1))
    for g, t in enumerate(diameters.tolist()):
        term, block = t**params.alpha, 0.0
        for c in range(1, table.shape[1]):
            block += term
            table[g, c] = block if sup else params.block_gauge(block)
    # gathered with one row per column, so _row_sums sums it in place
    terms = table[np.arange(len(diameters))[:, None], counts.T]
    return terms.max(axis=0) if sup else _row_sums(terms.T)


# ---------------------------------------------------------------------------
# capacity at scale delta: exact optimum over dyadic-box coverings


def _box_of(point, g: int):
    scale = 2**g
    return tuple(min(int(c * scale), scale - 1) for c in point)


# Rows per AND of bitsets.  For n distinct rows of n_gen columns and largest
# count c, _prune holds n_gen * (c + 1) * ceil(n/8) bytes of table plus
# _PRUNE_BLOCK * ceil(n/8) bytes per AND.
_PRUNE_BLOCK = 256


def _prune(rows: np.ndarray) -> np.ndarray:
    """Pareto-minimal rows of an (n, n_gen) array of non-negative int64
    counts, componentwise order, returned in (sum, columns) order.

    The rows are sorted by (sum, columns) and duplicates dropped, so a row
    can only be dominated by a row of strictly smaller sum, an earlier one.
    For column j and count v, ``tables[j][v]`` is the bitset
    (``np.packbits``, bit i for sorted row i) of the rows whose column j is
    <= v.  The AND of the n_gen bitsets a row's counts select holds the
    rows <= it: the row itself and its dominators.  So a row is dominated
    iff the AND keeps a bit other than its own; by transitivity, being
    dominated by any distinct row is the same as by a kept one.  Each block
    of _PRUNE_BLOCK rows ANDs only the bytes up to the block's end, which
    is exact: every later bit is a row sorted after the block, which
    dominates none of it, or zero padding.  Each column's table comes from
    one (c + 1, n) bool temporary; the rest is bounded at _PRUNE_BLOCK.
    """
    sums = rows.sum(axis=1)
    rows = rows[np.lexsort((*rows.T[::-1], sums))]
    rows = rows[np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))]
    levels = np.arange(rows.max(initial=0) + 1)[:, None]
    tables = [np.packbits(col <= levels, axis=1) for col in rows.T]
    dominated = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), _PRUNE_BLOCK):
        block = rows[start:start + _PRUNE_BLOCK]
        width = (start + len(block) + 7) // 8
        below = tables[0][block[:, 0], :width]
        for table, values in zip(tables[1:], block.T[1:]):
            below &= table[values, :width]
        own = np.arange(start, start + len(block))
        below[np.arange(len(block)), own >> 3] ^= (0x80 >> (own & 7)).astype(np.uint8)
        dominated[start:start + len(block)] = below.any(axis=1)
    return rows[~dominated]


def _groups(points, g: int):
    """The points grouped by their box at generation g, in point order, one
    tuple per box."""
    boxes: dict = {}
    for p in points:
        boxes.setdefault(_box_of(p, g), []).append(p)
    return map(tuple, boxes.values())


# Rows of every Minkowski sum one nh_capacity_delta call forms, counted
# before each sum is allocated.  At seeds 0-9 the worst call of c10-c12
# forms 16 689 rows (c11, seed 2): the budget leaves about 12x headroom.
_FRONTIER_BUDGET = 200_000


def _coarsest_generation(delta: float, depth: int) -> int:
    """ceil(log2(1/delta)), at least 0: the coarsest generation of boxes of
    diameter below delta.  Raises ValueError unless delta > 0 and depth
    reaches it."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    g_min = max(0, math.ceil(math.log2(1.0 / delta)))
    if depth < g_min:
        raise ValueError(f"depth {depth} below the coarsest generation {g_min}")
    return g_min


def nh_capacity_delta(
    cloud: PointCloud, params: CapacityParams, delta: float, depth: int, memo: Optional[dict] = None
) -> float:
    """Exact infimum of nh_covering_sum over dyadic-box coverings, in every d.

    Boxes are drawn from generations ceil(log2(1/delta))..depth.  The value
    upper-bounds the unrestricted capacity.

    A frontier holds the Pareto-minimal per-generation box counts of the
    coverings of some points, one column per generation g_min..depth.  A
    box's frontier is its own row plus the pruned Minkowski sum of its
    kids' frontiers; the cloud's is that sum over its boxes at g_min, its
    rows scored by ``covering_sums``.

    A frontier depends on the points, g_min and depth, never on ``params``.
    ``memo``, a dict the caller owns, keeps the frontier of the boxes of
    generation g that hold a tuple of points under ``(points, g, g_min,
    depth)``, read-only, with the Minkowski-sum rows its cold computation
    formed.  A later call with the same dict, for any params, delta or
    sub-cloud, reuses each frontier it finds there and counts its stored
    rows against _FRONTIER_BUDGET, so a call raises ResourceLimitError
    exactly when a call without the memo would.  The frontiers live as long
    as the dict; without one, a call keeps none.
    """
    g_min = _coarsest_generation(delta, depth)
    if depth > 16:
        raise ResourceLimitError(f"depth {depth} exceeds the desk-scale limit 16")
    if not cloud.points:
        return 0.0
    n_gen, formed = depth - g_min + 1, 0

    def count(rows: int) -> None:
        nonlocal formed
        formed += rows
        if formed > _FRONTIER_BUDGET:
            raise ResourceLimitError(
                f"covering search would form {formed} Minkowski-sum rows, over the budget "
                f"of {_FRONTIER_BUDGET}, at depth {depth}; reduce depth"
            )

    def merge(acc: np.ndarray, front: np.ndarray) -> np.ndarray:
        count(len(acc) * len(front))
        return _prune((acc[:, None, :] + front[None, :, :]).reshape(-1, n_gen))

    def frontier(points: tuple, g: int) -> np.ndarray:
        """Frontier of the boxes of generation g that hold ``points``."""
        key = (points, g, g_min, depth)
        if memo is not None and key in memo:
            front, rows = memo[key]
            count(rows)
            return front
        before = formed
        take = np.zeros((1, n_gen), dtype=np.int64)
        take[0, g - g_min] = 1
        # every row of a kids' sum covers the box with deeper boxes only,
        # so taking the box itself is incomparable with all of them
        fronts = (take if g == depth else np.vstack((frontier(box, g + 1), take)) for box in _groups(points, g))
        front = functools.reduce(merge, fronts)
        if memo is not None:
            front.flags.writeable = False
            memo[key] = front, formed - before
        return front

    diameters = 2.0 ** -np.arange(g_min, depth + 1) * math.sqrt(cloud.d)
    return float(covering_sums((diameters, frontier(cloud.points, g_min)), params).min())


def enumerate_antichain_coverings(cloud: PointCloud, delta: float, depth: int):
    """Yield the diameters of every dyadic antichain covering, box by box.

    Exhaustive take-or-refine enumeration over the occupied tree, repeats
    included: the tests' oracle for nh_capacity_delta and covering_keys.
    Each covering lists its diameters in the order its boxes are visited;
    ``nh_covering_sum`` reads them as a multiset.
    """
    g_min = _coarsest_generation(delta, depth)
    if not cloud.points:
        yield ()
        return

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


def check_hlp_item(item: HlpItem, inst: HlpInstance) -> CheckResult:
    """Evaluate one capacity property on a generated instance, as a record
    named after the item.

    SUBADDITIVITY and SEPARATED_ADDITIVITY compare capacities of point
    clouds at matched depth, with the absolute slack 1e-12 (1e-9 on the
    additive gauge's |lhs - rhs|).  Q_MONOTONE, ALPHA_JUMP, GAUGE_LOWER and
    GAUGE_UPPER evaluate the corresponding inequality chains directly on a
    per-generation count profile {M_k}, with the relative slack 1e-12.
    """
    name, chain_rtol = item.value, 1.0 + 1e-12
    if item is HlpItem.SUBADDITIVITY:
        union, memo = inst.cloud_a.union(inst.cloud_b), {}  # the parts' one-sided boxes are the union's
        lhs = nh_capacity_delta(union, inst.params, inst.delta, inst.depth, memo)
        rhs = nh_capacity_delta(inst.cloud_a, inst.params, inst.delta, inst.depth, memo) + nh_capacity_delta(
            inst.cloud_b, inst.params, inst.delta, inst.depth, memo
        )
        # at a matched finite depth the convex regime only admits the
        # elementary merge factor: refining one covering out of the way,
        # which restores plain subadditivity, needs unbounded depth
        return CheckResult(name, lhs, _merge_factor(inst.params) * rhs + 1e-12)

    if item is HlpItem.SEPARATED_ADDITIVITY:
        gap = min(
            math.dist(a, b) for a in inst.cloud_a.points for b in inst.cloud_b.points
        )
        if gap <= inst.delta:
            raise ValueError(f"clouds {gap} apart, not separated by more than delta = {inst.delta}")
        union, memo = inst.cloud_a.union(inst.cloud_b), {}
        lhs = nh_capacity_delta(union, inst.params, inst.delta, inst.depth, memo)
        parts = [
            nh_capacity_delta(c, inst.params, inst.delta, inst.depth, memo)
            for c in (inst.cloud_a, inst.cloud_b)
        ]
        rhs = parts[0] + parts[1]
        if inst.params.phi is None and inst.params.q == 1:
            # for the additive gauge the separated optimum splits exactly
            return CheckResult(name, abs(lhs - rhs), 1e-9)
        # a non-additive gauge merges the parts' block sums, so only
        # two-sided bounds are available at fixed depth: the larger excess
        upper, lower = _merge_factor(inst.params) * rhs + 1e-12, np.maximum(*parts) - 1e-12
        return CheckResult(name, np.maximum(lhs - upper, lower - lhs), 0.0)

    if item is HlpItem.Q_MONOTONE:
        if not inst.q2 >= inst.q:
            raise ValueError(f"q_monotone compares q2 >= q, got q = {inst.q}, q2 = {inst.q2}")
        counts, diams = _profile_terms(inst.profile)
        s = counts * diams**inst.alpha
        s = s[s > 0]

        def outer(qv):
            if qv == math.inf:
                return float(np.max(s)) ** (1.0 / inst.alpha)
            return float(np.sum(s**qv)) ** (1.0 / (inst.alpha * qv))

        return CheckResult(name, outer(inst.q2), outer(inst.q) * chain_rtol)

    if item is HlpItem.ALPHA_JUMP:
        counts, diams = _profile_terms(inst.profile)
        sup1 = float(np.max(counts * diams**inst.alpha))
        tail2 = counts * diams**inst.alpha2
        # the alpha2-terms must decay geometrically once the alpha-sup is bounded
        bound = sup1 * 2.0 ** (-(len(counts)) * (inst.alpha2 - inst.alpha))
        return CheckResult(name, tail2[-1], bound * chain_rtol)

    counts, diams = _profile_terms(inst.profile)
    f_vals = np.array([inst.gauge(t) for t in diams])
    if item is HlpItem.GAUGE_LOWER:
        qv = inst.q
        if not 0 < qv < 1:
            raise ValueError("gauge_lower chain requires 0 < q < 1")
        lhs = float(np.sum(counts**qv * diams ** (qv * inst.alpha)))
        fac1 = float(np.sum(counts * f_vals)) ** qv
        fac2 = float(np.sum((diams**inst.alpha / f_vals) ** (qv / (1.0 - qv)))) ** (1.0 - qv)
        return CheckResult(name, lhs, fac1 * fac2 * chain_rtol)

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
        return CheckResult(name, lhs, rhs * chain_rtol)

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
    pairings = {c: bump_pairing(mu, *c) for c in candidates}
    for fam, radii_norm in zip(families, radii_norms.tolist()):
        total = sum(pairings[c] for c in fam)
        denom = radii_norm ** (q * gamma)
        if denom > 0:
            hyp = max(hyp, abs(total) / denom)

    params = CapacityParams(alpha, q / alpha)
    boxes: dict = {}
    for g in range(0, _SET_DEPTH + 1):
        for p, w in zip(mu.points, mu.weights):
            boxes.setdefault((g, _box_of(p, g)), []).append((p, abs(w)))
    conc, memo = 0.0, {}  # a box's cloud is made of its kid boxes' clouds
    for inside in boxes.values():
        mass = sum(w for _, w in inside)
        if mass == 0:
            continue
        cloud = PointCloud(tuple(p for p, _ in inside), mu.d)
        cap = nh_capacity_delta(cloud, params, 0.5, _CAPACITY_DEPTH, memo)
        if cap > 0:
            conc = max(conc, mass / cap**gamma)
    return FrostmanResult(hyp, conc, len(families), len(boxes))
