"""Exact Lorentz quasi-norms for simple functions and finite sequences.

All norm inputs are finite plateau lists, so every integral in sight reduces
to a closed form and nothing here carries quadrature error.  Each object has
one kernel over row batches: the Lorentz norm (``_lorentz_norms``), the
dyadic-block sequence norm (``_block_norms``), the positional sum of two
samples (``_overlay_rows``), and the quasi-triangle and asymptotic-addition
checks (``_quasi_triangle_rows``, ``_pplus_rows``).  Ragged rows are padded
with the plateau (0, 0), which changes neither a norm nor a sum.  The
per-sample functions call the kernels with a batch of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "LorentzExponents",
    "WeightedSample",
    "distribution_function",
    "lorentz_norm",
    "lorentz_seq_norm",
    "dyadic_block_index",
    "dyadic_block_norm",
    "check_lornor_equivalence",
    "elementary_power_constant",
    "quasi_triangle_constants",
    "overlay_sum",
    "check_quasi_triangle",
    "PplusStatus",
    "PplusVerdict",
    "check_pplus",
]


@dataclass(frozen=True)
class LorentzExponents:
    """The pair (p, q) indexing a Lorentz quasi-norm; q = math.inf is the
    weak space L_{p,inf}."""

    p: float
    q: Optional[float] = None  # float > 0, math.inf included; defaults to p

    def __post_init__(self):
        if self.q is None:
            object.__setattr__(self, "q", self.p)
        if not self.p > 0:
            raise ValueError(f"p must be positive, got {self.p}")
        if not self.q > 0:
            raise ValueError(f"q must be positive, got {self.q}")


@dataclass(frozen=True)
class WeightedSample:
    """A simple function as (value, mass) plateaus.

    The sample represents sum_i value_i * chi_{E_i} with |E_i| = mass_i and
    the E_i disjoint.  For positional operations (sums of two samples) the
    plateaus are laid out consecutively on the half-line starting at
    ``origin``, in list order.  With all masses equal to 1 the sample is a
    finite sequence.
    """

    entries: tuple  # of (value >= 0, mass > 0) pairs
    origin: float = 0.0

    def __post_init__(self):
        ent = tuple((float(v), float(m)) for v, m in self.entries)
        object.__setattr__(self, "entries", ent)
        for v, m in ent:
            if v < 0:
                raise ValueError(f"negative plateau value {v}")
            if not m > 0:
                raise ValueError(f"plateau mass must be positive, got {m}")

    @classmethod
    def from_sequence(cls, values: Iterable[float]) -> "WeightedSample":
        return cls(tuple((abs(float(v)), 1.0) for v in values))

    @property
    def total_mass(self) -> float:
        return sum(m for _, m in self.entries)

    def scaled(self, c: float) -> "WeightedSample":
        if c < 0:
            raise ValueError("scaling constant must be nonnegative")
        return WeightedSample(tuple((c * v, m) for v, m in self.entries), self.origin)


def distribution_function(f: WeightedSample, t: float) -> float:
    """m_f(t): total mass where the plateau value is >= t (for t >= 0)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(sum(m for v, m in f.entries if v >= t))


def _pad_rows(flat: np.ndarray, lengths) -> np.ndarray:
    """Consecutive runs of ``flat`` of the given lengths, as rows padded with 0."""
    lengths = np.asarray(lengths)
    fill = np.arange(lengths.max(initial=0)) < lengths[:, None]
    rows = np.zeros(fill.shape + flat.shape[1:])
    rows[fill] = flat
    return rows


def _sample_rows(samples: Sequence[WeightedSample]):
    """(values, masses, origins) of the samples, as rows padded with the
    plateau (0, 0), which changes neither a norm nor a positional sum."""
    flat = np.array([pair for f in samples for pair in f.entries]).reshape(-1, 2)
    rows = _pad_rows(flat, [len(f.entries) for f in samples])
    return rows[..., 0], rows[..., 1], np.array([f.origin for f in samples], dtype=float)


def _check_rows(values: np.ndarray, masses: np.ndarray) -> None:
    """Padded plateau rows: values >= 0, and masses > 0 outside the (0, 0) padding."""
    if not np.all(values >= 0):
        raise ValueError("plateau values must be nonnegative")
    if not np.all((masses > 0) | ((masses == 0) & (values == 0))):
        raise ValueError("plateau masses must be positive")


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row summed left to right, one term at a time, whatever the batch
    width.  np.sum along a row adds pairwise in blocks set by the row width,
    so a padded row would round differently from the same row alone.  numpy
    adds pairwise only along the fast axis in memory, so the column sums of
    the transposed copy are sequential, and vectorised across the rows; a
    single row, whose transpose would have a fast axis of length 1, goes
    through np.cumsum, which is sequential by definition."""
    if len(terms) == 1:
        return np.cumsum(terms, axis=1)[:, -1]
    return np.ascontiguousarray(terms.T).sum(axis=0)


def _lorentz_norms(values: np.ndarray, masses, p: float, q: float) -> np.ndarray:
    """Closed-form L_{p,q} quasi-norms of simple functions: row i of the
    (rows, n) arrays holds the plateau values >= 0 and masses of one;
    ``masses`` None means unit masses (finite sequences).

    With a row sorted by descending value, the mass w_i of the first i
    plateaus is m_f on [v_{i+1}, v_i), so the norm is (sum_i w_i^{q/p}
    (v_i^q - v_{i+1}^q))^{1/q} with v_{n+1} = 0, or max_i w_i^{1/p} v_i for
    q = inf.  Ties need no merging (all members but the last add zero
    terms, and the last has the largest w), nor do zero values.  The masses
    are summed per row, so a row of huge masses costs the others no precision;
    unit masses sum to w_i = i exactly, so that row is shared.  The terms
    are summed left to right (``_row_sums``), so padding adds an exact +0.0
    and a row's norm does not depend on the rows beside it.
    """
    n = values.shape[1]
    if n == 0:
        return np.zeros(values.shape[0])
    if masses is None:
        v = -np.sort(-values, axis=1)
        w = np.arange(1.0, n + 1.0)
    else:
        sort = (np.arange(values.shape[0])[:, None], np.argsort(-values, axis=1))
        v = values[sort]
        w = np.cumsum(masses[sort], axis=1)
    if q == math.inf:
        return np.max(w ** (1.0 / p) * v, axis=1)
    vq = v**q
    gaps = vq.copy()  # v_i^q - v_{i+1}^q
    gaps[:, :-1] -= vq[:, 1:]
    gaps *= w ** (q / p)
    return _row_sums(gaps) ** (1.0 / q)


def _sample_norms(samples: Sequence[WeightedSample], e: LorentzExponents) -> np.ndarray:
    values, masses, _ = _sample_rows(samples)
    return _lorentz_norms(values, masses, e.p, e.q)


def lorentz_norm(f: WeightedSample, e: LorentzExponents) -> float:
    """Exact L_{p,q} quasi-norm of a simple function.

    For q < infinity this evaluates q * int (m_f(t) t^p)^{q/p} dt/t by
    summing the closed-form integral over each interval where m_f is
    constant; for q = inf it is the sup of m_f(t)^{1/p} t over the
    plateau values.

    In this normalization ||f||_{p,q}^q = q int t^{q-1} m_f(t)^{q/p} dt
    = (q/p) int (s^{1/p} f*(s))^q ds/s, Hunt's normalized quasi-norm, and
    it does not increase in q, with equality for indicators (Hunt 1966,
    On L(p,q) spaces).  Proof: put phi = m_f^{1/p}, which does not
    increase, and H(t) = q int_0^t s^{q-1} phi(s)^q ds, so H(inf) =
    ||f||_{p,q}^q.  For every t, (t phi(t))^q = q int_0^t s^{q-1} ds
    phi(t)^q <= H(t), which gives ||f||_{p,inf} <= ||f||_{p,q}.  For
    r > q, writing (t phi)^r = (t phi)^q (t phi)^{r-q} and bounding the
    second factor by H(t)^{(r-q)/q},
    ||f||_{p,r}^r <= (r/q) int H'(t) H(t)^{r/q-1} dt = H(inf)^{r/q},
    that is ||f||_{p,r} <= ||f||_{p,q}.
    """
    return float(_sample_norms([f], e)[0])


def lorentz_seq_norm(a: Sequence[float], e: LorentzExponents) -> float:
    """Lorentz sequence-space quasi-norm: the sample with unit masses on |a_j|."""
    return lorentz_norm(WeightedSample.from_sequence(a), e)


def dyadic_block_index(v: float) -> int:
    """The k with 2^{-k-1} <= v < 2^{-k} (exact for floats, via frexp)."""
    if not v > 0:
        raise ValueError(f"no dyadic block contains {v}")
    _, exp = math.frexp(v)  # v = mant * 2^exp, mant in [0.5, 1)
    return -exp


def _block_norms(values: np.ndarray, alpha: float, q: float) -> np.ndarray:
    """Block-aggregated norms of nonnegative sequences, one per row: the
    alpha-th powers are summed per dyadic range [2^{-k-1}, 2^{-k}) with one
    bincount on row * nb + k, and the block sums aggregated in l_q (max for
    q = inf), all raised to 1/(q*alpha) (1/alpha).  Padding 0s and
    empty blocks add 0: rows are summed left to right (``_row_sums``)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n_rows = values.shape[0]
    pos = values > 0
    if not pos.any():
        return np.zeros(n_rows)
    _, exps = np.frexp(values)
    k = -exps
    k_min = k[pos].min()
    nb = k[pos].max() - k_min + 1
    bins = np.arange(n_rows)[:, None] * nb + np.where(pos, k - k_min, 0)
    sums = np.bincount(
        bins.ravel(), weights=(values**alpha).ravel(), minlength=n_rows * nb
    ).reshape(n_rows, nb)
    if q == math.inf:
        return np.max(sums, axis=1) ** (1.0 / alpha)
    sums **= q
    return _row_sums(sums) ** (1.0 / (q * alpha))


def _block_row(a: Sequence[float]) -> np.ndarray:
    row = np.abs(np.asarray(list(a), dtype=float)).reshape(1, -1)
    if np.any(row == 0):
        raise ValueError("zero entries rejected: no dyadic block contains 0")
    return row


def dyadic_block_norm(a: Sequence[float], alpha: float, q: float) -> float:
    """Block-aggregated sequence norm of |a| (see ``_block_norms``)."""
    return float(_block_norms(_block_row(a), alpha, q)[0])


def _lornor_ratios(rows: np.ndarray, alpha: float, q: float) -> np.ndarray:
    """Per row, the dyadic-block norm over the l_{alpha, alpha*q} sequence norm."""
    return _block_norms(rows, alpha, q) / _lorentz_norms(rows, None, alpha, alpha * q)


def check_lornor_equivalence(a: Sequence[float], alpha: float, q: float) -> float:
    """Ratio of the dyadic-block norm to the l_{alpha, alpha*q} sequence norm."""
    row = _block_row(a)
    if row.size == 0:
        raise ValueError("empty sequence")
    return float(_lornor_ratios(row, alpha, q)[0])


def elementary_power_constant(r: float, alpha: float) -> float:
    """C with |a+b|^r <= (1+alpha)|a|^r + C|b|^r for all reals.

    For r <= 1 plain subadditivity of t^r gives C = 1 (any alpha >= 0).  For
    r > 1 convexity gives C = (1 - (1+alpha)^{-1/(r-1)})^{-(r-1)}.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if r <= 1:
        return 1.0
    if alpha == 0:
        raise ValueError("alpha must be positive when r > 1")
    return (1.0 - (1.0 + alpha) ** (-1.0 / (r - 1.0))) ** (-(r - 1.0))


def quasi_triangle_constants(e: LorentzExponents, eps: float):
    """(delta, f_coefficient, g_coefficient) for the quasi-triangle bound.

    The bound ||f+g|| <= A_delta ||f|| + C_delta ||g|| holds with
    A_delta = (1+delta)^{1+1/q} (1-delta)^{-1} and
    C_delta = C_{1/q,delta} * C_{q/p,delta}^{1/q} / delta,
    where C_{r,a} is elementary_power_constant.  delta starts at eps/3 and is
    halved until A_delta <= 1+eps, so the returned f-coefficient is at most
    1+eps.
    """
    if e.q == math.inf:
        raise ValueError("quasi-triangle check requires finite q")
    if eps <= 0:
        raise ValueError("eps must be positive")
    q, p = e.q, e.p
    delta = min(eps / 3.0, 0.5)
    while True:
        a_coeff = (1.0 + delta) ** (1.0 + 1.0 / q) / (1.0 - delta)
        if a_coeff <= 1.0 + eps:
            break
        delta /= 2.0
    c_coeff = (
        elementary_power_constant(1.0 / q, delta)
        * elementary_power_constant(q / p, delta) ** (1.0 / q)
        / delta
    )
    return delta, a_coeff, c_coeff


def _overlay_rows(f_vals, f_masses, f_origins, g_vals, g_masses, g_origins):
    """Pointwise sums of positional step functions, one pair per row.

    Row i of f lays its plateaus out from ``f_origins[i]`` in column order,
    with edges the running sum of [origin, *masses] along the row; so does
    g.  The two edge lists are sorted together per row, and the cell between
    sorted edges k and k+1 lies in the plateau of f after the f-edges among
    the first k+1, and likewise for g: a cumulative count, O(n log n) per
    row with the sort.  Padding plateaus (0, 0) repeat the row's last edge,
    so they add only cells of width 0.  Cells of value 0 or width 0 are
    dropped and the rest moved to the front of the row, in order, by a
    stable argsort; the rows come back padded with (0, 0), and each origin
    is its row's first edge.
    """
    f_edges = np.cumsum(np.column_stack((f_origins, f_masses)), axis=1)
    g_edges = np.cumsum(np.column_stack((g_origins, g_masses)), axis=1)
    edges = np.concatenate((f_edges, g_edges), axis=1)
    rows = np.arange(len(edges))[:, None]
    merged = np.argsort(edges, axis=1)
    cuts = edges[rows, merged]
    f_count = np.cumsum(merged < f_edges.shape[1], axis=1)[:, :-1]
    g_count = np.arange(1, cuts.shape[1]) - f_count

    def plateau_at(values, count):
        padded = np.zeros((len(values), values.shape[1] + 2))  # the 0 outside the plateaus
        padded[:, 1:-1] = values
        return padded[rows, count]

    vals = plateau_at(f_vals, f_count) + plateau_at(g_vals, g_count)
    widths = cuts[:, 1:] - cuts[:, :-1]
    keep = (vals > 0) & (widths > 0)
    order = np.argsort(~keep, axis=1, kind="stable")[:, : keep.sum(axis=1).max(initial=0)]
    vals, widths = (np.where(keep, a, 0.0)[rows, order] for a in (vals, widths))
    return vals, widths, cuts[:, 0]


def overlay_sum(f: WeightedSample, g: WeightedSample) -> WeightedSample:
    """Pointwise sum of the two positional step functions.

    Each sample is read as a step function on the half-line (plateaus laid
    out from its origin in list order); the sum is computed on the common
    refinement of the two plateau partitions, whose cells of width 0 (edges
    the samples share) are dropped.  A batch of one of ``_overlay_rows``.
    """
    vals, widths, origins = _overlay_rows(*_sample_rows([f]), *_sample_rows([g]))
    keep = widths[0] > 0
    entries = zip(vals[0][keep].tolist(), widths[0][keep].tolist())
    return WeightedSample(tuple(entries), origin=float(origins[0]))


_TRIANGLE_RTOL = 1e-12


def _quasi_triangle_rows(f, g, e: LorentzExponents, eps: float):
    """Arrays (lhs, rhs) with lhs = ||f+g|| and rhs = (1+eps)||f|| + C_eps ||g||,
    one per row of the padded (values, masses, origins) rows f and g."""
    _, _, c_coeff = quasi_triangle_constants(e, eps)
    for values, masses, _ in (f, g):
        _check_rows(values, masses)
    s_vals, s_masses, _ = _overlay_rows(*f, *g)
    lhs = _lorentz_norms(s_vals, s_masses, e.p, e.q)
    norm_f, norm_g = (_lorentz_norms(values, masses, e.p, e.q) for values, masses, _ in (f, g))
    return lhs, (1.0 + eps) * norm_f + c_coeff * norm_g


def check_quasi_triangle(f: WeightedSample, g: WeightedSample, e: LorentzExponents, eps: float):
    """(lhs, rhs) with lhs = ||f+g|| and rhs = (1+eps)||f|| + C_eps ||g||.

    Raises AssertionError if the proven bound is violated (it never should
    be; the randomized corpora in the test-suite search for counterexamples).
    """
    lhs, rhs = (float(x[0]) for x in _quasi_triangle_rows(_sample_rows([f]), _sample_rows([g]), e, eps))
    if lhs > rhs * (1.0 + _TRIANGLE_RTOL):
        _, a_coeff, c_coeff = quasi_triangle_constants(e, eps)
        raise AssertionError(
            f"quasi-triangle violation: lhs={lhs!r} rhs={rhs!r} (A={a_coeff}, C={c_coeff})"
        )
    return lhs, rhs


class PplusStatus(enum.Enum):
    OK = "ok"
    VIOLATION = "violation"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class PplusVerdict:
    status: PplusStatus
    limsup_q: float
    bound: float
    detail: str = ""


_PPLUS_TOL = 1e-6
_PPLUS_TAIL_FRACTION = 0.25
_PPLUS_PRECONDITION_RTOL = 5e-2


def _pplus_rows(f, gs, a_limits: np.ndarray, e: LorentzExponents, p1: float):
    """Batch form of ``check_pplus``: instance i is row i of the padded
    (values, masses, origins) rows f, the sequence g_1..g_n in row i of the
    (rows, n, width) arrays of gs (origins (rows, n)), and A = a_limits[i].

    Returns the arrays (status, limsup_q, bound, detail): PplusStatus
    members, NaN for the NOT_APPLICABLE instances, and their reasons.
    """
    if e.q == math.inf:
        raise ValueError("check requires finite q")
    if p1 <= e.p:
        raise ValueError("p1 must exceed p")
    g_vals, g_masses, g_origins = gs
    rows, n, width = g_vals.shape
    if n == 0:
        raise ValueError("empty sequence of perturbations")
    for values, masses, _ in (f, gs):
        _check_rows(values, masses)
    tail_start = max(0, n - max(1, int(math.ceil(_PPLUS_TAIL_FRACTION * n))))
    tail = n - tail_start
    g_tail = tuple(a[:, tail_start:].reshape((rows * tail,) + a.shape[2:]) for a in gs)

    g_pq_tail = _lorentz_norms(g_tail[0], g_tail[1], e.p, e.q).reshape(rows, tail)
    ref = np.maximum(np.abs(a_limits), 1e-30)[:, None]
    off = np.abs(g_pq_tail - a_limits[:, None]) > _PPLUS_PRECONDITION_RTOL * ref + 1e-12
    g_p1 = _lorentz_norms(
        g_vals.reshape(rows * n, width), g_masses.reshape(rows * n, width), p1, p1
    ).reshape(rows, n)
    head_scale = g_p1[:, : max(1, n // 4)].max(axis=1)
    stalled = (head_scale > 0) & (g_p1[:, tail_start:].min(axis=1) > 0.25 * head_scale)

    q = e.q
    f_tail = (np.repeat(a, tail, axis=0) for a in f)
    s_vals, s_masses, _ = _overlay_rows(*f_tail, *g_tail)
    limsup_q = np.max(_lorentz_norms(s_vals, s_masses, e.p, q).reshape(rows, tail) ** q, axis=1)
    bound = _lorentz_norms(f[0], f[1], e.p, q) ** q + a_limits**q + _PPLUS_TOL
    status = np.full(rows, PplusStatus.OK, dtype=object)
    status[~(limsup_q <= bound)] = PplusStatus.VIOLATION
    detail = np.full(rows, "", dtype=object)
    for i in np.flatnonzero(off.any(axis=1) | stalled):
        status[i], limsup_q[i], bound[i] = PplusStatus.NOT_APPLICABLE, math.nan, math.nan
        detail[i] = (
            f"||g_j||_(p,q) = {float(g_pq_tail[i, off[i].argmax()])} not near A = "
            f"{float(a_limits[i])} in the tail"
            if off[i].any()
            else "||g_j||_(p1) does not decay along the sequence"
        )
    return status, limsup_q, bound, detail


def check_pplus(
    f: WeightedSample, gs: Sequence[WeightedSample], e: LorentzExponents, p1: float, a_limit: float
) -> PplusVerdict:
    """Check limsup_j ||f + g_j||^q <= ||f||^q + A^q + 1e-6.

    The limsup is approximated by the max over the trailing quarter of the
    sequence.  Preconditions are checked numerically, and failures yield
    NOT_APPLICABLE rather than a verdict: ||g_j||_{p,q} must lie within
    5e-2 * A + 1e-12 of A throughout the tail, and ||g_j||_{p1} must decay
    (the tail minimum at most a quarter of the head maximum).  A batch of
    one of ``_pplus_rows``.
    """
    g_rows = tuple(a.reshape((1, len(gs)) + a.shape[1:]) for a in _sample_rows(gs))
    status, limsup_q, bound, detail = _pplus_rows(
        _sample_rows([f]), g_rows, np.array([a_limit], dtype=float), e, p1
    )
    return PplusVerdict(status[0], float(limsup_q[0]), float(bound[0]), detail[0])
