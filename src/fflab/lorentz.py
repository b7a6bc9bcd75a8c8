"""Exact Lorentz quasi-norms for simple functions and finite sequences.

All norm inputs are finite plateau lists, so every integral in sight reduces
to a closed form and nothing here carries quadrature error.  The dyadic-block
sequence norm and its comparison against the Lorentz sequence norm live here
as well, together with runnable checks for the quasi-triangle inequality and
the asymptotic addition bound used by the spectral experiments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "INFINITY",
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


class _InfiniteExponent:
    """Distinguished 'second exponent is infinite' marker (not a float)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _InfiniteExponent()


def is_infinite(q) -> bool:
    return q is INFINITY


@dataclass(frozen=True)
class LorentzExponents:
    """The pair (p, q) indexing a Lorentz quasi-norm; q may be INFINITY."""

    p: float
    q: object = None  # float > 0 or INFINITY; defaults to p

    def __post_init__(self):
        if self.q is None:
            object.__setattr__(self, "q", self.p)
        if not self.p > 0:
            raise ValueError(f"p must be positive, got {self.p}")
        if not (is_infinite(self.q) or self.q > 0):
            raise ValueError(f"q must be positive or INFINITY, got {self.q}")


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

    def values_masses(self):
        if not self.entries:
            return np.empty(0), np.empty(0)
        a = np.asarray(self.entries)
        return a[:, 0], a[:, 1]


def distribution_function(f: WeightedSample, t: float) -> float:
    """m_f(t): total mass where the plateau value is >= t (for t >= 0)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(sum(m for v, m in f.entries if v >= t))


def _norm_from_arrays(values: np.ndarray, masses: np.ndarray, p: float, q) -> float:
    """Closed-form Lorentz quasi-norm of the simple function given by arrays."""
    keep = values > 0
    values, masses = values[keep], masses[keep]
    if values.size == 0:
        return 0.0
    # merge equal values so the plateau boundaries are distinct, descending
    uniq, inverse = np.unique(-values, return_inverse=True)
    v = -uniq
    m = np.zeros_like(v)
    np.add.at(m, inverse, masses)
    w = np.cumsum(m)
    if is_infinite(q):
        return float(np.max(w ** (1.0 / p) * v))
    v_next = np.append(v[1:], 0.0)
    terms = w ** (q / p) * (v**q - v_next**q)
    return float(np.sum(terms) ** (1.0 / q))


def lorentz_norm(f: WeightedSample, e: LorentzExponents) -> float:
    """Exact L_{p,q} quasi-norm of a simple function.

    For q < infinity this evaluates q * int (m_f(t) t^p)^{q/p} dt/t by
    summing the closed-form integral over each interval where m_f is
    constant; for q = INFINITY it is the sup of m_f(t)^{1/p} t over the
    plateau values.
    """
    values, masses = f.values_masses()
    return _norm_from_arrays(values, masses, e.p, e.q)


def lorentz_seq_norm(a: Sequence[float], e: LorentzExponents) -> float:
    """Lorentz sequence-space quasi-norm: the sample with unit masses on |a_j|."""
    arr = np.abs(np.asarray(list(a), dtype=float))
    return _norm_from_arrays(arr, np.ones_like(arr), e.p, e.q)


def dyadic_block_index(v: float) -> int:
    """The k with 2^{-k-1} <= v < 2^{-k} (exact for floats, via frexp)."""
    if not v > 0:
        raise ValueError(f"no dyadic block contains {v}")
    _, exp = math.frexp(v)  # v = mant * 2^exp, mant in [0.5, 1)
    return -exp


def _block_indices(values: np.ndarray) -> np.ndarray:
    _, exps = np.frexp(values)
    return -exps


def dyadic_block_norm(a: Sequence[float], alpha: float, q) -> float:
    """Block-aggregated sequence norm.

    Groups |a_j| by the dyadic range [2^{-k-1}, 2^{-k}), takes the alpha-power
    sum per block, and aggregates blocks in l_q, all raised to 1/(q*alpha).
    For q = INFINITY the block sums are aggregated by sup (power 1/alpha).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    arr = np.abs(np.asarray(list(a), dtype=float))
    if arr.size == 0:
        return 0.0
    if np.any(arr == 0):
        raise ValueError("zero entries rejected: no dyadic block contains 0")
    ks = _block_indices(arr)
    k_min = ks.min()
    sums = np.zeros(ks.max() - k_min + 1)
    np.add.at(sums, ks - k_min, arr**alpha)
    sums = sums[sums > 0]
    if is_infinite(q):
        return float(np.max(sums) ** (1.0 / alpha))
    return float(np.sum(sums**q) ** (1.0 / (q * alpha)))


def check_lornor_equivalence(a: Sequence[float], alpha: float, q) -> float:
    """Ratio of the dyadic-block norm to the l_{alpha, alpha*q} sequence norm."""
    arr = list(a)
    if not arr:
        raise ValueError("empty sequence")
    block = dyadic_block_norm(arr, alpha, q)
    seq_q = INFINITY if is_infinite(q) else alpha * q
    seq = lorentz_seq_norm(arr, LorentzExponents(alpha, seq_q))
    return block / seq


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
    if is_infinite(e.q):
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


def _breakpoints(f: WeightedSample):
    xs = [f.origin]
    for _, m in f.entries:
        xs.append(xs[-1] + m)
    return xs


def _value_at(f: WeightedSample, x: float) -> float:
    pos = f.origin
    for v, m in f.entries:
        if pos <= x < pos + m:
            return v
        pos += m
    return 0.0


def overlay_sum(f: WeightedSample, g: WeightedSample) -> WeightedSample:
    """Pointwise sum of the two positional step functions.

    Each sample is read as a step function on the half-line (plateaus laid
    out from its origin in list order); the sum is computed on the common
    refinement of the two plateau partitions.
    """
    cuts = sorted(set(_breakpoints(f)) | set(_breakpoints(g)))
    entries = []
    for left, right in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (left + right)
        val = _value_at(f, mid) + _value_at(g, mid)
        if val > 0:
            entries.append((val, right - left))
    return WeightedSample(tuple(entries), origin=cuts[0] if cuts else 0.0)


def check_quasi_triangle(f: WeightedSample, g: WeightedSample, e: LorentzExponents, eps: float):
    """(lhs, rhs) with lhs = ||f+g|| and rhs = (1+eps)||f|| + C_eps ||g||.

    Raises AssertionError if the proven bound is violated (it never should
    be; the randomized corpora in the test-suite search for counterexamples).
    """
    _, a_coeff, c_coeff = quasi_triangle_constants(e, eps)
    lhs = lorentz_norm(overlay_sum(f, g), e)
    rhs = (1.0 + eps) * lorentz_norm(f, e) + c_coeff * lorentz_norm(g, e)
    if lhs > rhs * (1.0 + 1e-12):
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


def check_pplus(
    f: WeightedSample,
    gs: Sequence[WeightedSample],
    e: LorentzExponents,
    p1: float,
    a_limit: float,
    tol: float = 1e-6,
    tail_fraction: float = 0.25,
    precondition_rtol: float = 5e-2,
) -> PplusVerdict:
    """Check limsup_j ||f + g_j||^q <= ||f||^q + A^q + tol.

    The limsup is approximated by the max over the trailing ``tail_fraction``
    of the sequence.  Preconditions (||g_j||_{p,q} -> A in the tail and
    ||g_j||_{p1} -> 0) are checked numerically; failures yield
    NOT_APPLICABLE rather than a verdict.
    """
    if is_infinite(e.q):
        raise ValueError("check requires finite q")
    if p1 <= e.p:
        raise ValueError("p1 must exceed p")
    if not gs:
        raise ValueError("empty sequence of perturbations")
    n = len(gs)
    tail_start = max(0, n - max(1, int(math.ceil(tail_fraction * n))))
    tail = list(gs)[tail_start:]
    e1 = LorentzExponents(p1, p1)

    g_pq_tail = [lorentz_norm(g, e) for g in tail]
    for val in g_pq_tail:
        ref = max(abs(a_limit), 1e-30)
        if abs(val - a_limit) > precondition_rtol * ref + 1e-12:
            return PplusVerdict(
                PplusStatus.NOT_APPLICABLE, math.nan, math.nan,
                f"||g_j||_(p,q) = {val} not near A = {a_limit} in the tail",
            )
    g_p1_all = [lorentz_norm(g, e1) for g in gs]
    head_scale = max(g_p1_all[: max(1, n // 4)]) if any(g_p1_all) else 0.0
    if head_scale > 0 and min(g_p1_all[tail_start:]) > 0.25 * head_scale:
        return PplusVerdict(
            PplusStatus.NOT_APPLICABLE, math.nan, math.nan,
            "||g_j||_(p1) does not decay along the sequence",
        )

    q = e.q
    limsup_q = max(lorentz_norm(overlay_sum(f, g), e) ** q for g in tail)
    bound = lorentz_norm(f, e) ** q + a_limit**q + tol
    status = PplusStatus.OK if limsup_q <= bound else PplusStatus.VIOLATION
    return PplusVerdict(status, limsup_q, bound)
