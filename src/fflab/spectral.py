"""Fourier analysis of cube measures on truncated frequency grids.

Transforms of cube measures are evaluated analytically as products of
modulated sinc factors, so there is no aliasing anywhere; domain truncation
is the only approximation and it carries an explicit sinc-decay tail bound.
The sums of phases over shifts or cube corners are exact split-index GEMMs,
in O(M sqrt(N)) memory in d = 1 and O(M N) in d = 2 (see _split_phases);
each shift's phases are products of four factors of about N^(1/4) entries
each, and every phase is one cos/sin pair rather than a complex exponential.
The smooth bump profile's transform is closed-form too, a Bessel quotient;
in d = 1 it is elementary, so scipy.special is imported only for d = 2.
Callers that repeat a transform on one grid (the draws of a moment batch,
the stages of criterion 9) write its temporaries into one reusable
``lorentz._Work`` set, so they map no new memory per draw or stage.
"""

from __future__ import annotations

import enum
import math
import struct
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .capacity import ResourceLimitError
from .lorentz import LorentzExponents, _lorentz_norms, _Work
from .measures import CubeMeasure, ShiftSample

__all__ = [
    "TruncationWarning",
    "FreqGrid",
    "SpectrumField",
    "cube_measure_transform",
    "expected_transform",
    "random_transform",
    "centred_moments",
    "np_moment_estimate",
    "np_variance_oracle",
    "sinc_tail_bound",
    "ooo_deviation",
    "BumpFamily",
    "smooth_bump_profile",
    "smooth_bump_transform",
    "bump_sum_norms",
    "lorentz_spectrum_norm",
    "SeriesVerdict",
    "resl_series",
    "write_spectrum",
    "read_spectrum",
]


class TruncationWarning(UserWarning):
    """The frequency window is small relative to 1/r; carries a tail bound."""


# Cells N^d of one grid, checked before any array is made: 4x criterion 9's 2^18.  The norm-growth
# depth-3 measure's transform and norm on 2^20 cells peak at 96 MB RSS in 0.43 s (2-core host).
_GRID_CELL_BUDGET = 2**20


@dataclass(frozen=True)
class FreqGrid:
    """Regular frequency grid: per axis the points -X + j*2X/N, j = 0..N-1."""

    d: int
    half_extent: float
    samples: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"frequency grids are implemented for d = 1, 2, not d = {self.d}")
        if self.samples < 2 or self.samples % 2 != 0:
            raise ValueError(f"samples per axis must be even and at least 2, got {self.samples}")
        if not self.half_extent > 0:
            raise ValueError("half_extent must be positive")
        if self.samples**self.d > _GRID_CELL_BUDGET:
            raise ResourceLimitError(f"a grid of {self.samples}^{self.d} cells is over the budget of {_GRID_CELL_BUDGET}")

    def axis(self) -> np.ndarray:
        n, x = self.samples, self.half_extent
        return -x + (2.0 * x / n) * np.arange(n)

    @property
    def cell_volume(self) -> float:
        return (2.0 * self.half_extent / self.samples) ** self.d

    @property
    def zero_index(self) -> tuple:
        return tuple([self.samples // 2] * self.d)


@dataclass(frozen=True)
class SpectrumField:
    """Complex samples of a transform on a frequency grid."""

    grid: FreqGrid
    values: np.ndarray  # complex, shape (samples,)*d

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        expected_shape = tuple([self.grid.samples] * self.grid.d)
        if vals.shape != expected_shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {expected_shape}")
        object.__setattr__(self, "values", vals)

    @property
    def at_zero(self) -> complex:
        return complex(self.values[self.grid.zero_index])


def _cis(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(i theta) for real theta: cos and sin written into the real and
    imaginary parts of the complex buffer ``out``."""
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _axis_cube_factor(xi: np.ndarray, side: float, out: np.ndarray, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Transform of the normalized uniform measure on [0, side] along one
    axis, e^{-i pi side xi} sinc(side xi), written into the complex ``out``.
    numpy's sinc is written out (pi x, eps for x = 0, sin(x)/x), bit for bit,
    in the float scratch ``theta`` and ``x`` of xi's shape."""
    np.multiply(xi, -math.pi * side, out=theta)
    _cis(theta, out)
    np.multiply(xi, side, out=x)
    x *= math.pi
    x[x == 0] = np.finfo(float).eps
    sinc = np.sin(x, out=theta)
    sinc /= x
    out *= sinc
    return out


def _cube_envelope(grid: FreqGrid, side: float) -> np.ndarray:
    """Transform of the normalized uniform measure on [0, side]^d on the grid."""
    xi = grid.axis()
    f = _axis_cube_factor(xi, side, np.empty(xi.shape, complex), np.empty_like(xi), np.empty_like(xi))
    return f if grid.d == 1 else np.outer(f, f)


def _centred_phases(s: np.ndarray, step: float, count: int, centre: int, work: _Work, name: str) -> np.ndarray:
    """(K, count) phases exp(-2 pi i s_k step (j - centre)), j < count, as the
    outer product of two factors over j = u*m + v with m = isqrt(count): one
    of ceil(count/m) coarse and one of m fine phases per shift.  Both factors
    are centred at centre = cu*m + cv, so each is exactly 1 at j = centre.
    The factors are ``work``'s "coarse" and "fine", the product its ``name``."""
    m = math.isqrt(count)
    cu, cv = divmod(centre, m)
    u, k = -(-count // m), len(s)
    angles = np.outer(s, (-2.0 * math.pi * step) * (m * (np.arange(u) - cu)), out=work.get("theta", (k, u)))
    coarse = _cis(angles, work.get("coarse", (k, u), complex))
    angles = np.outer(s, (-2.0 * math.pi * step) * (np.arange(m) - cv), out=work.get("theta", (k, m)))
    fine = _cis(angles, work.get("fine", (k, m), complex))
    product = np.multiply(coarse[:, :, None], fine[:, None, :], out=work.get(name, (k, u, m), complex))
    return product.reshape(k, -1)[:, :count]


def _split_phases(s: np.ndarray, grid: FreqGrid, work: Optional[_Work] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Exact factors of the phases exp(-2 pi i s_k xi_j) on one axis.

    With j = a*B + b, B = isqrt(N), A = ceil(N/B), h = 2X/N, c = N/2 (where
    xi = 0) and c = a0*B + b0: xi_j = h*B*(a - a0) + h*(b - b0), so the
    phase is hi[a, k] * lo[k, b] with hi (A, K) and lo (K, B).  Each of hi
    and lo is in turn the product of two split-index factors
    (_centred_phases), so a shift needs about 4 N^(1/4) cos/sin pairs (32
    at N = 4096) and K*(A + B) complex multiplies, instead of the K*N
    exponentials of the direct sum.  Every factor is exactly 1 at xi = 0.
    Both are views of ``work``'s "hi" and "lo".
    """
    work = work or _Work()
    n = grid.samples
    a, bs = _gemm_shape(n)
    a0, b0 = divmod(n // 2, bs)
    h = 2.0 * grid.half_extent / n
    lo = _centred_phases(s, h, bs, b0, work, "lo")
    hi = _centred_phases(s, h * bs, a, a0, work, "hi").T
    return hi, lo


def _gemm_shape(n: int) -> Tuple[int, int]:
    """(A, B) = (ceil(N/B), isqrt(N)): the split j = a*B + b of N grid indices."""
    b = math.isqrt(n)
    return -(-n // b), b


def _phase_sum(points: np.ndarray, weights: np.ndarray, grid: FreqGrid, work: Optional[_Work] = None) -> np.ndarray:
    """sum_k weights[k] exp(-2 pi i points[k] . xi) at every grid point xi:
    one GEMM hi @ (w lo) in d = 1, and (w E_1)^T @ E_2 of the per-axis (K, N)
    phase matrices in d = 2.  No (K, N^d) array is formed.  In d = 1 lo is
    weighted in place and the sum is a view of ``work``'s "gemm"."""
    work = work or _Work()
    n = grid.samples
    if grid.d == 1:
        hi, lo = _split_phases(points[:, 0], grid, work)
        np.multiply(weights[:, None], lo, out=lo)
        return np.matmul(hi, lo, out=work.get("gemm", _gemm_shape(n), complex)).ravel()[:n]
    axes = []
    for a in range(2):
        hi, lo = _split_phases(points[:, a], grid, work)
        axes.append((hi.T[:, :, None] * lo[:, None, :]).reshape(len(points), -1)[:, :n])
    return (weights[:, None] * axes[0]).T @ axes[1]


_ELIDED_CELLS = 256 * 1024 // 16  # numpy's temporary-elision threshold, 256 KiB, in complex cells


def _transform_values(mu: CubeMeasure, grid: FreqGrid, xi: np.ndarray, work: _Work) -> np.ndarray:
    """cube_measure_transform's values on the grid of axis ``xi``, as ``work``'s
    "field".  Each side's envelope goes to "envelope" first, with the two
    halves of "gemm" as its float scratch; the phase sum then fills "gemm".
    A side's term is the product phase sum * envelope, in the operand order
    numpy gives that expression: it evaluates a product whose right operand
    is a fresh array of at least _ELIDED_CELLS complex cells in that array
    (temporary elision), so a d = 1 envelope that large is the left operand.
    Its SIMD complex multiply rounds a*b and b*a differently."""
    corners, sides, masses = mu.corners_sides_masses()
    n = grid.samples
    out = work.get("field", (n,) * grid.d, complex)
    out.fill(0)
    for side in np.unique(sides):
        group = sides == side
        scratch = work.get("gemm", _gemm_shape(n), complex).reshape(-1).view(float)
        factor = _axis_cube_factor(xi, side, work.get("envelope", (n,), complex), scratch[:n], scratch[n : 2 * n])
        terms = _phase_sum(corners[group], masses[group], grid, work)
        if grid.d == 2:
            terms *= np.outer(factor, factor)
        elif n >= _ELIDED_CELLS:
            np.multiply(factor, terms, out=terms)
        else:
            terms *= factor
        out += terms
    return out


def cube_measure_transform(mu: CubeMeasure, grid: FreqGrid) -> SpectrumField:
    """Exact transform of a sum of weighted normalized cube measures: one
    mass-weighted phase sum per distinct side, times that side's envelope."""
    return SpectrumField(grid, _transform_values(mu, grid, grid.axis(), _Work()))


def expected_transform(r: float, grid: FreqGrid) -> SpectrumField:
    """Transform of the expected random measure, whatever the number of
    shifts: the convolution of the normalized uniform measures on [0, r]^d
    and [0, 1-r]^d."""
    if not 0 < r < 0.5:
        raise ValueError(f"r must lie in (0, 1/2), got {r}")
    return SpectrumField(grid, _cube_envelope(grid, r) * _cube_envelope(grid, 1.0 - r))


def random_transform(s: ShiftSample, grid: FreqGrid) -> SpectrumField:
    """Transform of the average of M shifted side-r cube measures."""
    mean = _phase_sum(s.shifts, np.full(s.M, 1.0 / s.M), grid)
    return SpectrumField(grid, mean * _cube_envelope(grid, s.r))


def sinc_tail_bound(r: float, p_exp: float, half_extent: float, d: int) -> float:
    """Bound on the integral of |nu_hat - E mu_hat|^p outside the window
    [-X, X]^d, the quantity np_moment_estimate truncates.

    Both transforms are the side-r cube envelope times a factor of modulus at
    most 1 (the mean shift phase, the shift law's characteristic function),
    so |nu_hat - E mu_hat| <= 2 prod_a min(1, 1/(pi r |xi_a|)).  Outside the
    window some |xi_a| > X: that axis contributes at most
    2 (pi r)^-p X^(1-p)/(p-1), and in d = 2 the other axis, over all of R,
    int min(1, (pi r |xi|)^-p) dxi = 2p/((p-1) pi r).
    """
    if p_exp <= 1:
        raise ValueError("tail bound needs p_exp > 1")
    per_axis = 2.0 * (math.pi * r) ** (-p_exp) * half_extent ** (1.0 - p_exp) / (p_exp - 1.0)
    other_axis = 2.0 * p_exp / ((p_exp - 1.0) * math.pi * r)
    return 2.0**p_exp * d * per_axis * other_axis ** (d - 1)


def _moment_integrals(r: float, grid: FreqGrid, expected: np.ndarray, exponents):
    """centred_moments as a function of the (T, M, d) shift draws alone: the
    side-r envelope is computed once, and every per-draw temporary (the
    phase factors, w lo, the GEMM, the deviation and its powers) is written
    into one work set that all draws of all calls reuse."""
    envelope = _cube_envelope(grid, r)
    shape, cell, work = envelope.shape, grid.cell_volume, _Work()

    def integrals(shifts) -> np.ndarray:
        shifts = np.asarray(shifts, dtype=float)
        weights = np.full(shifts.shape[1], 1.0 / shifts.shape[1])
        out = np.empty((len(shifts), len(exponents)))
        for t, draw in enumerate(shifts):
            dev = np.multiply(_phase_sum(draw, weights, grid, work), envelope, out=work.get("dev", shape, complex))
            dev -= expected
            modulus = np.abs(dev, out=work.get("abs", shape))
            power = work.get("power", shape)
            for j, pe in enumerate(exponents):
                np.copyto(power, modulus)
                power **= pe  # the operator keeps numpy's scalar-power fast paths (sqrt, square)
                out[t, j] = np.sum(power) * cell
        return out

    return integrals


def centred_moments(
    shifts: np.ndarray, r: float, grid: FreqGrid, expected: np.ndarray, exponents
) -> np.ndarray:
    """Riemann sums over the grid of |nu_hat - E mu_hat|^p for a batch of
    shift draws: ``shifts`` is (T, M, d), one draw of M side-r cube shifts
    per row, and ``expected`` holds E mu_hat.  Returns a (T, P) array, one
    column per exponent.  The cube envelope is computed once per call; the
    draws are transformed one at a time, so one N^d field is alive at once,
    and their temporaries share one work set (_moment_integrals)."""
    return _moment_integrals(r, grid, expected, exponents)(shifts)


def np_moment_estimate(
    M: int,
    r: float,
    exponents: Sequence[float],
    grid: FreqGrid,
    trials: int,
    rng: np.random.Generator,
) -> Tuple[Tuple[float, float], ...]:
    """Monte-Carlo estimates of the centred moment integrals.

    Averages the centred moments of ``trials`` independent shift draws;
    returns one (estimate, standard error) pair per exponent.
    """
    if trials < 30:
        raise ValueError("need at least 30 trials")
    if grid.half_extent < 1.0 / r:
        tails = [sinc_tail_bound(r, pe, grid.half_extent, grid.d) for pe in exponents]
        warnings.warn(
            f"window {grid.half_extent} below 1/r = {1 / r}; tail bounds {tails}",
            TruncationWarning,
        )
    integrals = _moment_integrals(r, grid, expected_transform(r, grid).values, exponents)
    # one trial's shifts at a time: the same stream as one (trials, M, d) draw
    sums = np.concatenate([integrals(rng.random((1, M, grid.d)) * (1.0 - r)) for _ in range(trials)])
    return tuple(
        (float(np.mean(col)), float(np.std(col, ddof=1) / math.sqrt(trials))) for col in sums.T
    )


def np_variance_oracle(M: int, r: float, grid: FreqGrid) -> float:
    """Closed-form value of the p = 2 moment integral over the grid.

    Pointwise the variance of the random transform is
    |cube envelope|^2 (1 - |shift characteristic function|^2) / M.
    """
    envelope = _cube_envelope(grid, r)
    char = _cube_envelope(grid, 1.0 - r)
    var = np.abs(envelope) ** 2 * (1.0 - np.abs(char) ** 2) / M
    return float(np.sum(var) * grid.cell_volume)


def ooo_deviation(r: float, p_exp: float) -> float:
    """Exact dual-norm distance between the uniform density on [0,1] and the
    expected-measure trapezoid density, in one dimension, whatever the
    number of shifts.

    The density difference is piecewise linear, so |1 - F_r|^{p'} integrates
    in closed form.
    """
    if not p_exp > 2:
        raise ValueError("p_exp must exceed 2")
    if not 0 < r < 0.5:
        raise ValueError(f"r must lie in (0, 1/2), got {r}")
    pp = p_exp / (p_exp - 1.0)
    ratio = r / (1.0 - r)
    ramp = 2.0 * r * (1.0 - r) / (pp + 1.0) * (1.0 + ratio ** (pp + 1.0))
    flat = (1.0 - 2.0 * r) * ratio**pp
    return (ramp + flat) ** (1.0 / pp)


# ---------------------------------------------------------------------------
# smooth bump families


def smooth_bump_profile(t):
    """The fixed smooth radial profile (1 - (t/3)^2)^3 on [0, 3], else 0."""
    t = np.asarray(t, dtype=float)
    inside = np.clip(1.0 - (t / 3.0) ** 2, 0.0, None)
    return inside**3


@dataclass(frozen=True)
class BumpFamily:
    """Disjoint balls (center, radius) each carrying the scaled smooth bump
    supported on three times the ball."""

    bumps: tuple  # of (center tuple, radius)
    d: int

    def __post_init__(self):
        norm = tuple((tuple(float(c) for c in x), float(r)) for x, r in self.bumps)
        object.__setattr__(self, "bumps", norm)
        for x, r in norm:
            if len(x) != self.d:
                raise ValueError("center dimension mismatch")
            if not 0 < r < 1:
                raise ValueError(f"radius must lie in (0, 1), got {r}")
        for i in range(len(norm)):
            for k in range(i + 1, len(norm)):
                (xi, ri), (xk, rk) = norm[i], norm[k]
                if math.dist(xi, xk) <= ri + rk:
                    raise ValueError(f"balls {i} and {k} overlap")


# j_3(k)/k^3 = sum_n (-k^2/2)^n / (n! (2n+7)!!); below k = 2 the first term left out
# is under 2e-25 of the sum
_J3_SERIES = tuple(
    (-1) ** n / (2**n * math.factorial(n) * math.prod(range(2 * n + 7, 0, -2))) for n in range(14)
)


def _j3_quotient(k: np.ndarray) -> np.ndarray:
    """j_3(k)/k^3 for k >= 0: the closed form
    ((15/k^3 - 6/k) sin k - (15/k^2 - 1) cos k)/k^4 from k = 2 on (DLMF
    10.49.3; Abramowitz & Stegun 10.1.8), and below k = 2, where its terms
    cancel, the power series _J3_SERIES in k^2."""
    small, k2 = k < 2.0, k * k
    series = np.zeros_like(k)
    for c in reversed(_J3_SERIES):
        series = series * k2 + c
    kk = np.where(small, 2.0, k)
    j3 = ((15.0 / kk**3 - 6.0 / kk) * np.sin(kk) - (15.0 / kk**2 - 1.0) * np.cos(kk)) / kk
    return np.where(small, series, j3 / kk**3)


def smooth_bump_transform(s, d: int) -> np.ndarray:
    """Fourier transform of the profile, as a radial function on R^d, at
    frequencies of modulus |s|.

    With k = 6 pi |s| it is 288 j_3(k)/k^3 in d = 1 and 864 pi J_4(k)/k^4 in
    d = 2 (Stein & Weiss, Fourier Analysis on Euclidean Spaces, ch. IV;
    Grafakos, Classical Fourier Analysis, App. B.5).  In d = 1 j_3 is
    elementary (_j3_quotient): the closed form from k = 2 on and 14 terms of
    its power series below, where the closed form cancels (a switch at k = 1
    leaves 4e-13 relative error, at k = 0.5 4e-11).  In d = 2 J_4 comes from
    scipy.special, imported only there, and below k = 1e-2 the Taylor
    series through k^4 replaces the quotient.
    """
    if d not in (1, 2):
        raise ValueError(f"the bump transform has a closed form for d = 1, 2, not d = {d}")
    k = 6.0 * math.pi * np.abs(np.asarray(s, dtype=float))
    if d == 1:
        return 288.0 * _j3_quotient(k)
    from scipy.special import jv

    k2 = k * k
    small = k < 1e-2
    kk = np.where(small, 1.0, k)
    series = 864.0 * math.pi * (1.0 / 384.0 - k2 / 7680.0 + k2 * k2 / 368640.0)
    return np.where(small, series, 864.0 * math.pi * jv(4, kk) / kk**4)


def bump_sum_norms(fam: BumpFamily, grid: FreqGrid) -> Tuple[float, float, float, float]:
    """(l2_norm, sobolev_norm, l2_bound, sobolev_bound) of the bump sum.

    The L2 norm is a physical-space quadrature at resolution tied to the
    smallest radius; the order-d Sobolev norm is the spectral integral of
    (1 + |2 pi xi|^2)^{d/2} against the transform on the truncated grid,
    where the bumps of each radius r contribute one r^d-weighted phase sum
    (_phase_sum) of their centers times the closed form
    smooth_bump_transform.  The reference bounds are (Sigma r^d)^{1/2} and
    (Sigma r^{-d})^{1/2}.
    """
    d = fam.d
    radii = np.array([r for _, r in fam.bumps])
    centers = np.array([x for x, _ in fam.bumps])
    l2_bound = float(np.sqrt(np.sum(radii**d)))
    sob_bound = float(np.sqrt(np.sum(radii ** (-d))))

    # physical quadrature on a box containing all supports
    h = radii.min() / 32.0
    lo = (centers - 3.0 * radii[:, None]).min(axis=0)
    hi = (centers + 3.0 * radii[:, None]).max(axis=0)
    axes = [np.arange(lo[a], hi[a] + h, h) for a in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    total = np.zeros(mesh[0].shape)
    for (x, r) in fam.bumps:
        dist2 = np.zeros(mesh[0].shape)
        for a in range(d):
            dist2 = dist2 + (mesh[a] - x[a]) ** 2
        total += smooth_bump_profile(np.sqrt(dist2) / r)
    l2 = float(np.sqrt(np.sum(total**2) * h**d))

    # spectral quadrature for the Sobolev norm
    xi = grid.axis()
    rho = np.abs(xi) if d == 1 else np.hypot(xi[:, None], xi[None, :])
    ghat = np.zeros(rho.shape, dtype=complex)
    for r in np.unique(radii):
        group = radii == r
        weights = np.full(np.count_nonzero(group), r**d)
        ghat += _phase_sum(centers[group], weights, grid) * smooth_bump_transform(r * rho, d)
    weight = (1.0 + (2.0 * math.pi) ** 2 * rho**2) ** (d / 2.0)
    sob = float(np.sqrt(np.sum(weight**2 * np.abs(ghat) ** 2) * grid.cell_volume))
    return l2, sob, l2_bound, sob_bound


def lorentz_spectrum_norm(field: SpectrumField, e: LorentzExponents) -> float:
    """Lorentz quasi-norm of |field| read as a step function: each grid cell
    is a plateau of mass equal to the cell volume."""
    return _spectrum_norm(field.values, field.grid, e, _Work())


def _spectrum_norm(values: np.ndarray, grid: FreqGrid, e: LorentzExponents, work: _Work) -> float:
    """lorentz_spectrum_norm of the field ``values``: one row of magnitudes,
    every cell of mass the cell volume.  The magnitudes are written straight
    into the row that the kernel sorts, ``work``'s "powers"."""
    mags = np.abs(values.reshape(1, -1), out=work.get("powers", (1, values.size)))
    return float(_lorentz_norms(mags, grid.cell_volume, e.p, e.q, work)[0])


def _spectrum_norms(mus, grid: FreqGrid, e: LorentzExponents) -> list:
    """lorentz_spectrum_norm(cube_measure_transform(mu, grid), e) for each
    measure mu, bit for bit, with one axis and one work set for them all."""
    xi, work = grid.axis(), _Work()
    return [_spectrum_norm(_transform_values(mu, grid, xi, work), grid, e, work) for mu in mus]


# ---------------------------------------------------------------------------
# convergence-threshold series


class SeriesVerdict(enum.Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"


def resl_series(p: float, q: float, d: int, beta: float, n_max: int):
    """Partial sums S_0..S_{n_max}, verdict and an upper bound on the sum of
    the threshold series sum_n t_n, t_n = 2^{-n rate} (n+1)^{q d / p} with
    rate = ((q-1)/beta)(beta - q'/2) and q' = q/(q-1).

    For q > 1 and beta > 0 the factor (q-1)/beta is positive, so rate has
    the sign of beta - q'/2.  That sign is decided exactly, on the Fractions
    of the inputs' decimal values: in floats 1.1/(2 (1.1 - 1)) falls below
    5.5, which would put q = 1.1, beta = 5.5 on the wrong side.
    If beta <= q'/2, then rate <= 0 and t_n >= (n+1)^{qd/p} >= 1, so the
    terms do not tend to 0: DIVERGENT.  If beta > q'/2, the term ratio
    r_n = t_{n+1}/t_n = 2^{-rate}((n+2)/(n+1))^{qd/p} decreases to
    2^{-rate} < 1: CONVERGENT by the ratio test.

    The bound, with a = rate ln 2 and P = qd/p: r_n <= 2^{-rate/2} once
    n + 1 >= 1/(2^{rate/(2P)} - 1); let m be the first such n >= n_max.
    Because r_n decreases, the terms past m shrink by at least r_m each, so
    sum_{n>m} t_n <= t_{m+1}/(1 - r_m); and every term is at most the
    maximum of e^{-ax}(x+1)^P over x >= 0, t_max = e^a (P/(e a))^P, which
    bounds the m - n_max terms between.  So
    upper = S_{n_max} + (m - n_max) t_max + t_{m+1}/(1 - r_m),
    with m = n_max (and no t_max term) once r_{n_max} <= 2^{-rate/2}.
    upper is then widened by (m + 2a(m+1) + 32) 2^-53 of itself for
    rounding: the float partial sum is within n_max 2^-53 of the real one,
    each float term within (a n + 3) 2^-53 of its real value (the exponent
    -n rate is rounded), and 1 - r_m, which the choice of m keeps at least
    1 - 2^{-rate/2}, within a few units.  upper is inf for a DIVERGENT
    series, and when rate rounds to 0 or below.
    """
    if n_max < 10:
        raise ValueError("n_max must be at least 10")
    if not 1 < q < math.inf:
        raise ValueError(f"q must lie in (1, inf), got {q!r}")
    if not beta > 0:
        raise ValueError("beta must be positive")
    qx, bx = (Fraction(repr(float(x))) for x in (q, beta))
    verdict = SeriesVerdict.CONVERGENT if 2 * bx * (qx - 1) > qx else SeriesVerdict.DIVERGENT
    qp = q / (q - 1.0)
    rate = ((q - 1.0) / beta) * (beta - qp / 2.0)
    poly = q * d / p
    n = np.arange(n_max + 1, dtype=float)
    sums = np.cumsum(2.0 ** (-n * rate) * (n + 1.0) ** poly)
    if verdict is SeriesVerdict.DIVERGENT or not rate > 0:
        return sums, verdict, math.inf
    a = rate * math.log(2.0)
    m = max(n_max, math.ceil(1.0 / math.expm1(a / (2.0 * poly))) - 1)
    between = (m - n_max) * math.exp(a) * (poly / (math.e * a)) ** poly if m > n_max else 0.0
    tail = 2.0 ** (-(m + 1) * rate) * (m + 2.0) ** poly / -math.expm1(poly * math.log1p(1.0 / (m + 1.0)) - a)
    upper = (float(sums[-1]) + between + tail) * (1.0 + (m + 2.0 * a * (m + 1) + 32) * 2.0**-53)
    return sums, verdict, upper


# ---------------------------------------------------------------------------
# binary field format


_MAGIC = b"SPEC1"


def write_spectrum(field: SpectrumField, path) -> None:
    """Little-endian columnar dump: magic, d, N, X, then the samples as
    complex doubles (real, imaginary) in row-major order."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<iid", field.grid.d, field.grid.samples, field.grid.half_extent))
        fh.write(np.ascontiguousarray(field.values, dtype="<c16").tobytes())


def read_spectrum(path) -> SpectrumField:
    """The field a ``write_spectrum`` file holds.  Raises ValueError on a
    bad magic, a truncated header, a bad grid or a payload of other than
    N^d samples, and ResourceLimitError past the grid cell budget."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        header, payload = fh.read(16), fh.read()
    if len(header) != 16:
        raise ValueError(f"truncated header: {len(header)} of 16 bytes")
    d, n, x = struct.unpack("<iid", header)
    grid = FreqGrid(d, x, n)
    if len(payload) != 16 * n**d:
        raise ValueError(f"payload of {len(payload)} bytes, expected {n}^{d} complex doubles of 16 bytes")
    # copied: a field read back is as writable as the one written
    return SpectrumField(grid, np.frombuffer(payload, "<c16").reshape((n,) * d).copy())
