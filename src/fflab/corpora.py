"""The seeded corpora of the experiments.  A generator draws from its own
stream (``_rng`` of the seed and the corpus's name) over the domain that
the named constants beside it declare: a count's (fewest, most) are both
drawn, and a value lies in its range up to rounding."""

from __future__ import annotations  # an annotation would import numpy.random

import math
from typing import Optional

import numpy as np

from . import presets
from .capacity import GaugeFunction, GridMeasure, PointCloud
from .cantor import _rng, build_tree, realize_tree
from .lorentz import _pad_rows, _Work
from .spectral import BumpFamily


# Sequences or instances drawn together: every corpus draws its values a
# block at a time, a few array calls per block.  A LORNOR cell with its
# work set peaks at 2.7 MiB under tracemalloc (2.8 MiB in chunks of 1024).
# TR_PPLUS peaks at 1.9 MiB on blocks of 512, and makes a quasi-triangle
# kernel call for about 57 rows.
_CORPUS_BLOCK = 512
# Sequences per LORNOR kernel call, in draw-order runs and in sorted blocks.
# On a 2-core Xeon c5 took a median 0.84 s at 128 to 512, 1.0 s at 64, and 512
# raised the peak RSS of a LORNOR process from 38.2 to 40.2 MB.
_LORNOR_ROWS = 128
# A LORNOR sequence's length, and the range of its log-uniform values.
LORNOR_LENGTHS = (3, 199)
LORNOR_VALUES = (2.0**-12, 0.5)


def lornor_corpus(alpha: float, q: float, seed: int, n_seq: int, work: Optional[_Work] = None):
    """The seeded sequences, yielded a chunk of up to _CORPUS_BLOCK at a time
    as (draw, lengths, order, blocks): the chunk's flat uniform draw (the same
    values as one draw per sequence), its lengths in draw order, their stable
    length order, and in that order the Lorentz blocks of up to _LORNOR_ROWS
    rows, each padded with 0 only to its own longest row (20 % of the cells
    are padding, 48 % in draw order).  A block is rows of the draw's window
    view, its padding then zeroed; the draw, a view of ``work`` with
    LORNOR_LENGTHS[1] - 1 cells of slack, serves until the next chunk."""
    work = work or _Work()
    shortest, longest = LORNOR_LENGTHS
    low, high = math.log(LORNOR_VALUES[0]), math.log(LORNOR_VALUES[1])
    rng = _rng(seed, "lornor", repr(alpha), repr(float(q)))
    lengths = rng.integers(shortest, longest + 1, n_seq)
    buffer = work.get("draw", (_CORPUS_BLOCK * longest + longest - 1,))
    windows = np.lib.stride_tricks.sliding_window_view(buffer, longest)  # window i starts at cell i

    def blocks(chunk, order):
        offsets, by_length = (np.cumsum(chunk) - chunk)[order], chunk[order]
        for row in range(0, len(chunk), _LORNOR_ROWS):
            block = by_length[row : row + _LORNOR_ROWS]
            rows = windows[offsets[row : row + _LORNOR_ROWS], : block[-1]]
            np.copyto(rows, 0.0, where=np.arange(block[-1]) >= block[:, None])
            yield rows

    for start in range(0, n_seq, _CORPUS_BLOCK):
        chunk = lengths[start : start + _CORPUS_BLOCK]
        draw = buffer[: chunk.sum()]
        rng.random(out=draw)  # then as rng.uniform(low, high), bit for bit
        draw *= high - low
        draw += low
        np.exp(draw, out=draw)
        order = np.argsort(chunk, kind="stable")
        yield draw, chunk, order, blocks(chunk, order)


def _past(masses: np.ndarray) -> np.ndarray:
    """The origin just past each row's plateaus laid out from 0: the total
    mass, summed in order as ``WeightedSample.total_mass`` does, plus 1."""
    return np.cumsum(masses, axis=1)[:, -1] + 1.0


TR_EXPONENTS = ((4.0, 2.0), (3.0, 1.0), (2.5, 0.7))
# The TR and P+ domain: plateaus per row, the normal scale of log values and
# log masses, the epsilons, the normal scale of P+'s log A, P+'s sequence length.
TR_PLATEAUS = (1, 6)
TR_LOG_SCALE = 1.5
TR_EPSILONS = (0.1, 0.5, 1.0)
PPLUS_LOG_A_SCALE = 0.7
PPLUS_SEQ_LEN = 16


def _block_exponents(start: int, stop: int) -> np.ndarray:
    """(p, q) of instances start..stop-1, which cycle through TR_EXPONENTS."""
    return np.array(TR_EXPONENTS)[np.arange(start, stop) % len(TR_EXPONENTS)]


def _lognormal_rows(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """exp of one normal(0, TR_LOG_SCALE) draw for all the plateaus of a
    block, as rows of the given lengths padded with 0."""
    return _pad_rows(np.exp(rng.normal(0.0, TR_LOG_SCALE, int(counts.sum()))), counts)


def tr_corpus(seed: int, n_pairs: int):
    """The seeded quasi-triangle pairs, yielded as blocks of up to
    _CORPUS_BLOCK instances (f, g, pq, eps): f and g are (values, masses,
    origins) rows padded with (0, 0), pq the (rows, 2) exponents and eps
    the rows' epsilons.  Half the g start just past f, the rest at 0.  A
    block of m instances is drawn array by array: m integers over
    TR_PLATEAUS for the f plateau counts, then for the g counts;
    integers(0, 2, m) for the sides (1: g starts past f); m indices into
    TR_EPSILONS; then one normal(0, TR_LOG_SCALE) draw each for the log f
    values, log f masses, log g values and log g masses, every row's
    plateaus in turn.  A row has at most TR_PLATEAUS[1] plateaus, so a
    block of 512 stays small, and its nine (p, q, eps) groups give the
    kernels about 57 rows a call."""
    rng = _rng(seed, "tr")
    eps_menu, (fewest, most) = np.array(TR_EPSILONS), TR_PLATEAUS
    for start in range(0, n_pairs, _CORPUS_BLOCK):
        stop = min(start + _CORPUS_BLOCK, n_pairs)
        m = stop - start
        f_counts, g_counts = rng.integers(fewest, most + 1, m), rng.integers(fewest, most + 1, m)
        disjoint = rng.integers(0, 2, m).astype(bool)
        eps = eps_menu[rng.integers(0, len(eps_menu), m)]
        f_vals, f_masses, g_vals, g_masses = [
            _lognormal_rows(rng, counts) for counts in (f_counts, f_counts, g_counts, g_counts)
        ]
        f = (f_vals, f_masses, np.zeros(m))
        g = (g_vals, g_masses, np.where(disjoint, _past(f_masses), 0.0))
        yield f, g, _block_exponents(start, stop), eps


def pplus_corpus(seed: int, n_instances: int):
    """The seeded asymptotic-addition instances, yielded as blocks of up to
    _CORPUS_BLOCK instances (f, gs, pq, a_limits): f as in ``tr_corpus``,
    gs the sequences g_1..g_L, L = PPLUS_SEQ_LEN, of one plateau each as
    (rows, L, 1) values and masses and (rows, L) origins, all just past f, pq
    the exponents and a_limits the limits A.  A block of m instances is
    drawn array by array: m integers over TR_PLATEAUS for the f plateau
    counts, one normal(0, TR_LOG_SCALE) draw each for the log f values and
    log f masses, then normal(0, PPLUS_LOG_A_SCALE, m) for the log A.
    Blocks of 512 give each of the three exponent groups about 170 rows a
    call."""
    rng = _rng(seed, "pplus")
    # single plateaus of constant Lorentz norm and vanishing higher norm
    masses = [2.0 ** (4 * j) for j in range(1, PPLUS_SEQ_LEN + 1)]
    shrink = {p: np.array([mass ** (-1.0 / p) for mass in masses]) for p, _ in TR_EXPONENTS}
    for start in range(0, n_instances, _CORPUS_BLOCK):
        stop = min(start + _CORPUS_BLOCK, n_instances)
        m = stop - start
        counts = rng.integers(TR_PLATEAUS[0], TR_PLATEAUS[1] + 1, m)
        f_vals, f_masses = _lognormal_rows(rng, counts), _lognormal_rows(rng, counts)
        a_limits = np.exp(rng.normal(0.0, PPLUS_LOG_A_SCALE, m))
        pq = _block_exponents(start, stop)
        g_vals = a_limits[:, None] * np.array([shrink[p] for p in pq[:, 0].tolist()])
        g_masses = np.tile(masses, (m, 1))
        origins = np.repeat(_past(f_masses)[:, None], PPLUS_SEQ_LEN, axis=1)
        gs = (g_vals[..., None], g_masses[..., None], origins)
        yield (f_vals, f_masses, np.zeros(m)), gs, pq, a_limits


def gauge_gallery(alpha: float):
    def log_gauge(t):
        return t**alpha * math.log(1.0 / t) if t > 0 else 0.0

    def sqrt_log_gauge(t):
        return t**alpha * math.sqrt(math.log(1.0 / t)) if t > 0 else 0.0

    return (
        GaugeFunction(lambda t: t**alpha),
        GaugeFunction(log_gauge),
        GaugeFunction(sqrt_log_gauge),
    )


def profile_gallery(seed: int):
    """20 per-generation count profiles of 8 generations each: every fourth
    doubles, the others are seeded draws."""
    rng = _rng(seed, "profiles")
    profiles = []
    for i in range(20):
        if i % 4 == 0:
            base = 2 ** np.arange(1, 9)
        else:
            base = rng.integers(1, 2 ** (i % 10 + 2), 8) + 1
        profiles.append(tuple(int(m) for m in base))
    return profiles


def random_cloud(rng: np.random.Generator, n_points: int) -> PointCloud:
    """n_points uniform points of [0, 1]."""
    return PointCloud(tuple(map(tuple, rng.random((n_points, 1)))), 1)


# The DD domain: bumps per family, log-uniform radii, and the gaps between bumps.
DD_BUMPS = (1, 5)
DD_RADII = (2.0**-6, 0.5)
DD_GAPS = (0.01, 0.5)


def dd_corpus(seed: int, n_families: int):
    """Families of bumps on the line, laid out left to right from 0."""
    rng = _rng(seed, "dd")
    for _ in range(n_families):
        n = int(rng.integers(DD_BUMPS[0], DD_BUMPS[1] + 1))
        radii = np.exp(rng.uniform(math.log(DD_RADII[0]), math.log(DD_RADII[1]), n))
        centers = []
        pos = 0.0
        for i, r in enumerate(radii):
            gap = float(rng.uniform(*DD_GAPS))
            pos += (radii[i - 1] if i else 0.0) + r + gap
            centers.append(pos)
        yield BumpFamily(tuple(zip(centers, radii)))


def frostman_measure(seed: int) -> GridMeasure:
    """Depth-2 stage of the norm-growth construction, read as point masses
    at the atom cube centers."""
    params = presets.preset("norm-growth", depth=2, seed=seed)
    tree = build_tree(params)
    _, mus = realize_tree(tree, params, budget=64)
    mu = mus[-1]
    points = tuple(
        tuple(c + side / 2.0 for c in corner) for corner, side, _ in mu.atoms
    )
    weights = tuple(mass for _, _, mass in mu.atoms)
    return GridMeasure(params.d, points, weights)
