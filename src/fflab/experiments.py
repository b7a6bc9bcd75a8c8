"""Seeded corpora and the experiment runner binding the core modules.

Every experiment is a pure function of (seed, keyword parameters); RNG
streams are derived per sub-task from the seed, so no result depends on the
order in which the sub-tasks run.  Numeric artifacts are CSV tables with
repr-formatted floats, which makes re-runs byte-identical.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NewType, Optional, Sequence, Tuple

import numpy as np

from . import presets, recorded
from .capacity import (
    CapacityParams,
    DyadicCovering,
    GaugeFunction,
    GridMeasure,
    HlpInstance,
    HlpItem,
    PointCloud,
    ResourceLimitError,
    _coarsest_generation,
    _groups,
    check_hlp_item,
    covering_sums,
    frostman_ratio,
    nh_capacity_delta,
    nh_covering_sum,
)
from .cantor import build_tree, layer_covering, realize_tree
from .checks import CheckResult
from .lorentz import (
    LorentzExponents,
    _Work,
    _block_norms,
    _lorentz_norms,
    _pad_rows,
    _pplus_rows,
    _quasi_triangle_rows,
)
from .spectral import (
    BumpFamily,
    FreqGrid,
    SeriesVerdict,
    _spectrum_norms,
    bump_sum_norms,
    np_moment_estimate,
    np_variance_oracle,
    ooo_deviation,
    resl_series,
)

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "check_params",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    experiment: str
    checks: List[CheckResult]
    tables: Dict[str, Tuple[Sequence[str], List[tuple]]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _rng(seed: int, *key) -> np.random.Generator:
    """Deterministic per-task stream: the key words are folded to integers."""
    spawn = tuple(
        k if isinstance(k, int) else zlib.crc32(str(k).encode()) for k in key
    )
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn))


def write_tables(result: ExperimentResult, outdir) -> List[str]:
    paths = []
    outdir = Path(outdir)
    for name, (header, rows) in sorted(result.tables.items()):
        path = outdir / f"{result.experiment.lower()}_{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        paths.append(str(path))
    return paths


# ---------------------------------------------------------------------------
# corpora


LORNOR_ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
LORNOR_QS = (0.5, 1.0, 2.0, math.inf)


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
_LORNOR_MAX_LEN = 199
def lornor_corpus(alpha: float, q: float, seed: int, n_seq: int, work: Optional[_Work] = None):
    """The seeded sequences, yielded a chunk of up to _CORPUS_BLOCK at a time
    as (draw, lengths, order, blocks): the chunk's flat uniform draw (the same
    values as one draw per sequence), its lengths in draw order, their stable
    length order, and in that order the Lorentz blocks of up to _LORNOR_ROWS
    rows, each padded with 0 only to its own longest row (20 % of the cells
    are padding, 48 % in draw order).  A block is rows of the draw's window
    view, its padding then zeroed; the draw, a view of ``work`` with
    _LORNOR_MAX_LEN - 1 cells of slack, serves until the next chunk."""
    work = work or _Work()
    rng = _rng(seed, "lornor", repr(alpha), repr(float(q)))
    lengths = rng.integers(3, _LORNOR_MAX_LEN + 1, n_seq)
    buffer = work.get("draw", (_CORPUS_BLOCK * _LORNOR_MAX_LEN + _LORNOR_MAX_LEN - 1,))
    windows = np.lib.stride_tricks.sliding_window_view(buffer, _LORNOR_MAX_LEN)  # window i starts at cell i

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
        rng.random(out=draw)  # then as rng.uniform(log 2^-12, log 0.5), bit for bit
        draw *= math.log(0.5) - math.log(2.0**-12)
        draw += math.log(2.0**-12)
        np.exp(draw, out=draw)
        order = np.argsort(chunk, kind="stable")
        yield draw, chunk, order, blocks(chunk, order)


def _lornor_chunk(chunk, alpha: float, q: float, work: _Work) -> np.ndarray:
    """The ratios of a ``lornor_corpus`` chunk in draw order: block norms of
    draw-order runs of _LORNOR_ROWS sequences over their Lorentz norms."""
    draw, lengths, order, blocks = chunk
    ends = np.cumsum(lengths)[_LORNOR_ROWS - 1 : -1 : _LORNOR_ROWS]  # of every run but the last
    runs = zip(np.split(draw, ends), np.split(lengths, range(_LORNOR_ROWS, len(lengths), _LORNOR_ROWS)))
    ratios = np.concatenate([_block_norms(values, run, alpha, q, work) for values, run in runs])
    ratios[order] /= np.concatenate([_lorentz_norms(rows, 1.0, alpha, alpha * q, work) for rows in blocks])
    return ratios


def _past(masses: np.ndarray) -> np.ndarray:
    """The origin just past each row's plateaus laid out from 0: the total
    mass, summed in order as ``WeightedSample.total_mass`` does, plus 1."""
    return np.cumsum(masses, axis=1)[:, -1] + 1.0


TR_EXPONENTS = ((4.0, 2.0), (3.0, 1.0), (2.5, 0.7))


def _block_exponents(start: int, stop: int) -> np.ndarray:
    """(p, q) of instances start..stop-1, which cycle through TR_EXPONENTS."""
    return np.array(TR_EXPONENTS)[np.arange(start, stop) % len(TR_EXPONENTS)]


def _lognormal_rows(rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
    """exp of one normal(0, 1.5) draw for all the plateaus of a block, as
    rows of the given lengths padded with 0."""
    return _pad_rows(np.exp(rng.normal(0.0, 1.5, int(counts.sum()))), counts)


def tr_corpus(seed: int, n_pairs: int):
    """The seeded quasi-triangle pairs, yielded as blocks of up to
    _CORPUS_BLOCK instances (f, g, pq, eps): f and g are (values, masses,
    origins) rows padded with (0, 0), pq the (rows, 2) exponents and eps
    the rows' epsilons.  Half the g start just past f, the rest at 0.  A
    block of m instances is drawn array by array: integers(1, 7, m) for the
    f plateau counts, then for the g counts; integers(0, 2, m) for the
    sides (1: g starts past f); integers(0, 3, m) for the epsilon indices;
    then one normal(0, 1.5) draw each for the log f values, log f masses,
    log g values and log g masses, every row's plateaus in turn.  A row has
    at most six plateaus, so a block of 512 stays small, and its nine
    (p, q, eps) groups give the kernels about 57 rows a call."""
    rng = _rng(seed, "tr")
    eps_menu = np.array((0.1, 0.5, 1.0))
    for start in range(0, n_pairs, _CORPUS_BLOCK):
        stop = min(start + _CORPUS_BLOCK, n_pairs)
        m = stop - start
        f_counts, g_counts = rng.integers(1, 7, m), rng.integers(1, 7, m)
        disjoint = rng.integers(0, 2, m).astype(bool)
        eps = eps_menu[rng.integers(0, len(eps_menu), m)]
        f_vals, f_masses, g_vals, g_masses = [
            _lognormal_rows(rng, counts) for counts in (f_counts, f_counts, g_counts, g_counts)
        ]
        f = (f_vals, f_masses, np.zeros(m))
        g = (g_vals, g_masses, np.where(disjoint, _past(f_masses), 0.0))
        yield f, g, _block_exponents(start, stop), eps


# Length of each P+ instance's sequence g_1, g_2, ...
_PPLUS_SEQ_LEN = 16


def pplus_corpus(seed: int, n_instances: int):
    """The seeded asymptotic-addition instances, yielded as blocks of up to
    _CORPUS_BLOCK instances (f, gs, pq, a_limits): f as in ``tr_corpus``,
    gs the sequences g_1..g_L, L = _PPLUS_SEQ_LEN, of one plateau each as
    (rows, L, 1) values and masses and (rows, L) origins, all just past f, pq
    the exponents and a_limits the limits A.  A block of m instances is
    drawn array by array: integers(1, 7, m) for the f plateau counts, one
    normal(0, 1.5) draw each for the log f values and log f masses, then
    normal(0, 0.7, m) for the log A.  Blocks of 512 give each of the three
    exponent groups about 170 rows a call."""
    rng = _rng(seed, "pplus")
    # single plateaus of constant Lorentz norm and vanishing higher norm
    masses = [2.0 ** (4 * j) for j in range(1, _PPLUS_SEQ_LEN + 1)]
    shrink = {p: np.array([mass ** (-1.0 / p) for mass in masses]) for p, _ in TR_EXPONENTS}
    for start in range(0, n_instances, _CORPUS_BLOCK):
        stop = min(start + _CORPUS_BLOCK, n_instances)
        m = stop - start
        counts = rng.integers(1, 7, m)
        f_vals, f_masses = _lognormal_rows(rng, counts), _lognormal_rows(rng, counts)
        a_limits = np.exp(rng.normal(0.0, 0.7, m))
        pq = _block_exponents(start, stop)
        g_vals = a_limits[:, None] * np.array([shrink[p] for p in pq[:, 0].tolist()])
        g_masses = np.tile(masses, (m, 1))
        origins = np.repeat(_past(f_masses)[:, None], _PPLUS_SEQ_LEN, axis=1)
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


def dd_corpus(seed: int, n_families: int):
    rng = _rng(seed, "dd")
    for _ in range(n_families):
        n = int(rng.integers(1, 6))
        radii = np.exp(rng.uniform(math.log(2.0**-6), math.log(0.5), n))
        centers = []
        pos = 0.0
        for i, r in enumerate(radii):
            gap = float(rng.uniform(0.01, 0.5))
            pos += (radii[i - 1] if i else 0.0) + r + gap
            centers.append((pos,))
        yield BumpFamily(tuple(zip(centers, radii)), 1)


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


# ---------------------------------------------------------------------------
# experiments


# A runner parameter marked Size counts the draws, instances or terms that
# its work grows with; check_params takes it from 1 to 100 times its default.
# Each item of a Sizes list is bounded by 100 times the largest default item.
Size = NewType("Size", int)
Sizes = Tuple[Size, ...]


def run_lornor(seed: int, *, n_seq: Size = 10_000, alphas=LORNOR_ALPHAS, qs=LORNOR_QS) -> ExperimentResult:
    bands = recorded.LORNOR_BANDS
    checks, rows = [], []
    work = _Work()  # one set for the whole run
    for alpha in alphas:
        for q in qs:
            q_key = repr(float(q))
            band = bands.get((repr(float(alpha)), q_key))
            if band is None:
                raise ValueError(f"no recorded band at alpha = {alpha}, q = {q}; "
                                 f"the bands cover alphas {LORNOR_ALPHAS} and qs {LORNOR_QS}")
            ratios = np.concatenate(
                [_lornor_chunk(chunk, alpha, q, work) for chunk in lornor_corpus(alpha, q, seed, n_seq, work)]
            )
            lo, hi = float(ratios.min()), float(ratios.max())
            checks.append(CheckResult(f"lornor_band_alpha={alpha}_q={q_key}", max(hi, 1.0 / lo), band))
            rows.append((alpha, q_key, lo, hi, band, int(checks[-1].passed)))
    tables = {"bands": (("alpha", "q", "ratio_min", "ratio_max", "band_C", "ok"), rows)}
    return ExperimentResult("LORNOR", checks, tables)


def _by_key(keys: np.ndarray):
    """(key, row mask) for each distinct row of ``keys``, in sorted order:
    the one grouping of a corpus block by its rows' scalar kernel arguments."""
    for key in sorted(set(map(tuple, keys.tolist()))):
        yield key, np.all(keys == key, axis=1)


def _take(rows, mask) -> tuple:
    return tuple(a[mask] for a in rows)


def _worst(*named) -> List[CheckResult]:
    """The record of the worst instance of each (name, records) family, as
    ``CheckResult.worst`` picks it: the worst of the parts' worst records is
    the worst of the whole."""
    return [CheckResult.worst(name, [r.value for r in rs], [r.bound for r in rs]) for name, rs in named]


def run_tr_pplus(seed: int, *, n_instances: Size = 10_000) -> ExperimentResult:
    tr, pplus = [], []  # the worst instance of each kernel call
    for f, g, pq, eps in tr_corpus(seed, n_instances):
        for (p, q, e), mask in _by_key(np.column_stack((pq, eps))):
            values, bounds = _quasi_triangle_rows(_take(f, mask), _take(g, mask), LorentzExponents(p, q), e)
            tr.append(CheckResult.worst("quasi_triangle", values, bounds))
    for f, gs, pq, a_limits in pplus_corpus(seed, n_instances):
        for (p, q), mask in _by_key(pq):
            f_rows, g_rows = _take(f, mask), _take(gs, mask)
            values, bounds = _pplus_rows(f_rows, g_rows, a_limits[mask], LorentzExponents(p, q), p + 1.0)
            pplus.append(CheckResult.worst("pplus", values, bounds))
    checks = _worst(("quasi_triangle_zero_violations", tr), ("pplus_zero_violations", pplus))
    return ExperimentResult("TR_PPLUS", checks)


def run_h_zero(seed: int, *, layers: Size = 4) -> ExperimentResult:
    cp = presets.preset("layer-law", depth=layers, seed=seed)
    tree = build_tree(cp)
    cap_params = CapacityParams(2.0 * cp.d / cp.p, cp.beta)
    rows, worst = [], 0.0
    for n in range(1, layers + 1):
        s = nh_covering_sum(layer_covering(tree, n), cap_params)
        target = n ** (-2.0 * cp.d * cp.beta / cp.p)
        worst = max(worst, abs(s - target))
        rows.append((n, s, target, abs(s - target)))
    checks = [CheckResult("layer_sum_law", worst, math.nextafter(1e-9, 0))]
    tables = {"layer_sums": (("n", "layer_sum", "n_power_law", "abs_err"), rows)}
    return ExperimentResult("H_ZERO", checks, tables)


def run_construct(seed: int, *, preset="norm-growth", depth=0, budget=64) -> ExperimentResult:
    cp = presets.preset(preset, depth=depth, seed=seed)
    tree = build_tree(cp)
    off_sum = sum(tree.layer_weight_sum(n) != 1 for n in range(tree.max_complete_layer() + 1))
    over = sum(node.weight > (1 if node.layer == 0 else 1.0 / 2**node.layer) for node in tree.nodes)
    tree, mus = realize_tree(tree, cp, budget=budget)
    mass_dev = np.max([abs(m.total_mass - 1.0) for m in mus])
    outside = sum(
        any(x < lo - 1e-12 or x + kid.side > lo + parent.side + 1e-12 for x, lo in zip(kid.corner, parent.corner))
        for parent in (tree.nodes[k] for k, _, _ in tree.steps)
        for kid in (tree.nodes[i] for i in parent.kids)
    )
    checks = [
        CheckResult("weight_conservation", off_sum, 0),  # layers whose exact sum is not 1
        CheckResult("weight_bound", over, 0),  # nodes over 2^-n
        CheckResult("mass_conservation", mass_dev, math.nextafter(1e-12, 0)),
        CheckResult("support_nesting", outside, 0),  # kid cubes outside their parents
    ]
    rows = [
        (node.index, node.parent if node.parent is not None else -1, node.layer,
         str(node.weight), node.side)
        for node in tree.nodes
    ]
    tables = {"tree": (("index", "parent", "layer", "weight", "side"), rows)}
    return ExperimentResult("CONSTRUCT", checks, tables)


def run_np_sweep(seed: int, *, M: Sizes = (16, 64, 256), r=(0.125, 0.03125), trials: Size = 40) -> ExperimentResult:
    rows, z_max = [], 0.0
    for i, (m, radius) in enumerate(itertools.product(M, r)):
        extent = 4.0 / radius
        grid = FreqGrid(1, extent, int(16 * extent))
        (e2, se2), (e4, se4) = np_moment_estimate(m, radius, (2.0, 4.0), grid, trials, _rng(seed, "np", i))
        oracle = np_variance_oracle(m, radius, grid)
        z_max = np.maximum(z_max, abs(e2 - oracle) / se2)  # NaN propagates
        rows.append((m, radius, e2, se2, oracle, e4, se4, m**-2.0 * radius**-1.0))
    xs = np.log([row[7] for row in rows])
    ys = np.log([row[5] for row in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    checks = [
        CheckResult("variance_oracle_3sigma", z_max, 3.0),  # p = 2 estimates against the closed form
        CheckResult("p4_scaling_slope", abs(slope - 1.0), 0.15),
    ]
    tables = {
        "sweep": (
            ("M", "r", "p2_estimate", "p2_stderr", "p2_oracle", "p4_estimate", "p4_stderr", "M_pow_r_pow"),
            rows,
        )
    }
    return ExperimentResult("NP_SWEEP", checks, tables)


def run_ooo_sweep(seed: int, *, p=(3.0, 4.0, 6.0)) -> ExperimentResult:
    del seed
    ks = range(3, 11)
    checks, rows = [], []
    for exponent in p:
        pp = exponent / (exponent - 1.0)
        rs = [2.0**-k for k in ks]
        vals = [ooo_deviation(r, exponent) for r in rs]
        slope = float(np.polyfit(np.log(rs), np.log(vals), 1)[0])
        checks.append(CheckResult(f"ooo_slope_p={exponent}", abs(slope - 1.0 / pp), 0.05))
        for r, v in zip(rs, vals):
            rows.append((exponent, r, v, v / r ** (1.0 / pp)))
    ref = recorded.OOO_REFERENCE
    val = ooo_deviation(ref["r"], ref["p"])
    checks.append(CheckResult("ooo_reference_value", abs(val - ref["value"]), 1e-9))
    tables = {"sweep": (("p", "r", "dual_norm", "ratio_to_r_pow"), rows)}
    return ExperimentResult("OOO_SWEEP", checks, tables)


def run_dd_corpus(seed: int, *, n_families: Size = 50) -> ExperimentResult:
    rec = recorded.DD_CORPUS_MAX
    rows, max_l2, max_sob = [], 0.0, 0.0
    for i, fam in enumerate(dd_corpus(seed, n_families)):
        min_r = min(r for _, r in fam.bumps)
        extent = 16.0 / min_r
        n = int(max(4096, 8 * math.ceil(extent)))
        n += n % 2
        grid = FreqGrid(1, extent, n)
        l2, sob, l2b, sobb = bump_sum_norms(fam, grid)
        rows.append((i, len(fam.bumps), min_r, l2 / l2b, sob / sobb))
        max_l2 = max(max_l2, l2 / l2b)
        max_sob = max(max_sob, sob / sobb)
    r0 = 0.25
    grid = FreqGrid(1, 16.0 / r0, 4096)
    one = bump_sum_norms(BumpFamily((((0.0,), r0),), 1), grid)
    two = bump_sum_norms(BumpFamily((((0.0,), r0), ((10.0,), r0)), 1), grid)
    ortho = abs(two[0] - math.sqrt(2.0) * one[0])
    checks = [
        CheckResult("dd_l2_ratio_regression", max_l2, rec["l2"]),
        CheckResult("dd_sobolev_ratio_regression", max_sob, rec["sobolev"]),
        CheckResult("dd_two_bump_orthogonality", ortho, math.nextafter(1e-6, 0)),
    ]
    tables = {"ratios": (("family", "bumps", "min_radius", "l2_ratio", "sobolev_ratio"), rows)}
    return ExperimentResult("DD_CORPUS", checks, tables)


def run_spectrum_norm(
    seed: int, *, preset="norm-growth", budget=64, extent=None, samples=2**17
) -> ExperimentResult:
    cp = presets.preset(preset, seed=seed)
    tree = build_tree(cp)
    tree, mus = realize_tree(tree, cp, budget=budget)
    rec = recorded.NORM_GROWTH
    e = LorentzExponents(cp.p, cp.q)
    if extent is None:
        extent = 4.0 / min(side for _, side, _ in mus[-1].atoms)
    grid = FreqGrid(1, extent, samples)
    fine = FreqGrid(1, 2.0 * extent, 2 * samples)
    norms, norms_fine = _spectrum_norms(mus, grid, e), _spectrum_norms(mus, fine, e)
    refine_dev = max(abs(a - b) / a for a, b in zip(norms, norms_fine))
    rows, c_needed = [], 0.0
    for k, (ki, m, r) in enumerate(tree.steps):
        node = tree.nodes[ki]
        b = float(node.weight)
        incr = b ** (cp.q - cp.q / (2.0 * cp.beta)) * (node.layer + 1) ** (cp.q * cp.d / cp.p)
        lhs = norms[k + 1] ** cp.q - norms[k] ** cp.q
        c_needed = max(c_needed, lhs / incr)
        rows.append((k, norms[k], norms[k + 1], lhs, incr, lhs / incr))
    checks = [
        CheckResult("norm_refinement_stable", refine_dev, math.nextafter(0.02, 0)),
        CheckResult("per_step_norm_growth", c_needed, rec["C"]),
    ]
    tables = {"growth": (("step", "norm_k", "norm_k1", "q_power_increment", "weight_term", "C_needed"), rows)}
    return ExperimentResult("SPECTRUM_NORM", checks, tables)


def run_resl_series(seed: int, *, q=(1.5, 2.0, 3.0), n_max: Size = 200) -> ExperimentResult:
    del seed
    rows, unwitnessed = [], 0
    for qv in q:
        if not 1 < qv < math.inf:
            raise ValueError(f"every q must lie in (1, inf), got {qv!r}")
        qp = qv / (qv - 1.0)
        betas = np.round(np.arange(qp / 2.0 - 0.25, qp / 2.0 + 0.55, 0.05), 10)
        for beta in betas[betas > 0]:
            sums, verdict, upper = resl_series(4.0, qv, 1, float(beta), n_max)
            rows.append((qv, float(beta), qp / 2.0, verdict.value, float(sums[-1]), upper))
            # every term >= 1 witnesses divergence; a finite bound, convergence
            if verdict is SeriesVerdict.DIVERGENT:
                unwitnessed += not (sums[0] >= 1 and np.all(np.diff(sums) >= 1))
            else:
                unwitnessed += not math.isfinite(upper)
    checks = [CheckResult("resl_threshold", unwitnessed, 0)]
    tables = {"verdicts": (("q", "beta", "critical_beta", "verdict", "partial_sum", "sum_upper"), rows)}
    return ExperimentResult("RESL_SERIES", checks, tables)


def run_hlp(seed: int, *, n_clouds: Size = 20) -> ExperimentResult:
    rng = _rng(seed, "hlp")
    sub, sep, jump, gauge = [], [], [], []  # the records of each item
    for _ in range(n_clouds):
        a = random_cloud(rng, int(rng.integers(1, 7)))
        b = random_cloud(rng, int(rng.integers(1, 7)))
        alpha = float(rng.choice((0.3, 0.5, 1.0)))
        q = (0.5, 1.0, 2.0, math.inf)[int(rng.integers(0, 4))]
        inst = HlpInstance(cloud_a=a, cloud_b=b, params=CapacityParams(alpha, q), delta=0.5, depth=7)
        sub.append(check_hlp_item(HlpItem.SUBADDITIVITY, inst))
    for _ in range(n_clouds):
        # the clouds lie in [0, 0.2] and [0.8, 1], at least 0.6 > delta apart
        a = PointCloud(tuple((float(x) * 0.2,) for x in rng.random(3)), 1)
        b = PointCloud(tuple((0.8 + float(x) * 0.2,) for x in rng.random(3)), 1)
        q = (0.5, 1.0, 2.0)[int(rng.integers(0, 3))]
        inst = HlpInstance(
            cloud_a=a, cloud_b=b, params=CapacityParams(0.5, q), delta=0.25, depth=7
        )
        sep.append(check_hlp_item(HlpItem.SEPARATED_ADDITIVITY, inst))
    profiles = profile_gallery(seed)
    for profile in profiles:
        jump.append(check_hlp_item(HlpItem.Q_MONOTONE, HlpInstance(profile=profile, alpha=0.5, q=1.0, q2=2.0)))
        jump.append(check_hlp_item(HlpItem.ALPHA_JUMP, HlpInstance(profile=profile, alpha=0.5, alpha2=0.8)))
    chains = ((HlpItem.GAUGE_LOWER, (0.25, 0.5, 0.75)), (HlpItem.GAUGE_UPPER, (1.5, 2.0, 4.0, math.inf)))
    for profile, phi, (item, qs) in itertools.product(profiles, gauge_gallery(0.5), chains):
        for qv in qs:
            gauge.append(check_hlp_item(item, HlpInstance(profile=profile, gauge=phi, alpha=0.5, q=qv)))
    checks = _worst(("subadditivity", sub), ("separated_additivity", sep), ("q_monotone_alpha_jump", jump),
                    ("gauge_chains", gauge))
    return ExperimentResult("HLP", checks)


def run_frostman(seed: int, *, alpha=0.5, q=1.0, gamma=1.0, preset_seed=7) -> ExperimentResult:
    rec = recorded.FROSTMAN
    mu = frostman_measure(seed=preset_seed)
    res = frostman_ratio(mu, alpha, q, gamma, rng=_rng(seed, "frostman"))
    checks = [CheckResult("frostman_transfer", res.conclusion_constant, rec["K"] * res.hypothesis_constant)]
    rows = [
        (res.hypothesis_constant, res.conclusion_constant, rec["K"], res.families_tried, res.sets_tried)
    ]
    tables = {
        "constants": (
            ("hypothesis_constant", "conclusion_constant", "recorded_K", "families", "test_sets"),
            rows,
        )
    }
    return ExperimentResult("FROSTMAN", checks, tables)


def _log_gauge(eps: float):
    """phi(t) = t^2 (log 1/t)^(-eps) on (0, 1), extended by 0 and t^2."""
    return lambda t: t**2 * math.log(1.0 / t) ** (-eps) if 0 < t < 1 else (0.0 if t <= 0 else t**2)


def run_phi_general(seed: int) -> ExperimentResult:
    """Exploratory gauge generalization: the power gauge supplied explicitly
    must reproduce the power path, and slower-vanishing gauges give larger
    covering sums on the same covering.

    The second claim holds only where every block sum t lies below 1/e: for
    t > 1/e, t^2 (log 1/t)^(-eps) falls as eps falls.  It is checked on
    diameters 2^-3..2^-11, whose largest block sum is 2^-1.5.  The covering
    that adds 2^-2 (block sum 0.5) is tabulated as a second row, unchecked:
    there the sums fall as eps falls.
    """
    rng = _rng(seed, "phi")
    rows, deviation = [], 0.0
    for _ in range(10):
        cloud = random_cloud(rng, int(rng.integers(1, 6)))
        alpha = 0.5
        q = float(rng.choice((0.5, 1.0, 2.0)))
        memo: dict = {}  # both gauges score one frontier
        power = nh_capacity_delta(cloud, CapacityParams(alpha, q), 0.5, 7, memo)
        explicit = nh_capacity_delta(
            cloud, CapacityParams(alpha, q, phi=lambda t, q=q: t**q), 0.5, 7, memo
        )
        deviation = np.maximum(deviation, abs(power - explicit) / max(1.0, power))  # NaN propagates
    alpha, eps_values = 0.5, (0.5, 0.25, 0.1, 0.0)
    falls = []  # of the covering sums as the gauge vanishes slower
    for first in (3, 2):
        cov = DyadicCovering(tuple(2.0**-k for k in range(first, 12)))
        # one diameter per dyadic block, so the block sums are t^alpha
        largest = max(cov.diameters) ** alpha
        sums = [nh_covering_sum(cov, CapacityParams(alpha, 2.0, phi=_log_gauge(e))) for e in eps_values]
        falls.append(sum(b < a - 1e-15 for a, b in zip(sums, sums[1:])))
        rows.append((max(cov.diameters), largest, *sums, falls[-1] == 0))
    largest = rows[0][1]
    if largest >= 1.0 / math.e:
        raise ValueError(f"block sum {largest} is not below 1/e; the gauge claim does not apply")
    checks = [
        CheckResult("phi_power_consistency", deviation, 1e-12),
        CheckResult("phi_slower_vanishing_larger", falls[0], 0),
    ]
    header = ("largest_diameter", "largest_block_sum", *(f"sum_eps_{e}" for e in eps_values), "sums_rise")
    tables = {"gauges": (header, rows)}
    return ExperimentResult("PHI_GENERAL", checks, tables)


def covering_keys(cloud: PointCloud, delta: float, depth: int) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct per-generation count vectors of the antichain coverings.

    Each generation fills one dyadic block, and ``nh_covering_sum`` adds the
    blocks coarse to fine, so a covering's counts fix its sum.  Returns
    ``(diameters, counts)``, one column per generation g_min..depth; the
    rows of ``counts``, in ascending lexicographic order, are the keys.  A
    box's keys are its own (one set of its generation), then the product of
    its kids' keys: the distinct rows of their Minkowski sum, sorted by
    ``np.lexsort`` on the columns (numeric order in any count dtype) and
    kept where a row differs from the one before it.
    """
    g_min = _coarsest_generation(delta, depth)
    gens = np.arange(g_min, depth + 1)
    dtype = np.min_scalar_type(len(cloud.points))

    def product(a, b):
        rows = (a[:, None, :] + b[None, :, :]).reshape(-1, len(gens))
        rows = rows[np.lexsort(rows.T[::-1])]
        return rows[np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))]

    def box_keys(points, g):
        own = (gens == g).astype(dtype)[None]
        if g == depth:
            return own
        kids = (box_keys(kid, g + 1) for kid in _groups(points, g + 1))
        return np.vstack((own, functools.reduce(product, kids)))

    tops = (box_keys(points, g_min) for points in _groups(cloud.points, g_min))
    counts = functools.reduce(product, tops, np.zeros((1, len(gens)), dtype))
    return 2.0 ** -gens * math.sqrt(cloud.d), counts


def capacity_dp_exactness(seed: int) -> ExperimentResult:
    """Pareto-frontier optimum vs exhaustive antichain enumeration.  The DP
    and the search share the scorer ``covering_sums``, so the brute value is
    ``nh_covering_sum`` of the covering rebuilt from the least-scored key:
    one check of the pruned search and of the scorer."""
    rng = _rng(seed, "dp")
    clouds = [
        PointCloud(tuple((x,) for x in (0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 0.984375, 0.9921875)), 1),
        PointCloud(tuple((x,) for x in (0.1, 0.12, 0.6, 0.61, 0.62, 0.9, 0.91, 0.99)), 1),
    ] + [random_cloud(rng, 5) for _ in range(3)]
    worst = 0.0
    for ci, cloud in enumerate(clouds):
        depth = 8 if ci < 2 else 7
        diameters, counts = keys = covering_keys(cloud, 0.5, depth)
        memo: dict = {}  # every gauge scores the cloud's one frontier
        for q in (0.5, 1.0, 2.0, math.inf):
            params = CapacityParams(0.5, q)
            dp = nh_capacity_delta(cloud, params, 0.5, depth, memo)
            least = counts[covering_sums(keys, params).argmin()]
            brute = nh_covering_sum(DyadicCovering(np.repeat(diameters, least).tolist()), params)
            worst = np.maximum(worst, abs(dp - brute))  # NaN propagates
    return ExperimentResult("CAPACITY_DP", [CheckResult("capacity_dp_exact", worst, 0)])


# Each runner takes the seed and then its parameters, keyword-only with
# their defaults, a size annotated Size: the signature is the parameters'
# one schema.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "LORNOR": run_lornor,
    "HLP": run_hlp,
    "H_ZERO": run_h_zero,
    "NP_SWEEP": run_np_sweep,
    "OOO_SWEEP": run_ooo_sweep,
    "DD_CORPUS": run_dd_corpus,
    "CONSTRUCT": run_construct,
    "SPECTRUM_NORM": run_spectrum_norm,
    "RESL_SERIES": run_resl_series,
    "FROSTMAN": run_frostman,
    "TR_PPLUS": run_tr_pplus,
    "PHI_GENERAL": run_phi_general,
}


def _kind(default) -> Tuple[str, tuple]:
    """The kind of value a parameter takes, and its accepted types, read
    from the type of its default: a tuple takes a list (of its first item's
    kind), a str a name, an int a whole number, and a float or None (a
    default derived at run time) a number.  A bool is never a number."""
    if isinstance(default, tuple):
        return "list", (list, tuple)
    if isinstance(default, str):
        return "name", (str,)
    if isinstance(default, int):
        return "whole number", (int,)
    return "number", (int, float)


def check_params(experiment: str, params: dict) -> None:
    """Raise ValueError for an unknown experiment or parameter key, a value
    of the wrong kind, an empty list or a size below 1, and
    ResourceLimitError for a size past 100 times its default: all before
    the runner draws anything."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    allowed = {
        name: p
        for name, p in inspect.signature(EXPERIMENTS[experiment], eval_str=True).parameters.items()
        if p.kind is p.KEYWORD_ONLY
    }
    for key, value in params.items():
        if key not in allowed:
            raise ValueError(f"unknown parameter {key!r} for {experiment}; allowed: {tuple(allowed)}")
        default = allowed[key].default
        kind, types = _kind(default)
        if not isinstance(value, types) or isinstance(value, bool):
            raise ValueError(f"{experiment}: parameter {key!r} takes a {kind}, got {value!r}")
        if kind == "list":
            if not value:
                raise ValueError(f"{experiment}: parameter {key!r} takes a non-empty list, got {value!r}")
            kind, types = _kind(default[0])
            if any(not isinstance(item, types) or isinstance(item, bool) for item in value):
                raise ValueError(f"{experiment}: parameter {key!r} takes a list of {kind}s, got {value!r}")
        if allowed[key].annotation in (Size, Sizes):
            sizes, defaults = (value, default) if isinstance(default, tuple) else ((value,), (default,))
            bound = 100 * max(defaults)
            message = (f"{experiment}: parameter {key!r} takes sizes from 1 to {bound}, "
                       f"100 times its default, got {value!r}")
            if min(sizes) < 1:
                raise ValueError(message)
            if max(sizes) > bound:
                raise ResourceLimitError(message)


def run_experiment(experiment: str, params: dict, seed: int) -> ExperimentResult:
    check_params(experiment, params)
    return EXPERIMENTS[experiment](seed, **params)
