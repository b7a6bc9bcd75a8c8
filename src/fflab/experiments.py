"""Seeded corpora and the experiment runner binding the core modules.

Every experiment is a pure function of (params, seed); RNG streams are
derived per sub-task from the seed, so no result depends on the order in
which the sub-tasks run.  Numeric artifacts are CSV tables with
repr-formatted floats, which makes re-runs byte-identical.
"""

from __future__ import annotations

import csv
import itertools
import math
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import recorded
from .capacity import (
    CapacityParams,
    DyadicCovering,
    GaugeFunction,
    GridMeasure,
    HlpInstance,
    HlpItem,
    PointCloud,
    check_hlp_item,
    enumerate_antichain_coverings,
    frostman_ratio,
    nh_capacity_delta,
    nh_covering_sum,
)
from .cantor import build_tree, layer_covering, realize_tree
from .lorentz import (
    LorentzExponents,
    PplusStatus,
    _TRIANGLE_RTOL,
    _lornor_ratios,
    _pad_rows,
    _pplus_rows,
    _quasi_triangle_rows,
)
from .presets import preset
from .spectral import (
    BumpFamily,
    FreqGrid,
    SeriesVerdict,
    bump_sum_norms,
    cube_measure_transform,
    lorentz_spectrum_norm,
    np_moment_estimate,
    np_variance_oracle,
    ooo_deviation,
    resl_series,
)

__all__ = [
    "CheckResult",
    "ExperimentResult",
    "EXPERIMENTS",
    "ALLOWED_PARAMS",
    "check_params",
    "run_experiment",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


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
    outdir.mkdir(parents=True, exist_ok=True)
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


# Sequences or instances drawn together.  A LORNOR chunk of 512 peaks at
# 1.6 MiB under tracemalloc (1024 would peak at 2.8 MiB for padding 11 %
# instead of 20 %), and it lets run_tr_pplus make a kernel call for about
# 57 rows instead of 14.
_CORPUS_BLOCK = 512
# Rows per LORNOR kernel call.  Wider blocks of up to 199 columns fall out
# of cache: 512 rows made c5 slower, not faster.
_LORNOR_ROWS = 128


def lornor_corpus(alpha: float, q: float, seed: int, n_seq: int):
    """The seeded sequences, yielded as blocks of up to _LORNOR_ROWS rows
    padded with 0.  The sequences are drawn in chunks of _CORPUS_BLOCK, one
    uniform draw per chunk (the same values as one draw per sequence); each
    chunk is put in stable length order and cut into blocks, so a block is
    padded only to its own longest row.  Lengths are uniform on 3..199, so
    sorting cuts the padding from about 48 % of the cells to about 20 %."""
    rng = _rng(seed, "lornor", repr(alpha), repr(float(q)))
    lengths = rng.integers(3, 200, n_seq)
    for start in range(0, n_seq, _CORPUS_BLOCK):
        chunk = lengths[start : start + _CORPUS_BLOCK]
        draw = np.exp(rng.uniform(math.log(2.0**-12), math.log(0.5), int(chunk.sum())))
        order = np.argsort(chunk, kind="stable")
        by_length = chunk[order]
        firsts = np.cumsum(by_length) - by_length
        # sequence order[k] moves from its offset in the draw to firsts[k]
        shift = (np.cumsum(chunk) - chunk)[order] - firsts
        draw = draw[np.repeat(shift, by_length) + np.arange(draw.size)]
        for row in range(0, len(chunk), _LORNOR_ROWS):
            block = by_length[row : row + _LORNOR_ROWS]
            yield _pad_rows(draw[firsts[row] : firsts[row] + block.sum()], block)


def _log_plateaus(rng: np.random.Generator):
    """The logarithms of a random sample's plateau values and masses, one
    to six plateaus."""
    n = int(rng.integers(1, 7))
    return rng.normal(0.0, 1.5, n), rng.normal(0.0, 1.5, n)


def _plateau_rows(log_plateaus):
    """(values, masses) rows padded with (0, 0) from a list of ``_log_plateaus``."""
    lengths = [len(v) for v, _ in log_plateaus]
    return tuple(_pad_rows(np.exp(np.concatenate(logs)), lengths) for logs in zip(*log_plateaus))


def _past(masses: np.ndarray) -> np.ndarray:
    """The origin just past each row's plateaus laid out from 0: the total
    mass, summed in order as ``WeightedSample.total_mass`` does, plus 1."""
    return np.cumsum(masses, axis=1)[:, -1] + 1.0


TR_EXPONENTS = ((4.0, 2.0), (3.0, 1.0), (2.5, 0.7))


def _block_exponents(start: int, stop: int) -> np.ndarray:
    """(p, q) of instances start..stop-1, which cycle through TR_EXPONENTS."""
    return np.array(TR_EXPONENTS)[np.arange(start, stop) % len(TR_EXPONENTS)]


def tr_corpus(seed: int, n_pairs: int):
    """The seeded quasi-triangle pairs, yielded as blocks of up to
    _CORPUS_BLOCK instances (f, g, pq, eps): f and g are (values, masses,
    origins) rows padded with (0, 0), pq the (rows, 2) exponents and eps
    the rows' epsilons.  Half the g start just past f, the rest at 0.  The
    draws are made instance by instance (f, side, g, eps), so a block holds
    the values of drawing each pair alone, to the bit.  A row has at most
    six plateaus, so a block of 512 stays small, and its nine (p, q, eps)
    groups give the kernels about 57 rows a call."""
    rng = _rng(seed, "tr")
    eps_menu = (0.1, 0.5, 1.0)
    for start in range(0, n_pairs, _CORPUS_BLOCK):
        stop = min(start + _CORPUS_BLOCK, n_pairs)
        fs, gs, disjoint, eps = [], [], [], []
        for _ in range(start, stop):
            fs.append(_log_plateaus(rng))
            disjoint.append(bool(rng.integers(0, 2)))
            gs.append(_log_plateaus(rng))
            eps.append(eps_menu[int(rng.integers(0, len(eps_menu)))])
        f_vals, f_masses = _plateau_rows(fs)
        f = (f_vals, f_masses, np.zeros(stop - start))
        g = (*_plateau_rows(gs), np.where(disjoint, _past(f_masses), 0.0))
        yield f, g, _block_exponents(start, stop), np.array(eps)


# Length of each P+ instance's sequence g_1, g_2, ...
_PPLUS_SEQ_LEN = 16


def pplus_corpus(seed: int, n_instances: int):
    """The seeded asymptotic-addition instances, yielded as blocks of up to
    _CORPUS_BLOCK instances (f, gs, pq, a_limits): f as in ``tr_corpus``,
    gs the sequences g_1..g_L, L = _PPLUS_SEQ_LEN, of one plateau each as
    (rows, L, 1) values and masses and (rows, L) origins, all just past f, pq
    the exponents and a_limits the limits A.  The draws are made instance
    by instance (f, A), so a block holds the values of drawing each
    instance alone, to the bit.  Blocks of 512 give each of the three
    exponent groups about 170 rows a call."""
    rng = _rng(seed, "pplus")
    # single plateaus of constant Lorentz norm and vanishing higher norm
    masses = [2.0 ** (4 * j) for j in range(1, _PPLUS_SEQ_LEN + 1)]
    shrink = {p: np.array([m ** (-1.0 / p) for m in masses]) for p, _ in TR_EXPONENTS}
    for start in range(0, n_instances, _CORPUS_BLOCK):
        stop = min(start + _CORPUS_BLOCK, n_instances)
        fs, a_limits = [], []
        for _ in range(start, stop):
            fs.append(_log_plateaus(rng))
            a_limits.append(float(np.exp(rng.normal(0.0, 0.7))))
        f_vals, f_masses = _plateau_rows(fs)
        pq = _block_exponents(start, stop)
        a_limits = np.array(a_limits)
        g_vals = a_limits[:, None] * np.array([shrink[p] for p in pq[:, 0].tolist()])
        g_masses = np.tile(masses, (stop - start, 1))
        origins = np.repeat(_past(f_masses)[:, None], _PPLUS_SEQ_LEN, axis=1)
        gs = (g_vals[..., None], g_masses[..., None], origins)
        yield (f_vals, f_masses, np.zeros(stop - start)), gs, pq, a_limits


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
    params = preset("norm-growth", depth=2, seed=seed)
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


def run_lornor(params: dict, seed: int) -> ExperimentResult:
    n_seq = int(params.get("n_seq", 10_000))
    bands = recorded.LORNOR_BANDS
    checks, rows = [], []
    for alpha in params.get("alphas", LORNOR_ALPHAS):
        for q in params.get("qs", LORNOR_QS):
            ratios = np.concatenate(
                [_lornor_ratios(block, alpha, q) for block in lornor_corpus(alpha, q, seed, n_seq)]
            )
            lo, hi = float(ratios.min()), float(ratios.max())
            q_key = repr(float(q))
            band = bands[(repr(float(alpha)), q_key)]
            ok = 1.0 / band <= lo and hi <= band
            rows.append((alpha, q_key, lo, hi, band, int(ok)))
            checks.append(
                CheckResult(
                    f"lornor_band_alpha={alpha}_q={q_key}",
                    ok,
                    f"ratios in [{lo:.6g}, {hi:.6g}], band C = {band}",
                )
            )
    tables = {"bands": (("alpha", "q", "ratio_min", "ratio_max", "band_C", "ok"), rows)}
    return ExperimentResult("LORNOR", checks, tables)


def _by_key(keys: np.ndarray):
    """(key, row mask) for each distinct row of ``keys``, in sorted order:
    the one grouping of a corpus block by its rows' scalar kernel arguments."""
    for key in sorted(set(map(tuple, keys.tolist()))):
        yield key, np.all(keys == key, axis=1)


def _take(rows, mask) -> tuple:
    return tuple(a[mask] for a in rows)


def run_tr_pplus(params: dict, seed: int) -> ExperimentResult:
    n = int(params.get("n_instances", 10_000))
    violations = 0
    for f, g, pq, eps in tr_corpus(seed, n):
        for (p, q, e), mask in _by_key(np.column_stack((pq, eps))):
            lhs, rhs = _quasi_triangle_rows(_take(f, mask), _take(g, mask), LorentzExponents(p, q), e)
            violations += int(np.count_nonzero(lhs > rhs * (1.0 + _TRIANGLE_RTOL)))
    statuses = Counter()
    for f, gs, pq, a_limits in pplus_corpus(seed, n):
        for (p, q), mask in _by_key(pq):
            e = LorentzExponents(p, q)
            status, *_ = _pplus_rows(_take(f, mask), _take(gs, mask), a_limits[mask], e, p + 1.0)
            statuses.update(status.tolist())
    bad = statuses[PplusStatus.VIOLATION]
    inapplicable = statuses[PplusStatus.NOT_APPLICABLE]
    checks = [
        CheckResult("quasi_triangle_zero_violations", violations == 0, f"{violations} violations / {n}"),
        CheckResult(
            "pplus_zero_violations",
            bad == 0 and inapplicable == 0,
            f"{bad} violations, {inapplicable} inapplicable / {n}",
        ),
    ]
    return ExperimentResult("TR_PPLUS", checks)


def run_h_zero(params: dict, seed: int) -> ExperimentResult:
    layers = int(params.get("layers", 4))
    cp = preset("layer-law", depth=layers, seed=seed)
    tree = build_tree(cp)
    cap_params = CapacityParams(2.0 * cp.d / cp.p, cp.beta)
    rows, worst = [], 0.0
    for n in range(1, layers + 1):
        s = nh_covering_sum(layer_covering(tree, n), cap_params)
        target = n ** (-2.0 * cp.d * cp.beta / cp.p)
        worst = max(worst, abs(s - target))
        rows.append((n, s, target, abs(s - target)))
    checks = [CheckResult("layer_sum_law", worst < 1e-9, f"max abs deviation {worst:.3g}")]
    tables = {"layer_sums": (("n", "layer_sum", "n_power_law", "abs_err"), rows)}
    return ExperimentResult("H_ZERO", checks, tables)


def run_construct(params: dict, seed: int) -> ExperimentResult:
    name = params.get("preset", "norm-growth")
    depth = int(params.get("depth", 0))
    cp = preset(name, depth=depth, seed=seed)
    tree = build_tree(cp)
    checks = []
    complete = tree.max_complete_layer()
    weight_ok = all(tree.layer_weight_sum(n) == 1 for n in range(complete + 1))
    checks.append(CheckResult("weight_conservation", weight_ok, f"layers 0..{complete} sum to 1 exactly"))
    bound_ok = all(
        node.weight <= (1 if node.layer == 0 else 1.0 / 2**node.layer) for node in tree.nodes
    )
    checks.append(CheckResult("weight_bound", bound_ok, "b <= 2^-n on all nodes"))
    tree, mus = realize_tree(tree, cp, budget=int(params.get("budget", 64)))
    mass_ok = all(abs(m.total_mass - 1.0) < 1e-12 for m in mus)
    checks.append(CheckResult("mass_conservation", mass_ok, f"{len(mus)} stages"))
    nest_ok = True
    for k, m, r in tree.steps:
        parent = tree.nodes[k]
        for kid_idx in parent.kids:
            kid = tree.nodes[kid_idx]
            for a in range(cp.d):
                if kid.corner[a] < parent.corner[a] - 1e-12 or kid.corner[a] + kid.side > parent.corner[a] + parent.side + 1e-12:
                    nest_ok = False
    checks.append(CheckResult("support_nesting", nest_ok, "kid cubes inside parents"))
    rows = [
        (node.index, node.parent if node.parent is not None else -1, node.layer,
         str(node.weight), node.side)
        for node in tree.nodes
    ]
    tables = {"tree": (("index", "parent", "layer", "weight", "side"), rows)}
    return ExperimentResult("CONSTRUCT", checks, tables)


def run_np_sweep(params: dict, seed: int) -> ExperimentResult:
    ms = params.get("M", (16, 64, 256))
    rs = params.get("r", (0.125, 0.03125))
    trials = int(params.get("trials", 40))
    slope_tol = float(params.get("slope_tol", 0.15))

    checks, rows = [], []
    sigma_ok = True
    for i, (m, r) in enumerate(itertools.product(ms, rs)):
        extent = 4.0 / r
        grid = FreqGrid(1, extent, int(16 * extent))
        (e2, se2), (e4, se4) = np_moment_estimate(m, r, (2.0, 4.0), grid, trials, _rng(seed, "np", i))
        oracle = np_variance_oracle(m, r, grid)
        sigma_ok = sigma_ok and abs(e2 - oracle) <= 3.0 * se2
        rows.append((m, r, e2, se2, oracle, e4, se4, m**-2.0 * r**-1.0))
    checks.append(CheckResult("variance_oracle_3sigma", sigma_ok, "p = 2 estimates vs closed form"))
    xs = np.log([row[7] for row in rows])
    ys = np.log([row[5] for row in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    checks.append(
        CheckResult(
            "p4_scaling_slope",
            abs(slope - 1.0) <= slope_tol,
            f"log-log slope {slope:.4f} vs 1 +- {slope_tol}",
        )
    )
    tables = {
        "sweep": (
            ("M", "r", "p2_estimate", "p2_stderr", "p2_oracle", "p4_estimate", "p4_stderr", "M_pow_r_pow"),
            rows,
        )
    }
    return ExperimentResult("NP_SWEEP", checks, tables)


def run_ooo_sweep(params: dict, seed: int) -> ExperimentResult:
    del seed
    ps = params.get("p", (3.0, 4.0, 6.0))
    ks = range(3, 11)
    checks, rows = [], []
    for p in ps:
        pp = p / (p - 1.0)
        rs = [2.0**-k for k in ks]
        vals = [ooo_deviation(r, p) for r in rs]
        slope = float(np.polyfit(np.log(rs), np.log(vals), 1)[0])
        ok = abs(slope - 1.0 / pp) <= 0.05
        checks.append(
            CheckResult(f"ooo_slope_p={p}", ok, f"slope {slope:.4f} vs 1/p' = {1 / pp:.4f}")
        )
        for r, v in zip(rs, vals):
            rows.append((p, r, v, v / r ** (1.0 / pp)))
    ref = recorded.OOO_REFERENCE
    val = ooo_deviation(ref["r"], ref["p"])
    checks.append(
        CheckResult(
            "ooo_reference_value",
            abs(val - ref["value"]) <= 1e-9,
            f"value {val!r} vs recorded {ref['value']!r}",
        )
    )
    tables = {"sweep": (("p", "r", "dual_norm", "ratio_to_r_pow"), rows)}
    return ExperimentResult("OOO_SWEEP", checks, tables)


def run_dd_corpus(params: dict, seed: int) -> ExperimentResult:
    n_families = int(params.get("n_families", 50))
    rec = recorded.DD_CORPUS_MAX
    checks, rows = [], []
    max_l2, max_sob = 0.0, 0.0
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
    checks.append(
        CheckResult(
            "dd_l2_ratio_regression",
            max_l2 <= rec["l2"],
            f"corpus max {max_l2:.6g} vs recorded {rec['l2']}",
        )
    )
    checks.append(
        CheckResult(
            "dd_sobolev_ratio_regression",
            max_sob <= rec["sobolev"],
            f"corpus max {max_sob:.6g} vs recorded {rec['sobolev']}",
        )
    )
    r0 = 0.25
    grid = FreqGrid(1, 16.0 / r0, 4096)
    one = bump_sum_norms(BumpFamily((((0.0,), r0),), 1), grid)
    two = bump_sum_norms(BumpFamily((((0.0,), r0), ((10.0,), r0)), 1), grid)
    ortho = abs(two[0] - math.sqrt(2.0) * one[0])
    checks.append(
        CheckResult("dd_two_bump_orthogonality", ortho < 1e-6, f"deviation {ortho:.3g}")
    )
    tables = {"ratios": (("family", "bumps", "min_radius", "l2_ratio", "sobolev_ratio"), rows)}
    return ExperimentResult("DD_CORPUS", checks, tables)


def run_spectrum_norm(params: dict, seed: int) -> ExperimentResult:
    cp = preset(params.get("preset", "norm-growth"), seed=seed)
    tree = build_tree(cp)
    tree, mus = realize_tree(tree, cp, budget=int(params.get("budget", 64)))
    rec = recorded.NORM_GROWTH
    e = LorentzExponents(cp.p, cp.q)
    min_side = min(side for _, side, _ in mus[-1].atoms)
    extent = float(params.get("extent", 4.0 / min_side))
    samples = int(params.get("samples", 2**17))
    grid = FreqGrid(1, extent, samples)
    fine = FreqGrid(1, 2.0 * extent, 2 * samples)
    norms = [lorentz_spectrum_norm(cube_measure_transform(m, grid), e) for m in mus]
    norms_fine = [lorentz_spectrum_norm(cube_measure_transform(m, fine), e) for m in mus]
    refine_dev = max(abs(a - b) / a for a, b in zip(norms, norms_fine))
    checks = [
        CheckResult("norm_refinement_stable", refine_dev < 0.02, f"max relative change {refine_dev:.3g}")
    ]
    rows = []
    c_needed = 0.0
    for k, (ki, m, r) in enumerate(tree.steps):
        node = tree.nodes[ki]
        b = float(node.weight)
        incr = b ** (cp.q - cp.q / (2.0 * cp.beta)) * (node.layer + 1) ** (cp.q * cp.d / cp.p)
        lhs = norms[k + 1] ** cp.q - norms[k] ** cp.q
        c_needed = max(c_needed, lhs / incr)
        rows.append((k, norms[k], norms[k + 1], lhs, incr, lhs / incr))
    checks.append(
        CheckResult(
            "per_step_norm_growth",
            c_needed <= rec["C"],
            f"needed C {c_needed:.6g} vs recorded {rec['C']}",
        )
    )
    tables = {"growth": (("step", "norm_k", "norm_k1", "q_power_increment", "weight_term", "C_needed"), rows)}
    return ExperimentResult("SPECTRUM_NORM", checks, tables)


def run_resl_series(params: dict, seed: int) -> ExperimentResult:
    del seed
    qs = params.get("q", (1.5, 2.0, 3.0))
    n_max = int(params.get("n_max", 200))
    rows, witnessed = [], []
    for q in qs:
        if not 1 < q < math.inf:
            raise ValueError(f"every q must lie in (1, inf), got {q!r}")
        qp = q / (q - 1.0)
        betas = np.round(np.arange(qp / 2.0 - 0.25, qp / 2.0 + 0.55, 0.05), 10)
        for beta in betas[betas > 0]:
            sums, verdict, upper = resl_series(4.0, q, 1, float(beta), n_max)
            rows.append((q, float(beta), qp / 2.0, verdict.value, float(sums[-1]), upper))
            # every term >= 1 witnesses divergence; a finite bound, convergence
            if verdict is SeriesVerdict.DIVERGENT:
                witnessed.append(sums[0] >= 1 and bool(np.all(np.diff(sums) >= 1)))
            else:
                witnessed.append(math.isfinite(upper))
    checks = [CheckResult("resl_threshold", bool(all(witnessed)), "verdict flips at the critical exponent")]
    tables = {"verdicts": (("q", "beta", "critical_beta", "verdict", "partial_sum", "sum_upper"), rows)}
    return ExperimentResult("RESL_SERIES", checks, tables)


def run_hlp(params: dict, seed: int) -> ExperimentResult:
    checks = []
    rng = _rng(seed, "hlp")
    n_clouds = int(params.get("n_clouds", 20))
    viol = []
    for i in range(n_clouds):
        a = random_cloud(rng, int(rng.integers(1, 7)))
        b = random_cloud(rng, int(rng.integers(1, 7)))
        alpha = float(rng.choice((0.3, 0.5, 1.0)))
        q = (0.5, 1.0, 2.0, math.inf)[int(rng.integers(0, 4))]
        inst = HlpInstance(cloud_a=a, cloud_b=b, params=CapacityParams(alpha, q), delta=0.5, depth=7)
        v = check_hlp_item(HlpItem.SUBADDITIVITY, inst)
        if not v.ok:
            viol.append(("sub", i))
    checks.append(CheckResult("subadditivity", not viol, f"{len(viol)} violations / {n_clouds}"))
    viol = []
    for i in range(n_clouds):
        a = PointCloud(tuple((float(x) * 0.2,) for x in rng.random(3)), 1)
        b = PointCloud(tuple((0.8 + float(x) * 0.2,) for x in rng.random(3)), 1)
        q = (0.5, 1.0, 2.0)[int(rng.integers(0, 3))]
        inst = HlpInstance(
            cloud_a=a, cloud_b=b, params=CapacityParams(0.5, q), delta=0.25, depth=7
        )
        v = check_hlp_item(HlpItem.SEPARATED_ADDITIVITY, inst)
        if not v.ok:
            viol.append(i)
    checks.append(CheckResult("separated_additivity", not viol, f"{len(viol)} violations"))
    profiles = profile_gallery(seed)
    viol = []
    for profile in profiles:
        v = check_hlp_item(
            HlpItem.Q_MONOTONE,
            HlpInstance(profile=profile, alpha=0.5, q=1.0, q2=2.0),
        )
        if not v.ok:
            viol.append(profile)
        v = check_hlp_item(
            HlpItem.ALPHA_JUMP, HlpInstance(profile=profile, alpha=0.5, alpha2=0.8)
        )
        if not v.ok:
            viol.append(profile)
    checks.append(CheckResult("q_monotone_alpha_jump", not viol, f"{len(viol)} violations"))
    lower_qs = (0.25, 0.5, 0.75)
    upper_qs = (1.5, 2.0, 4.0, math.inf)
    total, viol_n = 0, 0
    for profile in profiles:
        for gauge in gauge_gallery(0.5):
            for qv in lower_qs:
                total += 1
                v = check_hlp_item(
                    HlpItem.GAUGE_LOWER,
                    HlpInstance(profile=profile, gauge=gauge, alpha=0.5, q=qv),
                )
                viol_n += 0 if v.ok else 1
            for qv in upper_qs:
                total += 1
                v = check_hlp_item(
                    HlpItem.GAUGE_UPPER,
                    HlpInstance(profile=profile, gauge=gauge, alpha=0.5, q=qv),
                )
                viol_n += 0 if v.ok else 1
    checks.append(
        CheckResult("gauge_chains", viol_n == 0, f"{viol_n} violations / {total} chain evaluations")
    )
    return ExperimentResult("HLP", checks)


def run_frostman(params: dict, seed: int) -> ExperimentResult:
    rec = recorded.FROSTMAN
    mu = frostman_measure(seed=int(params.get("preset_seed", 7)))
    res = frostman_ratio(
        mu,
        float(params.get("alpha", 0.5)),
        float(params.get("q", 1.0)),
        float(params.get("gamma", 1.0)),
        rng=_rng(seed, "frostman"),
    )
    ok = res.conclusion_constant <= rec["K"] * res.hypothesis_constant
    checks = [
        CheckResult(
            "frostman_transfer",
            ok,
            f"conclusion {res.conclusion_constant:.6g} <= K * hypothesis "
            f"{rec['K']} * {res.hypothesis_constant:.6g}",
        )
    ]
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


def run_phi_general(params: dict, seed: int) -> ExperimentResult:
    """Exploratory gauge generalization: the power gauge supplied explicitly
    must reproduce the power path, and slower-vanishing gauges give larger
    covering sums on the same covering.

    The second claim holds only where every block sum t lies below 1/e: for
    t > 1/e, t^2 (log 1/t)^(-eps) falls as eps falls.  It is checked on
    diameters 2^-3..2^-11, whose largest block sum is 2^-1.5.  The covering
    that adds 2^-2 (block sum 0.5) is tabulated as a second row, unchecked:
    there the sums fall as eps falls.
    """
    del params
    rng = _rng(seed, "phi")
    checks, rows = [], []
    consistent = True
    for _ in range(10):
        cloud = random_cloud(rng, int(rng.integers(1, 6)))
        alpha = 0.5
        q = float(rng.choice((0.5, 1.0, 2.0)))
        power = nh_capacity_delta(cloud, CapacityParams(alpha, q), 0.5, 7)
        explicit = nh_capacity_delta(
            cloud, CapacityParams(alpha, q, phi=lambda t, q=q: t**q), 0.5, 7
        )
        if abs(power - explicit) > 1e-12 * max(1.0, power):
            consistent = False
    checks.append(CheckResult("phi_power_consistency", consistent, "explicit power gauge matches"))
    alpha, eps_values = 0.5, (0.5, 0.25, 0.1, 0.0)
    for first in (3, 2):
        cov = DyadicCovering(tuple(2.0**-k for k in range(first, 12)))
        # one diameter per dyadic block, so the block sums are t^alpha
        largest = max(cov.diameters) ** alpha
        sums = [nh_covering_sum(cov, CapacityParams(alpha, 2.0, phi=_log_gauge(e))) for e in eps_values]
        rising = all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))
        rows.append((max(cov.diameters), largest, *sums, rising))
    _, largest, *_, rising = rows[0]
    if largest >= 1.0 / math.e:
        raise ValueError(f"block sum {largest} is not below 1/e; the gauge claim does not apply")
    checks.append(
        CheckResult(
            "phi_slower_vanishing_larger",
            rising,
            "covering sums grow as the gauge vanishes slower, block sums below 1/e",
        )
    )
    header = ("largest_diameter", "largest_block_sum", *(f"sum_eps_{e}" for e in eps_values), "sums_rise")
    tables = {"gauges": (header, rows)}
    return ExperimentResult("PHI_GENERAL", checks, tables)


# Coverings per chunk pulled from the enumeration.  Each chunk's temporaries
# hold a few 8-byte entries per diameter; a larger chunk runs no faster.
_KEY_CHUNK = 2**12


def covering_keys(cloud: PointCloud, delta: float, depth: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct count keys of the antichain coverings, as int arrays.

    A covering's ``nh_covering_sum`` depends only on how many sets of each
    diameter it has, and on the order in which its dyadic blocks first
    appear, since the block sums are added in that order.  A diameter
    2^-g sqrt(d), d <= 3, lies in block g - 1, so its generation g is one
    minus its frexp exponent.  Returns ``(diameters, order, counts)``:
    ``diameters[g]`` is the diameter of generation g (nan if none occurs),
    row i of ``order`` lists the generations of key i in order of first
    appearance, padded with -1, and ``counts[i, g]`` is its number of sets
    of generation g.  Keys come in order of first appearance.

    The enumeration is pulled in chunks of ``_KEY_CHUNK`` coverings, and
    each key is deduplicated by an exact int64 code: one digit per position
    of ``order``, naming its (generation, count) pair.
    """
    n_gen, n_points = depth + 1, len(cloud.points)
    radix = n_gen * n_points + 1
    if radix**n_gen >= 2**63:
        raise ValueError(f"covering codes of {n_points} points at depth {depth} overflow int64")
    # int8 holds every generation: with a point, radix >= 2 bounds n_gen by 62
    count_type = np.min_scalar_type(n_points)
    diameters = np.full(n_gen, np.nan)
    orders, counts = [], []
    seen = np.array([2**63 - 1])  # sorted codes so far, above a sentinel no code reaches
    coverings = iter(enumerate_antichain_coverings(cloud, delta, depth))
    while chunk := list(itertools.islice(coverings, _KEY_CHUNK)):
        n = len(chunk)
        lengths = np.fromiter(map(len, chunk), dtype=np.int64, count=n)
        flat = np.fromiter(itertools.chain.from_iterable(chunk), dtype=float, count=int(lengths.sum()))
        gen = 1 - np.frexp(flat)[1].astype(np.int64)
        if np.any((gen < 0) | (gen >= n_gen)):
            raise ValueError(f"a covering diameter lies outside generations 0..{depth}")
        block_diam = np.full(n_gen, np.nan)
        block_diam[gen] = flat  # any one diameter per block: all are compared next
        diameters = np.where(np.isnan(diameters), block_diam, diameters)
        if np.any(flat != diameters[gen]):
            raise ValueError("a dyadic block holds more than one covering diameter")
        cell = np.repeat(np.arange(n), lengths) * n_gen + gen
        count = np.bincount(cell, minlength=n * n_gen).reshape(n, n_gen)
        if count.max() > n_points:
            raise ValueError("a covering has more sets of one generation than the cloud has points")
        # each row's generations sorted by their first position in the chunk
        first = np.full(n * n_gen, flat.size, dtype=np.int64)
        np.minimum.at(first, cell, np.arange(flat.size))
        order = np.argsort(first.reshape(n, n_gen), axis=1, kind="stable")
        ordered = np.take_along_axis(count, order, axis=1)
        order[ordered == 0] = -1
        digits = np.where(ordered > 0, order * n_points + ordered, 0)
        code = digits[:, 0]
        for j in range(1, n_gen):
            code = code * radix + digits[:, j]
        code, row = np.unique(code, return_index=True)
        at = np.searchsorted(seen, code)
        fresh = seen[at] != code
        keep = np.sort(row[fresh])
        seen = np.insert(seen, at[fresh], code[fresh])
        orders.append(order[keep].astype(np.int8))
        counts.append(count[keep].astype(count_type))
    return diameters, np.concatenate(orders), np.concatenate(counts)


def covering_sums(keys: Tuple[np.ndarray, np.ndarray, np.ndarray], params: CapacityParams) -> np.ndarray:
    """``nh_covering_sum`` of the covering behind each key, to the last bit.

    Each (generation, count) pair is scored once in Python scalars, by the
    same left-to-right addition of t**alpha and the same block gauge; the
    table is gathered in each key's block order and its columns added left
    to right (max for q = inf).  Empty positions add 0.0.
    """
    diameters, order, counts = keys
    sup = params.q == math.inf
    table = np.zeros((len(diameters), int(counts.max(initial=0)) + 1))
    for g, t in enumerate(diameters.tolist()):
        if math.isnan(t):
            continue
        term, block = t**params.alpha, 0.0
        for c in range(1, table.shape[1]):
            block += term
            table[g, c] = block if sup else params.block_gauge(block)
    gen = np.maximum(order, 0)
    terms = table[gen, np.take_along_axis(counts, gen, axis=1) * (order >= 0)]
    if sup:
        return terms.max(axis=1)
    total = terms[:, 0].copy()
    for j in range(1, terms.shape[1]):
        total += terms[:, j]
    return total


def capacity_dp_exactness(seed: int) -> ExperimentResult:
    """Pareto-frontier optimum vs exhaustive antichain enumeration, each
    distinct covering key scored once."""
    rng = _rng(seed, "dp")
    clouds = [
        PointCloud(tuple((x,) for x in (0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 0.984375, 0.9921875)), 1),
        PointCloud(tuple((x,) for x in (0.1, 0.12, 0.6, 0.61, 0.62, 0.9, 0.91, 0.99)), 1),
    ]
    for _ in range(3):
        clouds.append(random_cloud(rng, 5))
    checks = []
    ok = True
    worst = ""
    for ci, cloud in enumerate(clouds):
        depth = 8 if len(cloud.points) <= 8 else 7
        if ci >= 2:
            depth = 7
        keys = covering_keys(cloud, 0.5, depth)
        for q in (0.5, 1.0, 2.0, math.inf):
            params = CapacityParams(0.5, q)
            dp = nh_capacity_delta(cloud, params, 0.5, depth)
            brute = float(covering_sums(keys, params).min())
            if abs(dp - brute) > 0:
                ok = False
                worst = f"cloud {ci}, q = {q}: dp {dp!r} != brute {brute!r}"
    checks.append(CheckResult("capacity_dp_exact", ok, worst or "all instances match exactly"))
    return ExperimentResult("CAPACITY_DP", checks)


EXPERIMENTS: Dict[str, Callable[[dict, int], ExperimentResult]] = {
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


# The parameter keys each runner reads; any other key is rejected.
ALLOWED_PARAMS: Dict[str, tuple] = {
    "LORNOR": ("n_seq", "alphas", "qs"),
    "HLP": ("n_clouds",),
    "H_ZERO": ("layers",),
    "NP_SWEEP": ("M", "r", "trials", "slope_tol"),
    "OOO_SWEEP": ("p",),
    "DD_CORPUS": ("n_families",),
    "CONSTRUCT": ("preset", "depth", "budget"),
    "SPECTRUM_NORM": ("preset", "budget", "extent", "samples"),
    "RESL_SERIES": ("q", "n_max"),
    "FROSTMAN": ("alpha", "q", "gamma", "preset_seed"),
    "TR_PPLUS": ("n_instances",),
    "PHI_GENERAL": (),
}


def check_params(experiment: str, params: dict) -> None:
    """Raise ValueError for an unknown experiment or parameter key."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    allowed = ALLOWED_PARAMS[experiment]
    for key in params:
        if key not in allowed:
            raise ValueError(f"unknown parameter {key!r} for {experiment}; allowed: {allowed}")


def run_experiment(experiment: str, params: dict, seed: int) -> ExperimentResult:
    check_params(experiment, params)
    return EXPERIMENTS[experiment](dict(params), seed)
