"""Unit and property tests for the Lorentz quasi-norm module.

The defining integral is re-evaluated here by a direct Riemann-sum routine
so the closed-form implementation is checked against an independent oracle.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fflab import experiments, recorded
from fflab.corpora import TR_EXPONENTS, _rng, lornor_corpus, pplus_corpus, tr_corpus
from fflab.experiments import LORNOR_ALPHAS, LORNOR_QS, _by_key, _take, run_experiment
from fflab.lorentz import (
    LorentzExponents,
    WeightedSample,
    _Work,
    _block_norms,
    _lorentz_norms,
    _overlay_rows,
    _pplus_rows,
    _quasi_triangle_rows,
    _row_sums,
    _sample_norms,
    _sample_rows,
    check_lornor_equivalence,
    check_pplus,
    check_quasi_triangle,
    dyadic_block_index,
    dyadic_block_norm,
    elementary_power_constant,
    lorentz_norm,
    lorentz_seq_norm,
    overlay_sum,
    quasi_triangle_constants,
)


def distribution_function(f: WeightedSample, t: float) -> float:
    """m_f(t): total mass where the plateau value is >= t (for t >= 0)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(sum(m for v, m in f.entries if v >= t))


def scaled(f: WeightedSample, c: float) -> WeightedSample:
    """c f for a constant c >= 0."""
    return WeightedSample(tuple((c * v, m) for v, m in f.entries), f.origin)


def distribution_at(f: WeightedSample, ts: np.ndarray) -> np.ndarray:
    """m_f at every threshold in ``ts`` at once: with the plateau values
    sorted ascending, m_f(t) is the mass carried from the first value >= t on."""
    values = np.array([v for v, _ in f.entries])
    masses = np.array([m for _, m in f.entries])
    order = np.argsort(values)
    tail = np.append(np.cumsum(masses[order][::-1])[::-1], 0.0)
    return tail[np.searchsorted(values[order], ts, side="left")]


def riemann_norm(f: WeightedSample, p: float, q: float, n_points: int = 400_000) -> float:
    """Direct evaluation of the defining integral.

    After substituting u = t^q the integrand is the bounded step function
    m_f(u^{1/q})^{q/p}, which jumps only at the breakpoints u = v_i^q.  Each
    interval between consecutive breakpoints gets the same number of
    midpoint cells, so every breakpoint is a cell edge and no cell straddles
    a jump.
    """
    edges = np.unique([0.0] + [v**q for v, _ in f.entries if v > 0])
    if edges.size == 1:
        return 0.0
    cells = n_points // (edges.size - 1)
    widths = np.diff(edges) / cells
    us = edges[:-1, None] + (np.arange(cells) + 0.5) * widths[:, None]
    vals = distribution_at(f, us ** (1.0 / q))
    integral = np.sum(np.sum(vals ** (q / p), axis=1) * widths)
    return float(integral ** (1.0 / q))


def merged_norm(f: WeightedSample, p: float, q) -> float:
    """The closed form with equal values merged into one plateau first, so
    every breakpoint is distinct; zero values are dropped."""
    entries = [(v, m) for v, m in f.entries if v > 0]
    if not entries:
        return 0.0
    uniq, inverse = np.unique([-v for v, _ in entries], return_inverse=True)
    v = -uniq
    m = np.zeros_like(v)
    np.add.at(m, inverse, [m for _, m in entries])
    w = np.cumsum(m)
    if q == math.inf:
        return float(np.max(w ** (1.0 / p) * v))
    v_next = np.append(v[1:], 0.0)
    return float(np.sum(w ** (q / p) * (v**q - v_next**q)) ** (1.0 / q))


positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def samples(max_plateaus=5):
    entry = st.tuples(positive, positive)
    return st.lists(entry, min_size=1, max_size=max_plateaus).map(
        lambda ent: WeightedSample(tuple(ent))
    )


def block_oracle(a, alpha, q):
    """The block-aggregated norm of one sequence, a Python loop over its values."""
    blocks = {}
    for v in a:
        k = dyadic_block_index(v)
        blocks[k] = blocks.get(k, 0.0) + v**alpha
    sums = [blocks[k] for k in sorted(blocks)]
    if q == math.inf:
        return max(sums) ** (1.0 / alpha)
    return sum(s**q for s in sums) ** (1.0 / (q * alpha))


def fixed_sequences():
    rng = np.random.default_rng(12)
    return [np.exp(rng.uniform(math.log(2.0**-30), math.log(8.0), n)).tolist() for n in (1, 50, 3, 199, 12)] + [
        [5e-324, 3 * 2.0**-1074, 1e-310, 2.0**-1022, 0.3],  # subnormals
        [2.0**-1, 1.0, 2.0**-12, 2.0**-13, 0.75, 2.0**-12],  # block edges
        [3.0, 1e3, 2.0**40, 1.0],  # above 1
        [2.0**-12],
        [1e-320],
    ]


block_values = st.one_of(
    st.floats(min_value=2.0**-30, max_value=8.0),
    st.floats(min_value=5e-324, max_value=2.0**-1022, exclude_max=True),  # subnormals
    st.integers(-3, 40).map(lambda k: 2.0**-k),  # block edges
    st.floats(min_value=1.0, max_value=2.0**40),
)


def lornor_sequences(alpha, q, seed, n_seq):
    """The LORNOR corpus drawn one sequence at a time, in draw order."""
    rng = _rng(seed, "lornor", repr(alpha), repr(float(q)))
    for n in rng.integers(3, 200, n_seq):
        yield np.exp(rng.uniform(math.log(2.0**-12), math.log(0.5), n))


def lornor_blocks(alpha, q, seed, n_seq):
    """Every Lorentz block of the corpus, chunk by chunk in length order."""
    return [rows for *_, blocks in lornor_corpus(alpha, q, seed, n_seq) for rows in blocks]


@pytest.fixture(scope="module")
def per_sequence_ratios():
    # every cell at n_seq = 600, one full chunk of 512 and one of 88: each
    # ratio from the per-sample API on the sequence drawn alone
    return {
        (alpha, q): [check_lornor_equivalence(a, alpha, q) for a in lornor_sequences(alpha, q, 0, 600)]
        for alpha in LORNOR_ALPHAS
        for q in LORNOR_QS
    }


class TestDistributionFunction:
    def test_single_indicator(self):
        assert distribution_function(WeightedSample(((1, 1),)), 0.5) == 1

    def test_only_large_plateau_counts(self):
        f = WeightedSample(((2, 0.5), (1, 0.25)))
        assert distribution_function(f, 1.5) == 0.5

    def test_hand_enumeration(self):
        f = WeightedSample(((3, 0.1), (2, 0.2), (1, 0.3)))
        assert distribution_function(f, 2) == pytest.approx(0.3, abs=1e-15)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            distribution_function(WeightedSample(((1, 1),)), -0.1)

    @pytest.mark.parametrize(
        "entries",
        [((1.0, 54.0), (22.0, 0.5)), ((3, 0.1), (2, 0.2), (1, 0.3)), ((2, 1.5), (2, 0.25), (0.5, 4.0))],
    )
    def test_vectorised_oracle_matches(self, entries):
        # the Riemann oracle's m_f against the scalar one, on the breakpoints
        # and between them
        f = WeightedSample(entries)
        breaks = np.unique([0.0] + [v for v, _ in f.entries])
        ts = np.concatenate([breaks, (breaks[:-1] + breaks[1:]) / 2.0, [breaks[-1] + 1.0]])
        expect = [distribution_function(f, t) for t in ts]
        assert distribution_at(f, ts) == pytest.approx(expect, rel=1e-12, abs=0.0)


class TestLorentzNorm:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0, 10.0])
    @pytest.mark.parametrize("q", [0.7, 1.0, 2.0, pytest.param(math.inf, id="q3")])
    def test_indicator(self, p, q):
        f = WeightedSample(((1.0, 0.37),))
        e = LorentzExponents(p, q)
        assert lorentz_norm(f, e) == pytest.approx(0.37 ** (1.0 / p), rel=1e-12)

    def test_single_plateau(self):
        f = WeightedSample(((3.0, 2.0),))
        e = LorentzExponents(4.0, 1.5)
        assert lorentz_norm(f, e) == pytest.approx(3.0 * 2.0**0.25, rel=1e-12)

    def test_lpp_equals_lp(self):
        f = WeightedSample(((2, 1), (1, 3)))
        assert lorentz_norm(f, LorentzExponents(2, 2)) == pytest.approx(math.sqrt(7), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(samples(), st.sampled_from([(2.0, 0.7), (2.0, 1.0), (3.0, 2.0), (1.5, 3.0)]))
    # exact value 5632^(1/3); a midpoint cell straddling the jump at u = 1
    # moves the oracle by 0.2 %
    @example(WeightedSample(((1.0, 54.0), (22.0, 0.5))), (1.5, 3.0))
    def test_against_riemann_oracle(self, f, pq):
        p, q = pq
        exact = lorentz_norm(f, LorentzExponents(p, q))
        approx = riemann_norm(f, p, q)
        assert exact == pytest.approx(approx, rel=2e-3)

    @settings(max_examples=60, deadline=None)
    @given(samples(), positive)
    def test_homogeneity(self, f, c):
        e = LorentzExponents(3.0, 1.5)
        assert lorentz_norm(scaled(f, c), e) == pytest.approx(c * lorentz_norm(f, e), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(samples())
    def test_lpp_matches_direct_p_norm(self, f):
        p = 2.5
        direct = sum(v**p * m for v, m in f.entries) ** (1.0 / p)
        assert lorentz_norm(f, LorentzExponents(p, p)) == pytest.approx(direct, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(samples())
    def test_embedding_direction(self, f):
        # the norm does not increase in q (proof in ``lorentz_norm``)
        for p in (1.0, 2.0, 4.0):
            for q1, q2 in ((0.5, 1.0), (1.0, 2.0), (2.0, math.inf)):
                n1 = lorentz_norm(f, LorentzExponents(p, q1))
                n2 = lorentz_norm(f, LorentzExponents(p, q2))
                assert n2 <= n1 * (1 + 1e-12)

    def test_empty_is_zero(self):
        assert lorentz_norm(WeightedSample(()), LorentzExponents(2, 2)) == 0.0


class TestRowKernels:
    def _mixed_samples(self):
        rng = np.random.default_rng(11)
        # huge masses first: a cumulative sum over the whole batch, differenced
        # at row starts, would leave the unit-mass rows no precision
        big = WeightedSample(tuple((2.0 ** -(4 * j), 2.0 ** (4 * j)) for j in range(1, 17)))
        rows = [big]
        for n in (1, 7, 3, 40, 2):
            rows.append(WeightedSample(tuple((float(v), 1.0) for v in rng.uniform(0.1, 2.0, n))))
        rows.append(WeightedSample(()))
        rows.append(WeightedSample(tuple(zip(rng.uniform(0.0, 3.0, 9), rng.uniform(0.5, 2.0, 9)))))
        return rows

    @pytest.mark.parametrize("pq", [(2.0, 0.7), (4.0, 2.0), (1.5, math.inf)])
    def test_batch_matches_batch_of_one(self, pq):
        samples = self._mixed_samples()
        e = LorentzExponents(*pq)
        batch = _sample_norms(samples, e)
        single = [lorentz_norm(f, e) for f in samples]
        assert batch.tolist() == single
        assert batch[0] == pytest.approx(merged_norm(samples[0], *pq), rel=1e-13)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, pytest.param(math.inf, id="q2")])
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(block_values, min_size=1, max_size=199), min_size=1, max_size=6), st.sampled_from(LORNOR_ALPHAS))
    @example(fixed_sequences(), 0.5)
    def test_block_batch_matches_batch_of_one(self, q, seqs, alpha):
        # the bins span the exponents of the batch, 0 among them; each
        # sequence's norm is that of the batch of one, and that of the loop
        batch = _block_norms(np.array([v for a in seqs for v in a]), [len(a) for a in seqs], alpha, q)
        single = [dyadic_block_norm(a, alpha, q) for a in seqs]
        assert batch.tolist() == single
        for a, got in zip(seqs, single):
            assert got == pytest.approx(block_oracle(a, alpha, q), rel=1e-13)

    @pytest.mark.parametrize("shape", [(1, 300), (2, 9), (3, 1), (128, 199)])
    def test_row_sums_add_left_to_right(self, shape):
        rng = np.random.default_rng(14)
        terms = rng.random(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
        want = []
        for row in terms.tolist():
            acc = 0.0
            for t in row:
                acc += t
            want.append(acc)
        assert _row_sums(terms).tolist() == want

    @pytest.mark.parametrize("q", [0.7, 2.0, pytest.param(math.inf, id="q2")])
    def test_ties_match_merged_oracle(self, q):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            values = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], n)
            masses = rng.choice([0.25, 1.0, 3.0], n) * rng.uniform(0.9, 1.1, n)
            f = WeightedSample(tuple(zip(values, masses)))
            e = LorentzExponents(1.5, q)
            assert lorentz_norm(f, e) == pytest.approx(merged_norm(f, 1.5, q), rel=1e-13)

    def test_corpus_blocks_match_per_sequence_draws(self):
        for alpha, q in ((0.5, 2.0), (4.0, math.inf)):
            old = list(lornor_sequences(alpha, q, 0, 1100))
            index = {a.tobytes(): i for i, a in enumerate(old)}
            seen, widths = [], []
            for c, (draw, lengths, order, blocks) in enumerate(lornor_corpus(alpha, q, 0, 1100)):
                # one draw per chunk of 512: the per-sequence draws, end to end
                first = 512 * c
                assert draw.tobytes() == np.concatenate(old[first : first + len(lengths)]).tobytes()
                assert lengths.tolist() == [len(a) for a in old[first : first + len(lengths)]]
                assert order.tolist() == np.argsort(lengths, kind="stable").tolist()
                for block in blocks:  # cut into blocks of 128 rows
                    widths.append(len(block))
                    filled = np.count_nonzero(block, axis=1)  # every drawn value is >= 2^-12
                    assert block.shape[1] == filled.max()
                    for row, n in zip(block, filled):
                        assert not row[n:].any()
                        i = index[row[:n].tobytes()]  # a KeyError unless bit-equal to a draw
                        seen.append((i // 512, n, i))
            assert widths == [128] * 8 + [76]
            assert sorted(i for *_, i in seen) == list(range(1100))
            # each chunk in stable length order: by length, ties by draw order
            assert seen == sorted(seen)

    def test_corpus_padding_share(self):
        # one length-sorted chunk pads about 20 % of the cells; blocks in
        # draw order padded 48 %
        blocks = lornor_blocks(1.0, 2.0, 0, 10_000)
        assert sum(len(b) for b in blocks) == 10_000
        cells = sum(b.size for b in blocks)
        padding = cells - sum(np.count_nonzero(b) for b in blocks)
        assert padding <= 0.25 * cells

    def test_block_ratios_match_unpadded_sequences(self, monkeypatch, per_sequence_ratios):
        # the run's own chunk path, every cell: each sequence's ratio, in draw
        # order, is that of the sequence alone, whatever its run, block or width
        chunk_ratios, got = experiments._lornor_chunk, {}

        def recording(chunk, alpha, q, work):
            ratios = chunk_ratios(chunk, alpha, q, work)
            got.setdefault((alpha, q), []).extend(ratios.tolist())
            return ratios

        monkeypatch.setattr(experiments, "_lornor_chunk", recording)
        assert run_experiment("LORNOR", {"n_seq": 600}, 0).passed
        assert got == per_sequence_ratios

    @pytest.mark.parametrize("q", [0.5, 2.0, pytest.param(math.inf, id="q2")])
    def test_unit_masses_match_explicit_ones(self, q):
        # rounding to multiples of 1/64 makes ties, and zeros beside the padding
        for block in lornor_blocks(0.5, 2.0, 0, 300):
            for rows in (block, np.round(block * 64.0) / 64.0):
                got = _lorentz_norms(rows, 1.0, 0.5, q)
                want = _lorentz_norms(rows, np.ones_like(rows), 0.5, q)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("q", [0.5, 2.0, pytest.param(math.inf, id="qinf")])
    def test_equal_masses_match_explicit_ones(self, q):
        # a grid's cells: one mass for all, ties included, one row or several
        rng = np.random.default_rng(4)
        for rows in (rng.random((1, 5000)), np.round(rng.random((3, 400)) * 32.0) / 32.0):
            got = _lorentz_norms(rows, 0.125, 3.0, q)
            want = _lorentz_norms(rows, np.full(rows.shape, 0.125), 3.0, q)
            assert np.array_equal(got, want)

    def test_work_set_arrays_follow_each_name_s_dtype_and_need(self):
        work = _Work()
        assert work.get("x", (2,), complex).dtype == complex
        with pytest.raises(TypeError, match="'x' is complex128, asked for as float64"):
            work.get("x", (4,))  # a name keeps its dtype: refused, not replaced
        assert work.get("x", (3,), complex).shape == (3,)  # grown
        first = work.arrays["x"]
        assert work.get("x", (1, 2), complex).base is first  # fits: a view
        work.get("y", (3, 5), np.int32)
        assert {name: (flat.size, flat.dtype) for name, flat in work.arrays.items()} == {
            "x": (3, np.dtype(complex)),
            "y": (15, np.dtype(np.int32)),
        }

    def test_work_set_leaks_nothing_between_blocks(self, monkeypatch, per_sequence_ratios):
        # one work set serves the run; poisoning all of it but the chunk's
        # draw after every kernel call, and the draw's slack before every
        # chunk, shows any cell that the corpus or a kernel reads without
        # rewriting, padding included
        def poison(flat):
            flat.fill(np.nan if flat.dtype.kind == "f" else -1)

        def poisoning(kernel):
            def run(*args):
                out = kernel(*args)
                for name, flat in args[-1].arrays.items():
                    if name != "draw":
                        poison(flat)
                return out

            return run

        chunk_ratios, widths, got = experiments._lornor_chunk, [], {}

        def poisoned_slack(chunk, alpha, q, work):
            poison(work.arrays["draw"][len(chunk[0]) :])
            ratios = chunk_ratios(chunk, alpha, q, work)
            got.setdefault((alpha, q), []).extend(ratios.tolist())
            return ratios

        lorentz_norms = poisoning(experiments._lorentz_norms)

        def lorentz_widths(rows, *args):
            widths.append(rows.shape[1])
            return lorentz_norms(rows, *args)

        monkeypatch.setattr(experiments, "_block_norms", poisoning(experiments._block_norms))
        monkeypatch.setattr(experiments, "_lorentz_norms", lorentz_widths)
        monkeypatch.setattr(experiments, "_lornor_chunk", poisoned_slack)
        run_experiment("LORNOR", {"n_seq": 600}, 0)
        # blocks of 128, 128, 128, 128 and 88 rows per cell: the second cell starts narrow
        assert len(widths) == 100 and widths[5] < widths[4] / 3, widths
        assert got == per_sequence_ratios

    def test_lornor_memory_is_bounded_by_blocks(self):
        # one 10k-row batch would peak at about 100 MiB; chunks of 512
        # sequences in runs and blocks of 128, with the run's work set, at 2.7 MiB
        tracemalloc.start()
        try:
            result = run_experiment("LORNOR", {"alphas": (1.0,), "qs": (2.0,)}, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 4 * 2**20


class TestSequenceNorm:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_constant_sequence(self, n):
        e = LorentzExponents(3.0, 1.2)
        assert lorentz_seq_norm([1.0] * n, e) == pytest.approx(n ** (1.0 / 3.0), rel=1e-12)

    def test_matches_unit_mass_sample(self):
        a = [0.5, 0.25, 0.125, 3.0]
        e = LorentzExponents(1.0, 2.0)
        f = WeightedSample.from_sequence(a)
        assert lorentz_seq_norm(a, e) == pytest.approx(lorentz_norm(f, e), rel=1e-12)

    def test_geometric_sequence_oracle(self):
        a = [2.0 ** (-k) for k in range(1, 21)]
        e = LorentzExponents(1.0, 2.0)
        f = WeightedSample.from_sequence(a)
        assert lorentz_seq_norm(a, e) == pytest.approx(riemann_norm(f, 1.0, 2.0), rel=2e-3)


class TestDyadicBlocks:
    def test_block_boundaries(self):
        # the block with index k is [2^-k-1, 2^-k), closed on the left
        assert dyadic_block_index(0.125) == 2
        assert dyadic_block_index(0.1876) == 2
        assert dyadic_block_index(0.2) == 2
        assert dyadic_block_index(0.25) == 1
        assert dyadic_block_index(0.75) == 0
        assert dyadic_block_index(1.0) == -1
        assert dyadic_block_index(1.5) == -1

    def test_singleton(self):
        for alpha, q in ((0.5, 1.0), (1.0, 2.0), (2.0, math.inf)):
            assert dyadic_block_norm([2.0**-3], alpha, q) == pytest.approx(2.0**-3, rel=1e-12)

    def test_two_block_example(self):
        v = dyadic_block_norm([0.25, 0.25, 0.125], 1.0, 2.0)
        assert v == pytest.approx(math.sqrt(17.0 / 64.0), rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            dyadic_block_norm([0.5, 0.0], 1.0, 2.0)

    def test_histogram_oracle(self):
        rng = np.random.default_rng(5)
        a = np.exp(rng.uniform(math.log(2.0**-10), math.log(0.5), 200))
        alpha, q = 0.5, 3.0
        # independent grouping by floor(-log2 |a_j|)
        buckets = {}
        for v in a:
            k = math.floor(-math.log2(v))
            buckets[k] = buckets.get(k, 0.0) + v**alpha
        oracle = sum(s**q for s in buckets.values()) ** (1.0 / (q * alpha))
        assert dyadic_block_norm(a, alpha, q) == pytest.approx(oracle, rel=1e-12)

    def test_single_block_collapse(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(2.0**-4, 2.0**-3 - 1e-9, 20)
        alpha = 0.8
        for q in (0.5, 2.0, math.inf):
            expect = np.sum(a**alpha) ** (1.0 / alpha)
            assert dyadic_block_norm(a, alpha, q) == pytest.approx(expect, rel=1e-12)


class TestLornorEquivalence:
    def test_singleton_ratio_one(self):
        assert check_lornor_equivalence([2.0**-4], 0.7, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_ones_q1(self):
        assert check_lornor_equivalence([1, 1, 1, 1], 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_band_membership_spot(self):
        rng = np.random.default_rng(7)
        band = recorded.LORNOR_BANDS[("1.0", "2.0")]
        for _ in range(200):
            a = np.exp(rng.uniform(math.log(2.0**-12), math.log(0.5), rng.integers(3, 100)))
            ratio = check_lornor_equivalence(a, 1.0, 2.0)
            assert 1.0 / band <= ratio <= band


INFS = pytest.mark.parametrize("inf", [math.inf, float("inf")], ids=["math.inf", "float"])


@pytest.mark.filterwarnings("error")
class TestInfiniteQ:
    """q = inf is the float inf, however it is spelt, and every function
    that takes q aggregates by the sup there."""

    @INFS
    def test_lorentz_norm_is_the_sup(self, inf):
        # sup of m_f(t)^(1/2) t over the plateau values: 1 * 3 at t = 3,
        # 3^(1/2) * 0.5 at t = 0.5
        f = WeightedSample(((3.0, 1.0), (0.5, 2.0)))
        assert lorentz_norm(f, LorentzExponents(2.0, inf)) == 3.0

    @INFS
    def test_lorentz_seq_norm_is_the_sup(self, inf):
        # i^(1/2) a*_i is largest at the last index
        assert lorentz_seq_norm([1.0, 0.9, 0.9], LorentzExponents(2.0, inf)) == 3.0**0.5 * 0.9

    @INFS
    def test_dyadic_block_norm_is_the_largest_block(self, inf):
        # 0.3 and 0.2 lie in the blocks [1/4, 1/2) and [1/8, 1/4)
        assert dyadic_block_norm([0.3, 0.2], 1.0, inf) == 0.3

    @INFS
    def test_lornor_ratio(self, inf):
        # largest block 0.3 over the l_(1,inf) norm max(1 * 0.3, 2 * 0.2)
        assert check_lornor_equivalence([0.3, 0.2], 1.0, inf) == 0.3 / 0.4

    @INFS
    def test_finite_q_checks_reject_inf(self, inf):
        e = LorentzExponents(2.0, inf)
        f = WeightedSample(((1.0, 1.0),))
        with pytest.raises(ValueError, match="requires finite q"):
            check_quasi_triangle(f, f, e, 0.1)
        with pytest.raises(ValueError, match="requires finite q"):
            check_pplus(f, [f], e, 3.0, 1.0)

    def test_lornor_experiment_inf_rows(self):
        rows = run_experiment("LORNOR", {"n_seq": 200}, 0).tables["bands"][1]
        inf_rows = [row for row in rows if row[1] == "inf"]
        assert len(inf_rows) == 5
        for qs in ((math.inf,), (float("inf"),)):
            got = run_experiment("LORNOR", {"n_seq": 200, "qs": qs}, 0).tables["bands"][1]
            assert got == inf_rows
        assert all(lo < 1.0 < hi for _, _, lo, hi, _, _ in inf_rows)


class TestQuasiTriangle:
    def test_elementary_constant(self):
        assert elementary_power_constant(0.5, 0.3) == 1.0
        r, a = 2.0, 0.25
        c = elementary_power_constant(r, a)
        xs = np.linspace(0, 5, 200)
        for x in xs:
            assert (x + 1.0) ** r <= (1 + a) * x**r + c + 1e-9

    def test_f_coefficient_below_target(self):
        for q, p, eps in ((2.0, 4.0, 0.3), (0.7, 2.5, 0.05), (1.0, 3.0, 1.0)):
            delta, a_coeff, c_coeff = quasi_triangle_constants(LorentzExponents(p, q), eps)
            assert a_coeff <= 1.0 + eps
            assert c_coeff > 0 and delta > 0

    def test_zero_perturbation(self):
        f = WeightedSample(((2.0, 1.5), (1.0, 0.5)))
        g = WeightedSample(())
        check = check_quasi_triangle(f, g, LorentzExponents(4, 2), 0.2)
        # ||f + 0|| against (1 + eps)||f||, slackened by 1e-12
        assert check.name == "quasi_triangle" and check.passed
        assert check.bound == pytest.approx(1.2 * check.value * (1 + 1e-12), rel=1e-15)

    def test_disjoint_indicators(self):
        f = WeightedSample(((1.0, 1.0),))
        g = WeightedSample(((1.0, 1.0),), origin=1.0)
        check = check_quasi_triangle(f, g, LorentzExponents(2, 2), 0.1)
        assert check.value == pytest.approx(math.sqrt(2), rel=1e-12)
        assert check.passed

    @settings(max_examples=200, deadline=None)
    @given(samples(), samples(), st.sampled_from([(4.0, 2.0), (3.0, 1.0), (2.5, 0.7)]))
    def test_no_random_violation(self, f, g, pq):
        assert check_quasi_triangle(f, g, LorentzExponents(*pq), 0.25).passed

    def test_batch_matches_batch_of_one(self):
        f_rows, g_rows, pqs, epss = next(tr_corpus(0, 128))
        for (p, q, eps), mask in _by_key(np.column_stack((pqs, epss))):
            e = LorentzExponents(p, q)
            f_sel, g_sel = _take(f_rows, mask), _take(g_rows, mask)
            values, bounds = _quasi_triangle_rows(f_sel, g_sel, e, eps)
            single = [check_quasi_triangle(f, g, e, eps) for f, g in zip(row_samples(f_sel), row_samples(g_sel))]
            assert values.tolist() == [c.value for c in single]
            assert bounds.tolist() == [c.bound for c in single]

    @pytest.mark.parametrize(
        "values, masses", [([[1.0, -0.5]], [[1.0, 1.0]]), ([[1.0, 2.0]], [[1.0, 0.0]]), ([[np.nan]], [[1.0]])]
    )
    def test_batch_rejects_bad_plateaus(self, values, masses):
        bad = (np.array(values), np.array(masses), np.zeros(1))
        good = _sample_rows([WeightedSample(((1.0, 1.0),))])
        with pytest.raises(ValueError):
            _quasi_triangle_rows(bad, good, LorentzExponents(2, 2), 0.1)
        with pytest.raises(ValueError):
            _quasi_triangle_rows(good, bad, LorentzExponents(2, 2), 0.1)

    def test_overlay_refinement(self):
        f = WeightedSample(((2.0, 1.0), (1.0, 1.0)))
        g = WeightedSample(((3.0, 0.5),), origin=0.75)
        s = overlay_sum(f, g)
        assert s.total_mass == pytest.approx(2.0, rel=1e-12)
        assert max(v for v, _ in s.entries) == pytest.approx(5.0, rel=1e-12)


def scan_overlay_sum(f: WeightedSample, g: WeightedSample) -> WeightedSample:
    """The common refinement by a linear scan of each sample per cell."""

    def breakpoints(h):
        xs = [h.origin]
        for _, m in h.entries:
            xs.append(xs[-1] + m)
        return xs

    def value_at(h, x):
        pos = h.origin
        for v, m in h.entries:
            if pos <= x < pos + m:
                return v
            pos += m
        return 0.0

    cuts = sorted(set(breakpoints(f)) | set(breakpoints(g)))
    entries = []
    for left, right in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (left + right)
        val = value_at(f, mid) + value_at(g, mid)
        if val > 0:
            entries.append((val, right - left))
    return WeightedSample(tuple(entries), origin=cuts[0])


def row_samples(rows):
    """The WeightedSamples of padded (values, masses, origins) rows."""
    values, masses, origins = rows
    return [
        WeightedSample(tuple((v, m) for v, m in zip(vs.tolist(), ms.tolist()) if m > 0), origin=float(o))
        for vs, ms, o in zip(values, masses, origins)
    ]


class TestOverlaySum:
    def test_matches_linear_scan_on_corpus(self):
        for f_rows, g_rows, _, _ in tr_corpus(0, 200):
            for f, g in zip(row_samples(f_rows), row_samples(g_rows)):
                got, want = overlay_sum(f, g), scan_overlay_sum(f, g)
                assert got.entries == want.entries
                assert got.origin == want.origin

    def _assert_rows_match_scan(self, f_rows, g_rows):
        vals, widths, origins = _overlay_rows(*f_rows, *g_rows)
        got = row_samples((vals, widths, origins))
        for i, (f, g) in enumerate(zip(row_samples(f_rows), row_samples(g_rows))):
            want = scan_overlay_sum(f, g)
            assert got[i].entries == want.entries
            assert got[i].origin == want.origin
            assert not vals[i, len(want.entries) :].any() and not widths[i, len(want.entries) :].any()

    def test_rows_match_linear_scan_on_corpus(self):
        # half the pairs share the edge at origin 0, half are disjoint
        blocks = list(tr_corpus(0, 256))
        assert sum(len(eps) for *_, eps in blocks) == 256
        for f_rows, g_rows, _, _ in blocks:
            self._assert_rows_match_scan(f_rows, g_rows)

    def test_rows_edge_cases(self):
        huge = tuple((2.0 ** -(4 * j), 2.0 ** (4 * j)) for j in range(1, 17))  # masses up to 2^64
        fs = [
            WeightedSample(()),
            WeightedSample((), origin=2.0),
            WeightedSample(huge),
            WeightedSample(((1.0, 1.0), (2.0, 3.0))),
            WeightedSample(((1.0, 1.0), (0.0, 1.0), (2.0, 1.0))),
            WeightedSample(huge[:3], origin=1.0),
        ]
        gs = [
            WeightedSample(()),
            WeightedSample(((1.0, 0.5),)),
            WeightedSample(((3.0, 1.0), (1.0, 2.0**64))),
            WeightedSample(((1.0, 1.0), (2.0, 3.0))),  # every edge shared
            WeightedSample(((5.0, 2.0),), origin=1.0),
            WeightedSample(huge, origin=2.0**64),
        ]
        self._assert_rows_match_scan(_sample_rows(fs), _sample_rows(gs))

    def test_empty_samples(self):
        s = overlay_sum(WeightedSample((), origin=2.0), WeightedSample(()))
        assert s.entries == () and s.origin == 0.0


def split_runs(flat, counts):
    """Consecutive runs of the list ``flat`` of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [flat[end - n : end] for n, end in zip(counts.tolist(), ends)]


def documented_tr_corpus(seed, n_pairs, block=512):
    """The quasi-triangle corpus from the block draws that ``tr_corpus``
    documents, built one WeightedSample pair at a time."""
    rng = _rng(seed, "tr")
    for start in range(0, n_pairs, block):
        m = min(block, n_pairs - start)
        f_counts, g_counts = rng.integers(1, 7, m), rng.integers(1, 7, m)
        sides, eps_index = rng.integers(0, 2, m), rng.integers(0, 3, m)
        f_vals, f_masses, g_vals, g_masses = [
            split_runs(np.exp(rng.normal(0.0, 1.5, counts.sum())).tolist(), counts)
            for counts in (f_counts, f_counts, g_counts, g_counts)
        ]
        for i in range(m):
            p, q = TR_EXPONENTS[(start + i) % 3]
            f = WeightedSample(tuple(zip(f_vals[i], f_masses[i])))
            origin = f.total_mass + 1.0 if sides[i] else 0.0
            g = WeightedSample(tuple(zip(g_vals[i], g_masses[i])), origin=origin)
            yield f, g, LorentzExponents(p, q), (0.1, 0.5, 1.0)[eps_index[i]]


def documented_pplus_corpus(seed, n_instances, block=512, seq_len=16):
    """The P+ corpus from the block draws that ``pplus_corpus`` documents,
    built one instance at a time."""
    rng = _rng(seed, "pplus")
    ms = [2.0 ** (4 * j) for j in range(1, seq_len + 1)]
    for start in range(0, n_instances, block):
        m = min(block, n_instances - start)
        counts = rng.integers(1, 7, m)
        values = split_runs(np.exp(rng.normal(0.0, 1.5, counts.sum())).tolist(), counts)
        masses = split_runs(np.exp(rng.normal(0.0, 1.5, counts.sum())).tolist(), counts)
        a_limits = np.exp(rng.normal(0.0, 0.7, m)).tolist()
        for i in range(m):
            p, q = TR_EXPONENTS[(start + i) % 3]
            f = WeightedSample(tuple(zip(values[i], masses[i])))
            a_limit = a_limits[i]
            gs = [WeightedSample(((a_limit * mass ** (-1.0 / p), mass),), origin=f.total_mass + 1.0) for mass in ms]
            yield f, gs, LorentzExponents(p, q), p + 1.0, a_limit


class TestCorpusBlocks:
    def test_tr_blocks_match_documented_draws(self):
        want = list(documented_tr_corpus(0, 1100))
        blocks = list(tr_corpus(0, 1100))
        assert [len(eps) for *_, eps in blocks] == [512, 512, 76]
        pairs = [
            (f, g, tuple(pq), eps)
            for f_rows, g_rows, pqs, epss in blocks
            for f, g, pq, eps in zip(row_samples(f_rows), row_samples(g_rows), pqs.tolist(), epss.tolist())
        ]
        assert len(pairs) == len(want)
        for (f, g, pq, eps), (f0, g0, e0, eps0) in zip(pairs, want):
            assert f.entries == f0.entries and f.origin == f0.origin
            assert g.entries == g0.entries and g.origin == g0.origin
            assert pq == (e0.p, e0.q) and eps == eps0

    def test_pplus_blocks_match_documented_draws(self):
        want = list(documented_pplus_corpus(0, 1100))
        blocks = list(pplus_corpus(0, 1100))
        assert [len(a) for *_, a in blocks] == [512, 512, 76]
        instances = []
        for f_rows, (g_vals, g_masses, g_origins), pqs, a_limits in blocks:
            for i, f in enumerate(row_samples(f_rows)):
                gs = row_samples((g_vals[i], g_masses[i], g_origins[i]))
                instances.append((f, gs, tuple(pqs[i].tolist()), float(a_limits[i])))
        assert len(instances) == len(want)
        for (f, gs, pq, a), (f0, gs0, e0, p1, a0) in zip(instances, want):
            assert f.entries == f0.entries and f.origin == f0.origin
            assert [(g.entries, g.origin) for g in gs] == [(g.entries, g.origin) for g in gs0]
            assert pq == (e0.p, e0.q) and p1 == pq[0] + 1.0 and a == a0

    @pytest.mark.parametrize("seed", range(10))
    def test_tr_pplus_passes_at_seed(self, seed):
        # lab verify --seed S and the benchmark run c6 at the requested seed
        result = run_experiment("TR_PPLUS", {}, seed)
        assert [c.name for c in result.checks] == ["quasi_triangle_zero_violations", "pplus_zero_violations"]
        assert result.passed, [c.detail for c in result.checks]

    def test_tr_pplus_memory_is_bounded_by_blocks(self):
        # 512-instance blocks peak near 1.4 MiB; one 10k-instance block
        # would not fit under 4 MiB
        tracemalloc.start()
        try:
            result = run_experiment("TR_PPLUS", {}, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 4 * 2**20


class TestPplus:
    def _decaying(self, p, a_limit, n, origin):
        gs = []
        for j in range(1, n + 1):
            mass = 2.0 ** (4 * j)
            gs.append(WeightedSample(((a_limit * mass ** (-1.0 / p), mass),), origin=origin))
        return gs

    def test_zero_perturbations_not_applicable_for_positive_a(self):
        f = WeightedSample(((1.0, 1.0),))
        gs = [WeightedSample(()) for _ in range(8)]
        v = check_pplus(f, gs, LorentzExponents(2, 2), 4.0, 1.0)
        assert v.value == math.inf and not v.passed

    def test_zero_limit(self):
        f = WeightedSample(((1.0, 1.0),))
        gs = [WeightedSample(()) for _ in range(8)]
        v = check_pplus(f, gs, LorentzExponents(2, 2), 4.0, 0.0)
        assert v.name == "pplus" and v.passed
        assert v.value == pytest.approx(1.0, rel=1e-12)

    def test_zero_function_reduces_to_hypothesis(self):
        f = WeightedSample(())
        gs = self._decaying(2.0, 1.5, 12, origin=5.0)
        v = check_pplus(f, gs, LorentzExponents(2, 2), 4.0, 1.5)
        assert v.passed
        assert v.value <= 1.5**2 + 1e-6

    def test_batch_matches_batch_of_one(self):
        f_rows, gs_rows, pqs, a_limits = next(pplus_corpus(0, 128))
        a_limits = a_limits.copy()
        a_limits[::5] *= 2.0  # ||g_j||_(p,q) stays at the old A: not applicable
        gs_rows[0][1::7] = gs_rows[0][1::7, :1]  # g_j = g_1 for all j: no decay
        gs_rows[1][1::7] = gs_rows[1][1::7, :1]
        gs_rows[2][3::5] = 0.0  # g_j on top of f: violations at (p, q) = (4, 2)
        seen = set()
        for (p, q), mask in _by_key(pqs):
            f_sel, g_sel = _take(f_rows, mask), _take(gs_rows, mask)
            e = LorentzExponents(p, q)
            values, bounds = _pplus_rows(f_sel, g_sel, a_limits[mask], e, p + 1.0)
            gs_per_row = [row_samples(tuple(a[i] for a in g_sel)) for i in range(int(mask.sum()))]
            single = [
                check_pplus(f, gs, e, p + 1.0, a)
                for f, gs, a in zip(row_samples(f_sel), gs_per_row, a_limits[mask].tolist())
            ]
            assert values.tolist() == [v.value for v in single]
            assert bounds.tolist() == [v.bound for v in single]
            seen.update("inf" if v == math.inf else "pass" if v <= b else "fail" for v, b in zip(values, bounds))
        assert seen == {"pass", "fail", "inf"}

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            check_pplus(WeightedSample(((1.0, 1.0),)), [], LorentzExponents(2, 2), 4.0, 1.0)

    def test_batch_rejects_bad_plateaus(self):
        f = _sample_rows([WeightedSample(((1.0, 1.0),))])
        gs = tuple(a[:, None] for a in _sample_rows([WeightedSample(((1.0, 1.0),))]))
        bad = (np.array([[[-1.0]]]), np.array([[[1.0]]]), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            _pplus_rows(f, bad, np.ones(1), LorentzExponents(2, 2), 4.0)
        with pytest.raises(ValueError):
            _pplus_rows(tuple(a[:, 0] for a in bad), gs, np.ones(1), LorentzExponents(2, 2), 4.0)

    def test_disjoint_spreading_sequence(self):
        f = WeightedSample(((1.0, 1.0),))
        gs = self._decaying(2.0, 1.0, 12, origin=2.0)
        v = check_pplus(f, gs, LorentzExponents(2, 2), 4.0, 1.0)
        assert v.passed
