"""Tests for the nested-cube tree, spacing rule and randomized realization."""

import functools
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflab import cantor
from fflab.cantor import (
    ConstructionParams,
    SelectionBudgetError,
    SpacingViolation,
    _default_selection_grid,
    build_tree,
    greedy_spacing_branching,
    layer_covering,
    realize_tree,
    sample_shifts,
    select_nu,
)
from fflab.capacity import CapacityParams, ResourceLimitError, nh_covering_sum
from fflab.measures import CubeMeasure
from fflab.presets import preset
from fflab.spectral import (
    FreqGrid,
    _moment_integrals,
    cube_measure_transform,
    expected_transform,
    random_transform,
)

MEASURE_REFS = Path(__file__).resolve().parents[1] / "bench" / "refs" / "measure_sha256.json"


class TestParams:
    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            ConstructionParams(1, 2.0, 2.0, 2.0, (2,))

    def test_rejects_small_beta(self):
        # q = 2 forces beta > 1
        with pytest.raises(ValueError):
            ConstructionParams(1, 4.0, 2.0, 1.0, (2,))

    def test_rejects_unary_branching(self):
        with pytest.raises(ValueError):
            ConstructionParams(1, 4.0, 2.0, 2.0, (3, 1))

    def test_dual_exponent(self):
        assert ConstructionParams(1, 4.0, 3.0, 1.0, (2,)).q_dual == pytest.approx(1.5)


class TestBuildTree:
    def test_two_step_weights_and_sides(self):
        params = ConstructionParams(1, 4.0, 3.0, 1.0, (3, 4))
        tree = build_tree(params)
        assert len(tree.nodes) == 1 + 3 + 4
        assert tree.steps[0] == (0, 3, pytest.approx(1.0 / 9.0))
        assert tree.steps[1][2] == pytest.approx(1.0 / 288.0)
        assert all(n.weight == Fraction(1, 3) for n in tree.layer_nodes(1))
        assert all(n.weight == Fraction(1, 12) for n in tree.layer_nodes(2))
        assert tree.layer_weight_sum(1) == Fraction(1)

    def test_layer_completion(self):
        tree = build_tree(preset("norm-growth"))
        assert tree.is_layer_complete(1)
        assert not tree.is_layer_complete(2)
        assert tree.max_complete_layer() == 1

    def test_norm_growth_sides(self):
        tree = build_tree(preset("norm-growth"))
        sides = [s for _, _, s in tree.steps]
        assert sides == [
            pytest.approx(1.0 / 9.0),
            pytest.approx(1.0 / 384.0),
            pytest.approx(1.0 / 1536.0),
        ]

    def test_spacing_violation_reports_fix(self):
        params = ConstructionParams(1, 4.0, 2.0, 2.0, (100, 2))
        with pytest.raises(SpacingViolation) as exc:
            build_tree(params)
        m_fix = exc.value.suggested_m
        assert exc.value.step == 1
        fixed = ConstructionParams(1, 4.0, 2.0, 2.0, (100, m_fix))
        build_tree(fixed)
        with pytest.raises(SpacingViolation):
            build_tree(ConstructionParams(1, 4.0, 2.0, 2.0, (100, m_fix - 1)))

    def test_node_budget(self, monkeypatch):
        # counted before any node is made, so ten million cost nothing
        with pytest.raises(ResourceLimitError, match="10000001 nodes, over the budget of 65536"):
            build_tree(ConstructionParams(1, 4.0, 2.0, 2.0, (10**7,)))
        assert 1 + sum(preset("layer-law").M) == 6270 <= cantor._NODE_BUDGET
        monkeypatch.setattr(cantor, "_NODE_BUDGET", 28)
        assert len(build_tree(preset("norm-growth")).nodes) == 28
        monkeypatch.setattr(cantor, "_NODE_BUDGET", 27)
        with pytest.raises(ResourceLimitError, match="28 nodes"):
            build_tree(preset("norm-growth"))

    def test_strict_halving_along_steps(self):
        params = preset("layer-law", depth=3)
        tree = build_tree(params)
        sides = [s for _, _, s in tree.steps]
        assert all(b < a / 2 for a, b in zip(sides, sides[1:]))


class TestGreedyBranching:
    def test_two_layer_prefix(self):
        assert greedy_spacing_branching(1, 4.0, 1.0, 2) == (2, 2, 3)

    def test_prefix_stability(self):
        shallow = greedy_spacing_branching(1, 4.0, 1.0, 2)
        deep = greedy_spacing_branching(1, 4.0, 1.0, 3)
        assert deep[: len(shallow)] == shallow

    def test_first_side_below_half(self):
        # at M_0 = 2 the d = 2 kid side is 2^(-p/4) = 1/2, which no shift fits
        assert greedy_spacing_branching(2, 4.0, 2.0, 2) == (3, 2, 5, 11)
        with pytest.raises(SpacingViolation) as exc:
            build_tree(ConstructionParams(2, 4.0, 2.0, 2.0, (2, 2)))
        assert (exc.value.step, exc.value.suggested_m) == (0, 3)

    @pytest.mark.parametrize(
        "d,p,beta,message",
        [
            (0, 4.0, 1.0, "only d = 1 and d = 2"),
            (3, 4.0, 1.0, "only d = 1 and d = 2"),
            (1, 2.0, 1.0, "p must exceed 2"),
            (1, 0.0, 1.0, "p must exceed 2"),
            (1, -1.0, 1.0, "p must exceed 2"),
            (1, math.nan, 1.0, "p must exceed 2"),
            (1, 4.0, 0.0, "beta must be positive"),
            (1, 4.0, -1.0, "beta must be positive"),
            (1, 4.0, math.nan, "beta must be positive"),
        ],
        ids=["d_0", "d_3", "p_2", "p_0", "p_-1", "p_nan", "beta_0", "beta_-1", "beta_nan"],
    )
    def test_rejects_bad_parameters(self, d, p, beta, message):
        with pytest.raises(ValueError, match=message):
            greedy_spacing_branching(d, p, beta, 2)

    def test_node_budget_bounds_the_greedy_tree(self):
        # three d = 2 layers would take 1.37 M nodes; the growth stops at the
        # step that would pass the budget, with only the nodes before it made
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="85968 nodes, over the budget of 65536"):
                greedy_spacing_branching(2, 4.0, 2.0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_least_branching_stops_at_the_node_budget(self, monkeypatch):
        # no tree could hold a larger count, so the search ends there, also
        # for a side that never shrinks (rate 0) and one that grows
        monkeypatch.setattr(cantor, "_NODE_BUDGET", 100)
        for side, rate in ((lambda m: 1.0, 0.0), (lambda m: 1.0, 0.5), (lambda m: m**0.5, -0.5)):
            with pytest.raises(ResourceLimitError, match="step 3 needs over 100 kids"):
                cantor._least_branching(side, rate, 2, 1.0, 3)

    @settings(max_examples=100)
    @given(
        st.sampled_from((1, 2)),
        st.floats(2.1, 12.0),
        st.floats(0.5, 6.0),
        st.fractions(Fraction(1, 10**6), 1),
        st.integers(0, 6),
        st.integers(2, 50),
        st.floats(1e-3, 1.0) | st.tuples(st.integers(2, 5000), st.sampled_from((-math.inf, 0.0, math.inf))),
    )
    def test_least_branching_is_the_least_halving_count(self, d, p, beta, weight, layer, m, r_prev):
        # the one-power start finds what a search from m finds, one count at
        # a time, also where r_prev / 2 is a kid side or one ulp off it
        side = functools.partial(cantor._kid_side, d, p, beta, weight, layer)
        if isinstance(r_prev, tuple):
            k, towards = r_prev
            r_prev = 2.0 * (side(k) if towards == 0 else math.nextafter(side(k), towards))
        want = m
        while not side(want) < r_prev / 2 and want <= cantor._NODE_BUDGET:
            want += 1
        if want > cantor._NODE_BUDGET:
            with pytest.raises(ResourceLimitError):
                cantor._least_branching(side, p / (2.0 * d), m, r_prev, 0)
        else:
            assert cantor._least_branching(side, p / (2.0 * d), m, r_prev, 0) == want


class TestLayerCovering:
    def test_incomplete_layer_rejected(self):
        tree = build_tree(preset("norm-growth"))
        with pytest.raises(ValueError, match="incomplete"):
            layer_covering(tree, 2)

    def test_incomplete_layer_names_the_deepest_complete_one(self):
        tree = build_tree(preset("norm-growth"))
        with pytest.raises(ValueError, match="layer 3 incomplete: the deepest complete layer is 1"):
            layer_covering(tree, 3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_layer_sum_law(self, n):
        params = preset("layer-law", depth=3)
        tree = build_tree(params)
        cov = layer_covering(tree, n)
        agg = CapacityParams(2.0 * params.d / params.p, params.beta)
        value = nh_covering_sum(cov, agg)
        expect = float(n) ** (-2.0 * params.d * params.beta / params.p)
        assert value == pytest.approx(expect, rel=1e-12)


class TestSampling:
    def test_shift_support(self):
        rng = np.random.default_rng(0)
        s = sample_shifts(20, 0.3, rng)
        assert s.M == 20 and len(s.shifts) == 20
        assert all(0 <= v[0] <= 0.7 for v in s.shifts)

    def test_determinism(self):
        a = sample_shifts(10, 0.2, np.random.default_rng(42))
        b = sample_shifts(10, 0.2, np.random.default_rng(42))
        assert np.array_equal(a.shifts, b.shifts)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            sample_shifts(4, 0.7, np.random.default_rng(0))

    def test_select_nu_accepts(self):
        sel = select_nu(8, 0.1, 6.0, 3.0, budget=64, rng=np.random.default_rng(1))
        ints, thrs = sel.certificate.integrals, sel.certificate.thresholds
        assert all(i <= t for i, t in zip(ints, thrs))
        assert sel.certificate.draws >= 1

    def test_select_nu_budget_exhausted_raises(self):
        with pytest.raises(SelectionBudgetError):
            select_nu(8, 0.1, 6.0, 3.0, budget=0, rng=np.random.default_rng(1))

    def test_select_nu_exponent_order(self):
        with pytest.raises(ValueError):
            select_nu(8, 0.1, 3.0, 6.0, budget=4, rng=np.random.default_rng(1))


def per_draw_select_nu(M, r, p1, p2, budget, rng, d, grid, calibration_draws=15):
    """select_nu as one random_transform per draw, calibration included:
    returns (shifts, integrals, thresholds, draws) of the accepted sample."""
    expected = expected_transform(r, grid).values

    def moments(s):
        dev = np.abs(random_transform(s, grid).values - expected)
        return tuple(float(np.sum(dev**pe) * grid.cell_volume) for pe in (p1, p2))

    calib = np.asarray([moments(sample_shifts(M, r, rng, d)) for _ in range(calibration_draws)])
    thresholds = tuple(4.0 * np.median(calib[:, j]) for j in range(2))
    for i in range(budget):
        s = sample_shifts(M, r, rng, d)
        integrals = moments(s)
        if all(ii <= t for ii, t in zip(integrals, thresholds)):
            return s.shifts, integrals, thresholds, i + 1
    raise AssertionError("budget exhausted")


class TestBatchedSelection:
    @pytest.mark.parametrize("d, M, r", [(1, 12, 0.05), (2, 5, 0.1)])
    def test_batch_equals_stacked_batches_of_one(self, d, M, r):
        grid = _default_selection_grid(d, r)
        expected = expected_transform(r, grid).values
        shifts = np.random.default_rng(3).random((6, M, d)) * (1.0 - r)
        exps = (6.0, 3.0)
        batch = _moment_integrals(r, grid, expected, exps)(shifts)
        assert batch.shape == (6, 2)
        one_by_one = np.vstack([_moment_integrals(r, grid, expected, exps)(sh[None]) for sh in shifts])
        assert np.array_equal(batch, one_by_one)

    # at seed 29 the first case rejects three draws before it accepts
    @pytest.mark.parametrize("M, r, d, seed", [(8, 0.1, 1, 29), (60, 0.012, 1, 11), (6, 0.09, 2, 11)])
    def test_matches_per_draw_selection(self, M, r, d, seed):
        sel = select_nu(M, r, 6.0, 3.0, budget=64, rng=np.random.default_rng(seed), d=d)
        shifts, integrals, thresholds, draws = per_draw_select_nu(
            M, r, 6.0, 3.0, 64, np.random.default_rng(seed), d, _default_selection_grid(d, r)
        )
        assert np.array_equal(sel.sample.shifts, shifts)
        assert sel.certificate.draws == draws == (4 if seed == 29 else 1)
        got = sel.certificate.integrals + sel.certificate.thresholds
        for a, b in zip(got, integrals + thresholds):
            assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_layer_law_measure_matches_recorded_digest(self, seed):
        ref = json.loads(MEASURE_REFS.read_text())[f"layer-law/4/{seed}"]
        params = preset("layer-law", depth=4, seed=seed)
        _, measures = realize_tree(build_tree(params), params)
        assert hashlib.sha256(measures[-1].to_json().encode()).hexdigest() == ref


    def test_layer_law_realization_memory_is_bounded(self):
        # the moment work set of a step holds the phase factors of its M
        # shifts (M up to 1746 at depth 4) and one grid of deviations:
        # 7.4 MiB under tracemalloc; fresh temporaries per draw peaked at 8.3
        small = preset("layer-law", depth=1, seed=0)
        realize_tree(build_tree(small), small)  # first-use allocations outside the trace
        params = preset("layer-law", depth=4, seed=0)
        tracemalloc.start()
        try:
            realize_tree(build_tree(params), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.9 * 2**20


class TestRealizeTree:
    def _realized(self, seed=7):
        params = preset("norm-growth", seed=seed)
        return params, realize_tree(build_tree(params), params)

    def test_stage_count_and_masses(self):
        params, (tree, measures) = self._realized()
        assert len(measures) == len(params.M) + 1
        for mu in measures:
            assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
            assert sum(mu.mass_fractions) == Fraction(1)

    def test_first_split_is_exact_thirds(self):
        _, (tree, measures) = self._realized()
        assert measures[1].mass_fractions == (Fraction(1, 3),) * 3

    def test_nesting(self):
        _, (tree, measures) = self._realized()
        for node in tree.nodes:
            if node.parent is None:
                continue
            parent = tree.nodes[node.parent]
            for c, pc in zip(node.corner, parent.corner):
                assert c >= pc - 1e-12
                assert c + node.side <= pc + parent.side + 1e-12

    def test_stages_equal_fully_checked_measures(self):
        # split_first checks only the new atoms; the stage equals one built
        # and checked whole
        _, (_, measures) = self._realized()
        for mu in measures:
            assert mu == CubeMeasure(mu.d, mu.atoms, mu.mass_fractions)

    def test_split_first_checks_new_atoms(self):
        mu = CubeMeasure(1, (((0.0,), 1.0, 1.0),), (Fraction(1),))
        half = mu.split_first([((0.0,), 0.25), ((0.5,), 0.25)])
        assert half.atoms == (((0.0,), 0.25, 0.5), ((0.5,), 0.25, 0.5))
        assert half.mass_fractions == (Fraction(1, 2),) * 2
        with pytest.raises(ValueError):
            mu.split_first([((0.0,), 0.0)])
        with pytest.raises(ValueError):
            mu.split_first([((0.0, 0.0), 0.5)])
        with pytest.raises(ValueError):
            CubeMeasure(1, mu.atoms).split_first([((0.0,), 0.5)])

    def test_determinism_bit_identical(self):
        _, (_, m1) = self._realized()
        _, (_, m2) = self._realized()
        assert [m.to_json() for m in m1] == [m.to_json() for m in m2]

    def test_seed_changes_geometry(self):
        _, (_, m1) = self._realized(seed=7)
        _, (_, m2) = self._realized(seed=8)
        assert m1[-1].to_json() != m2[-1].to_json()

    def test_json_round_trip(self):
        _, (_, measures) = self._realized()
        mu = measures[-1]
        back = CubeMeasure.from_json(mu.to_json())
        assert back == mu
        assert back.mass_fractions == mu.mass_fractions

    @pytest.mark.parametrize(
        "mu",
        [
            CubeMeasure(1, (), ()),
            CubeMeasure(1, ()),
            CubeMeasure(2, (((0.1, -0.0), 0.5, 2.0), ((1e22, 3.0), 0.25, 1e-300))),
            CubeMeasure(2, (((0.5, 0.25), 0.5, 0.75),), (Fraction(3, 4),)),
        ],
        ids=["empty", "empty_default", "float_masses", "exact_masses"],
    )
    def test_json_text_is_the_indented_dump(self, mu):
        # to_json writes the text itself; json.dumps gives the reference layout
        text = mu.to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert CubeMeasure.from_json(text) == mu

    def test_two_dimensional_end_to_end(self):
        params = ConstructionParams(2, 4.0, 2.0, 2.0, greedy_spacing_branching(2, 4.0, 2.0, 2))
        tree, measures = realize_tree(build_tree(params), params)
        assert len(measures[-1].atoms) == 18
        for mu in measures:
            assert sum(mu.mass_fractions) == Fraction(1)
            assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
            field = cube_measure_transform(mu, FreqGrid(2, 32.0, 64))
            assert field.at_zero == pytest.approx(mu.total_mass, abs=1e-12)
        for node in tree.nodes[1:]:
            parent = tree.nodes[node.parent]
            for c, pc in zip(node.corner, parent.corner):
                assert pc - 1e-12 <= c and c + node.side <= pc + parent.side + 1e-12

    def test_certificates_one_per_step(self):
        params, (tree, _) = self._realized()
        assert len(tree.certificates) == len(tree.steps)
        for cert in tree.certificates:
            assert all(i <= t for i, t in zip(cert.integrals, cert.thresholds))
            assert cert.calibration_draws == 15
            assert 1 <= cert.draws <= 64
        assert build_tree(params).certificates == []

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            CubeMeasure.from_json('{"version": "cantor-measure/2", "d": 1, "atoms": []}')
