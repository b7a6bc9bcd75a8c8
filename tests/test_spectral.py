"""Tests for the analytic transforms, moment estimators, bump norms and the
threshold series.

Transforms are checked against direct quadrature of the defining integral at
a handful of frequencies, so the sinc product formulas never certify
themselves.
"""

import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import spherical_jn

import fflab
from fflab import experiments, spectral
from fflab.cantor import _default_selection_grid, build_tree, realize_tree
from fflab.capacity import ResourceLimitError
from fflab.experiments import run_experiment
from fflab.lorentz import LorentzExponents
from fflab.measures import CubeMeasure, ShiftSample
from fflab.presets import preset
from fflab.spectral import (
    BumpFamily,
    FreqGrid,
    SeriesVerdict,
    SpectrumField,
    TruncationWarning,
    _cis,
    _cube_envelope,
    _j3_quotient,
    _moment_integrals,
    _spectrum_norms,
    _split_phases,
    bump_sum_norms,
    cube_measure_transform,
    expected_transform,
    lorentz_spectrum_norm,
    np_moment_estimate,
    np_variance_oracle,
    ooo_deviation,
    random_transform,
    read_spectrum,
    resl_series,
    sinc_tail_bound,
    smooth_bump_profile,
    smooth_bump_transform,
    write_spectrum,
)


def quad_transform(mu: CubeMeasure, xi: float, n: int = 200_001) -> complex:
    """Direct quadrature of int exp(-2 pi i x xi) dmu(x) in one dimension."""
    total = 0.0j
    for (corner,), side, mass in mu.atoms:
        x = np.linspace(corner, corner + side, n)
        f = np.exp(-2j * math.pi * x * xi)
        total += mass / side * np.trapezoid(f, x)
    return total


def as_cube_measure(s: ShiftSample) -> CubeMeasure:
    """The realization as M side-r cubes of mass 1/M at the shifts."""
    return CubeMeasure(s.d, tuple((v, s.r, 1.0 / s.M) for v in s.shifts.tolist()))


class TestGrid:
    def test_axis_and_zero(self):
        g = FreqGrid(1, 4.0, 8)
        assert np.allclose(g.axis(), np.arange(-4, 4))
        assert g.axis()[g.zero_index[0]] == 0.0
        assert g.cell_volume == pytest.approx(1.0)

    def test_odd_samples_rejected(self):
        with pytest.raises(ValueError):
            FreqGrid(1, 4.0, 7)

    @pytest.mark.parametrize("samples", [0, -2])
    def test_fewer_than_two_samples_rejected(self, samples):
        with pytest.raises(ValueError, match="at least 2"):
            FreqGrid(1, 4.0, samples)

    def test_other_dimensions_rejected(self):
        with pytest.raises(ValueError):
            FreqGrid(3, 4.0, 8)

    @pytest.mark.parametrize("d, samples", [(1, 2**20 + 2), (2, 1026), (1, 10**12), (2, 10**12)])
    def test_grid_past_the_cell_budget_rejected(self, d, samples):
        # refused in the constructor, before any axis is made
        with pytest.raises(ResourceLimitError, match=rf"a grid of {samples}\^{d} cells is over the budget"):
            FreqGrid(d, 4.0, samples)

    def test_cell_budget_admits_every_shipped_grid(self):
        # criterion 9's refinement grid and select_nu's largest d = 2 grid
        assert 2**18 < spectral._GRID_CELL_BUDGET and 256**2 < spectral._GRID_CELL_BUDGET
        FreqGrid(1, 4.0, spectral._GRID_CELL_BUDGET)
        FreqGrid(2, 4.0, 2**10)

    def test_field_shape_checked(self):
        with pytest.raises(ValueError):
            SpectrumField(FreqGrid(1, 1.0, 4), np.zeros(6))


class TestCubeTransform:
    def test_value_at_zero_is_total_mass(self):
        mu = CubeMeasure(1, (((0.2,), 0.3, 0.4), ((0.6,), 0.1, 0.6)))
        field = cube_measure_transform(mu, FreqGrid(1, 4.0, 8))
        assert field.at_zero == pytest.approx(1.0)

    def test_unit_cube_vanishes_at_integers(self):
        mu = CubeMeasure(1, (((0.0,), 1.0, 1.0),))
        field = cube_measure_transform(mu, FreqGrid(1, 4.0, 8))
        vals = dict(zip(field.grid.axis(), field.values))
        for xi in (-3.0, -1.0, 1.0, 3.0):
            assert abs(vals[xi]) < 1e-12

    def test_against_quadrature(self):
        rng = np.random.default_rng(2)
        atoms = tuple(
            ((c,), s, m)
            for c, s, m in zip(rng.random(3) * 0.5, rng.uniform(0.05, 0.3, 3), (0.2, 0.3, 0.5))
        )
        mu = CubeMeasure(1, atoms)
        field = cube_measure_transform(mu, FreqGrid(1, 4.0, 8))
        for j, xi in enumerate(field.grid.axis()):
            assert field.values[j] == pytest.approx(quad_transform(mu, xi), abs=1e-8)

    def test_hermitian_symmetry(self):
        mu = CubeMeasure(1, (((0.2,), 0.3, 1.0),))
        field = cube_measure_transform(mu, FreqGrid(1, 4.0, 16))
        v = field.values
        n = field.grid.samples
        for j in range(1, n):
            assert v[n - j] == pytest.approx(np.conj(v[j]), abs=1e-12)

    def test_two_dimensional_product(self):
        mu = CubeMeasure(2, (((0.1, 0.3), 0.2, 1.0),))
        field = cube_measure_transform(mu, FreqGrid(2, 2.0, 4))
        mu_x = CubeMeasure(1, (((0.1,), 0.2, 1.0),))
        mu_y = CubeMeasure(1, (((0.3,), 0.2, 1.0),))
        fx = cube_measure_transform(mu_x, FreqGrid(1, 2.0, 4)).values
        fy = cube_measure_transform(mu_y, FreqGrid(1, 2.0, 4)).values
        assert np.allclose(field.values, np.outer(fx, fy))


class TestRandomAndExpected:
    def test_random_matches_cube_measure_form(self):
        rng = np.random.default_rng(3)
        draws = rng.random((6, 1)) * 0.8
        s = ShiftSample(6, 0.2, draws, 1)
        grid = FreqGrid(1, 8.0, 32)
        direct = random_transform(s, grid).values
        via_atoms = cube_measure_transform(as_cube_measure(s), grid).values
        assert np.allclose(direct, via_atoms, atol=1e-12)

    def test_magnitude_bounded_by_mass(self):
        rng = np.random.default_rng(4)
        draws = rng.random((10, 1)) * 0.9
        s = ShiftSample(10, 0.1, draws, 1)
        field = random_transform(s, FreqGrid(1, 32.0, 256))
        assert np.all(np.abs(field.values) <= 1.0 + 1e-12)
        assert field.at_zero == pytest.approx(1.0)

    def test_expected_against_density_quadrature(self):
        r = 0.2
        grid = FreqGrid(1, 8.0, 16)
        field = expected_transform(r, grid)
        # density of the convolution of uniform laws on [0,r] and [0,1-r]
        x = np.linspace(0.0, 1.0, 400_001)
        dens = (np.minimum(np.minimum(x, r), np.minimum(1.0 - x, 1.0 - r))) / (r * (1.0 - r))
        dens = np.clip(dens, 0.0, None)
        for j, xi in enumerate(grid.axis()):
            quad = np.trapezoid(dens * np.exp(-2j * math.pi * x * xi), x)
            assert field.values[j] == pytest.approx(quad, abs=1e-6)

    def test_monte_carlo_matches_variance_oracle(self):
        M, r = 16, 0.25
        grid = FreqGrid(1, 8.0, 64)
        ((est, se),) = np_moment_estimate(M, r, (2.0,), grid, trials=60, rng=np.random.default_rng(5))
        oracle = np_variance_oracle(M, r, grid)
        assert abs(est - oracle) <= 3.0 * se

    def test_variance_scales_inversely_with_m(self):
        grid = FreqGrid(1, 8.0, 64)
        v1 = np_variance_oracle(10, 0.25, grid)
        v2 = np_variance_oracle(40, 0.25, grid)
        assert v1 == pytest.approx(4.0 * v2, rel=1e-12)

    def test_truncation_warning(self):
        grid = FreqGrid(1, 2.0, 32)
        with pytest.warns(TruncationWarning):
            np_moment_estimate(4, 0.1, (4.0,), grid, trials=30, rng=np.random.default_rng(0))

    def test_tail_bound_positive_and_decreasing(self):
        b1 = sinc_tail_bound(0.1, 4.0, 16.0, 1)
        b2 = sinc_tail_bound(0.1, 4.0, 64.0, 1)
        assert 0 < b2 < b1

    @pytest.mark.parametrize(
        "d, r, p_exp, half_extent, samples",
        [(1, 0.125, 2.0, 4.0, 256), (1, 0.05, 3.0, 8.0, 512), (2, 0.05, 1.5, 2.0, 32)],
    )
    def test_tail_bound_holds_on_a_wider_grid(self, d, r, p_exp, half_extent, samples):
        # the window's tail of |nu_hat - E mu_hat|^p, summed out to 8 times the
        # window on the same spacing, for 20 draws; one shift per draw keeps
        # |nu_hat - E mu_hat| near its largest.  In d = 2 a bound taking the
        # other axis over the window width only falls below this tail.
        window = FreqGrid(d, half_extent, samples)
        wide = FreqGrid(d, 8.0 * half_extent, 8 * samples)
        shifts = np.random.default_rng(1).random((20, 1, d)) * (1.0 - r)
        moments = [
            _moment_integrals(r, g, expected_transform(r, g).values, (p_exp,))(shifts)[:, 0]
            for g in (window, wide)
        ]
        tail = moments[1] - moments[0]
        assert np.all(tail > 0)
        assert tail.max() <= sinc_tail_bound(r, p_exp, half_extent, d)


def direct_transform(points, sides, masses, grid: FreqGrid) -> np.ndarray:
    """sum_k masses[k] prod_a exp(-2 pi i points[k, a] xi_a) phi(sides[k] xi_a),
    with phi the side-s cube factor exp(-i pi s xi) sinc(s xi), summed over an
    explicit (K, N^d) phase tensor."""
    mesh = np.meshgrid(*([grid.axis()] * grid.d), indexing="ij")
    shape = (-1,) + (1,) * grid.d
    phase = sum(points[:, a].reshape(shape) * mesh[a] for a in range(grid.d))
    atoms = np.exp(-2j * math.pi * phase) * masses.reshape(shape)
    for a in range(grid.d):
        s = sides.reshape(shape)
        atoms = atoms * np.exp(-1j * math.pi * s * mesh[a]) * np.sinc(s * mesh[a])
    return atoms.sum(axis=0)


class TestSplitGemm:
    # Both forms round each phase 2 pi s xi, with |s| <= 1 and |xi| <= X <= 512,
    # to within 2 pi |s xi| 2^-53 <= 4e-13 (the unit roundoff), hence atol 1e-12.

    @pytest.mark.parametrize("M", [1, 7, 300])
    @pytest.mark.parametrize("d, N, X", [(1, 250, 64.0), (1, 4098, 512.0), (2, 64, 32.0)])
    def test_random_transform_matches_direct_sum(self, d, N, X, M):
        rng = np.random.default_rng(N + M)
        r = 0.05
        shifts = rng.random((M, d)) * (1.0 - r)
        grid = FreqGrid(d, X, N)
        got = random_transform(ShiftSample(M, r, shifts, d), grid).values
        want = direct_transform(shifts, np.full(M, r), np.full(M, 1.0 / M), grid)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("d, N, X", [(1, 4098, 512.0), (2, 64, 32.0)])
    def test_cube_measure_mixed_sides_matches_direct_sum(self, d, N, X):
        rng = np.random.default_rng(d)
        K = 40
        corners = rng.random((K, d)) * 0.7
        sides = rng.choice([0.3, 0.05, 0.125], K)
        masses = rng.random(K) + 0.1
        masses /= masses.sum()
        mu = CubeMeasure(d, tuple((tuple(c), s, m) for c, s, m in zip(corners, sides, masses)))
        grid = FreqGrid(d, X, N)
        got = cube_measure_transform(mu, grid).values
        assert np.max(np.abs(got - direct_transform(corners, sides, masses, grid))) <= 1e-12
        assert got[grid.zero_index] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("d, M, N, limit_mib", [(1, 1746, 4096, 16), (2, 40, 256, 8)])
    def test_no_phase_tensor(self, d, M, N, limit_mib):
        # an (M, N^d) complex phase tensor alone would take 109 MiB (d = 1)
        # and 40 MiB (d = 2)
        rng = np.random.default_rng(0)
        r = 0.01
        s = ShiftSample(M, r, rng.random((M, d)) * (1.0 - r), d)
        grid = FreqGrid(d, 512.0, N)
        tracemalloc.start()
        try:
            random_transform(s, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20


def _poison(work):
    for flat in work.arrays.values():
        flat.fill(np.nan)


class TestWorkSets:
    # One work set serves every draw of a moment batch and every stage of a
    # SPECTRUM_NORM grid.  Poisoning all of it before each draw or stage
    # shows any cell read without being rewritten, and the oracles are the
    # expressions on fresh arrays that the work sets replaced, bit for bit.

    @pytest.mark.parametrize("d, r", [(1, 0.02), (1, 0.3), (2, 0.1)])
    def test_moment_draws_match_fresh_arrays(self, monkeypatch, d, r):
        grid = _default_selection_grid(d, r)
        expected = expected_transform(r, grid).values
        envelope = _cube_envelope(grid, r)
        exps = (6.0, 3.0, 2.0)  # 2.0 takes numpy's square fast path
        phase_sum, works = spectral._phase_sum, []

        def poisoning(points, weights, grid, work=None):
            _poison(work)
            works.append(work)
            return phase_sum(points, weights, grid, work)

        monkeypatch.setattr(spectral, "_phase_sum", poisoning)
        moments = _moment_integrals(r, grid, expected, exps)
        rng = np.random.default_rng(5)
        for M in (16, 200, 3, 64):  # the buffers grow, then serve smaller draws
            shifts = rng.random((3, M, d)) * (1.0 - r)
            got = moments(shifts)
            for t, draw in enumerate(shifts):
                weights = np.full(M, 1.0 / M)
                if d == 1:
                    hi, lo = _split_phases(draw[:, 0], grid)
                    phase = (hi @ (weights[:, None] * lo)).ravel()[: grid.samples]
                else:
                    phase = phase_sum(draw, weights, grid)
                dev = np.abs(phase * envelope - expected)
                assert got[t].tolist() == [np.sum(dev**pe) * grid.cell_volume for pe in exps]
        assert len(works) == 12 and all(w is works[0] for w in works)

    @pytest.mark.parametrize("d, r", [(1, 0.02), (2, 0.1)])
    def test_moment_draws_make_each_array_once(self, monkeypatch, d, r):
        # every name keeps one dtype, so no two temporaries swap one slot:
        # each array is made at the first draw, and a second call makes none
        made = []

        class Counting(spectral._Work):
            def get(self, name, shape, dtype=float):
                before = self.arrays.get(name)
                out = super().get(name, shape, dtype)
                if self.arrays[name] is not before:
                    made.append(name)
                return out

        monkeypatch.setattr(spectral, "_Work", Counting)
        grid = _default_selection_grid(d, r)
        moments = _moment_integrals(r, grid, expected_transform(r, grid).values, (6.0, 3.0, 2.0))
        shifts = np.random.default_rng(7).random((4, 64, d)) * (1.0 - r)
        moments(shifts)
        assert len(made) == len(set(made)) > 0, made
        made.clear()
        moments(shifts[::-1])
        assert made == []

    # 2^17 samples split as 363 x 362 > N, 4096 as 64 x 64
    @pytest.mark.parametrize("samples", [4096, 2**17])
    def test_spectrum_stages_match_fresh_transforms(self, monkeypatch, samples):
        params = preset("norm-growth", seed=0)
        _, mus = realize_tree(build_tree(params), params)
        grid = FreqGrid(1, 6144.0, samples)
        fresh = [cube_measure_transform(mu, grid) for mu in mus]
        transform, fields = spectral._transform_values, []

        def poisoning(mu, grid, xi, work):
            _poison(work)
            fields.append(transform(mu, grid, xi, work).copy())
            return fields[-1]

        monkeypatch.setattr(spectral, "_transform_values", poisoning)
        for e in (LorentzExponents(4.0, 2.0), LorentzExponents(3.0, math.inf)):
            fields.clear()
            norms = _spectrum_norms(mus, grid, e)
            assert all(np.array_equal(a, f.values) for a, f in zip(fields, fresh, strict=True))
            assert norms == [lorentz_spectrum_norm(f, e) for f in fresh]

    # 16 382 is the largest grid below numpy's 256 KiB temporary-elision
    # threshold of 2^14 complex cells, which reverses a product's operands
    @pytest.mark.parametrize("d, samples", [(1, 4096), (1, 16382), (1, 2**14), (1, 2**17), (1, 2**18), (2, 128)])
    def test_transform_matches_fresh_expression(self, d, samples):
        # the oracle is the transform as one expression of fresh arrays per
        # side, in whatever operand order numpy evaluates it
        def envelope(grid, side):
            xi = grid.axis()
            f = _cis(-math.pi * side * xi, np.empty(xi.shape, complex)) * np.sinc(side * xi)
            return f if grid.d == 1 else np.outer(f, f)

        def phase_sum(points, weights, grid):
            if grid.d == 2:
                return spectral._phase_sum(points, weights, grid)
            hi, lo = _split_phases(points[:, 0], grid)
            return (hi @ (weights[:, None] * lo)).ravel()[: grid.samples]

        if d == 1:
            params = preset("norm-growth", seed=0)
            mus = realize_tree(build_tree(params), params)[1]
        else:
            rng = np.random.default_rng(6)
            mus = [CubeMeasure(2, tuple((tuple(rng.random(2)), s, 0.125) for s in (0.1, 0.05) * 4))]
        grid = FreqGrid(d, 6144.0 if d == 1 else 40.0, samples)
        for mu in mus:
            corners, sides, masses = mu.corners_sides_masses()
            want = np.zeros((samples,) * d, dtype=complex)
            for side in np.unique(sides):
                group = sides == side
                want += phase_sum(corners[group], masses[group], grid) * envelope(grid, side)
            assert np.array_equal(cube_measure_transform(mu, grid).values, want)

    def test_spectrum_norm_memory_is_bounded(self):
        # at 2^18 cells the work set holds three complex fields (the sum, the
        # GEMM, whose halves are the envelope's scratch, and the envelope),
        # the axis and the norm's three rows: 20.7 MiB under tracemalloc.
        # Fresh temporaries per stage peaked at 22.0 MiB.
        run_experiment("SPECTRUM_NORM", {}, 0)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            result = run_experiment("SPECTRUM_NORM", {}, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.checks[0].passed
        assert peak < 22 * 2**20


class TestPhaseFactors:
    # The phase 2 pi s xi, with 0 <= s < 1 and |xi| <= X = 16, is rounded to
    # within a few units of 2 pi X 2^-53 = 1.1e-14 in either form, hence
    # atol 1e-13.
    X = 16.0

    @staticmethod
    def _shape(n):
        bs = math.isqrt(n)
        return bs, -(-n // bs), divmod(n // 2, bs)

    @pytest.mark.parametrize("N", [250, 640, 3200, 4096, 2**17])
    def test_factors_match_direct_exponentials(self, N):
        # isqrt(N) is 15, 25, 56, 64 and 362: square and non-square splits
        s = np.random.default_rng(N).random(7)
        grid = FreqGrid(1, self.X, N)
        hi, lo = _split_phases(s, grid)
        bs, a_count, (a0, b0) = self._shape(N)
        h = 2.0 * self.X / N
        assert hi.shape == (a_count, len(s)) and lo.shape == (len(s), bs)
        direct_hi = np.exp(-2j * math.pi * np.outer(h * bs * (np.arange(a_count) - a0), s))
        direct_lo = np.exp(-2j * math.pi * np.outer(s, h * (np.arange(bs) - b0)))
        assert np.max(np.abs(hi - direct_hi)) <= 1e-13
        assert np.max(np.abs(lo - direct_lo)) <= 1e-13
        full = (hi.T[:, :, None] * lo[:, None, :]).reshape(len(s), -1)[:, :N]
        direct = np.exp(-2j * math.pi * np.outer(s, grid.axis()))
        assert np.max(np.abs(full - direct)) <= 1e-13

    # select_nu's grids, r from 1/4 (N = 256, X = 16) to 1e-5 (N = 4096, X = 512),
    # and criterion 9's two grids at X = 4 / (least side) of the norm-growth measure
    LEAST_SIDE = min(node.side for node in build_tree(preset("norm-growth")).nodes)
    RECURRENCE_GRIDS = [_default_selection_grid(1, r) for r in (0.25, 0.1, 0.05, 0.02, 0.008, 1e-5)] + [
        FreqGrid(1, 4.0 / LEAST_SIDE, 2**17),
        FreqGrid(1, 8.0 / LEAST_SIDE, 2**18),
    ]

    @pytest.mark.parametrize("grid", RECURRENCE_GRIDS, ids=lambda g: f"N{g.samples}_X{g.half_extent:g}")
    def test_powers_are_within_the_recurrence_bound(self, grid):
        # _centred_phases' bound |j - c| (4 |theta| + 4) 2^-53 against a
        # long-double reference, itself within |j - c| |theta| 2^-60 + 2^-62
        assert np.finfo(np.longdouble).nmant >= 63
        s = np.concatenate([np.random.default_rng(grid.samples).random(61), [0.0, 0.5, 1.0 - 2.0**-53]])
        hi, lo = _split_phases(s, grid)
        bs, _, (a0, b0) = self._shape(grid.samples)
        h = 2.0 * grid.half_extent / grid.samples
        two_pi = 8 * np.arctan(np.longdouble(1))
        for phases, step, centre in ((hi, h * bs, a0), (lo.T, h, b0)):
            j = np.abs(np.arange(len(phases)) - centre)[:, None]
            theta = two_pi * s.astype(np.longdouble) * np.longdouble(step)
            angle = np.outer(np.arange(len(phases)) - centre, theta)
            error = np.hypot(phases.real - np.cos(angle), phases.imag + np.sin(angle))
            bound = j * ((4 * theta + 4) * 2.0**-53 + theta * 2.0**-60) + 2.0**-62
            assert np.all(error <= bound)

    @pytest.mark.parametrize("N", [250, 640, 3200, 4096, 2**17])
    def test_factors_are_one_at_zero(self, N):
        s = np.random.default_rng(N).random(7)
        hi, lo = _split_phases(s, FreqGrid(1, self.X, N))
        _, _, (a0, b0) = self._shape(N)
        assert np.all(hi[a0] == 1) and np.all(lo[:, b0] == 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_transform_at_zero_is_the_plain_mass_sum(self, d):
        atoms = tuple(
            ((0.1 + 0.2 * i,) * d, side, mass)
            for i, (side, mass) in enumerate(((0.05, 0.3), (0.125, 0.45), (0.3, 0.25)))
        )
        mu = CubeMeasure(d, atoms)
        field = cube_measure_transform(mu, FreqGrid(d, 32.0, 256 if d == 1 else 64))
        assert field.at_zero == sum(mass for _, _, mass in atoms)

    def test_cis_matches_complex_exponential(self):
        theta = np.random.default_rng(0).uniform(-1.0, 1.0, 200_000) * (2.0 * math.pi * 512 * 4096)
        theta[:5] = (0.0, -0.0, math.pi, 2.0 * math.pi * 512 * 4096, -2.0 * math.pi * 512 * 4096)
        got, want = _cis(theta, np.empty(theta.shape, complex)), np.exp(1j * theta)
        for part in ("real", "imag"):
            g, w = getattr(got, part), getattr(want, part)
            assert np.all(np.abs(g - w) <= 2 * np.spacing(np.abs(w))), part


class TestOooDeviation:
    def test_against_quadrature(self):
        for r, p_exp in ((0.1, 4.0), (0.3, 3.0), (0.49, 6.0)):
            pp = p_exp / (p_exp - 1.0)
            x = np.linspace(0.0, 1.0, 400_001)
            dens = np.clip(
                np.minimum(np.minimum(x, r), np.minimum(1.0 - x, 1.0 - r)) / (r * (1.0 - r)),
                0.0,
                None,
            )
            quad = np.trapezoid(np.abs(1.0 - dens) ** pp, x) ** (1.0 / pp)
            assert ooo_deviation(r, p_exp) == pytest.approx(quad, rel=1e-6)

    def test_small_r_power_law(self):
        # the deviation scales like r^{1/p'} as r -> 0
        p_exp = 4.0
        rs = [2.0**-k for k in range(10, 21)]
        vals = [ooo_deviation(r, p_exp) for r in rs]
        slope = float(np.polyfit(np.log(rs), np.log(vals), 1)[0])
        assert slope == pytest.approx(0.75, abs=0.02)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            ooo_deviation(0.1, 2.0)


def direct_sobolev(fam: BumpFamily, grid: FreqGrid) -> float:
    """The order-1 Sobolev norm of a bump sum on the line, summing one
    np.exp phase per bump over the grid's frequencies."""
    xi = grid.axis()
    rho = np.abs(xi)
    ghat = np.zeros(xi.shape, dtype=complex)
    for x, r in fam.bumps:
        ghat += np.exp(-2j * math.pi * x * xi) * r * smooth_bump_transform(r * rho)
    weight = np.sqrt(1.0 + (2.0 * math.pi * rho) ** 2)
    return float(np.sqrt(np.sum(weight**2 * np.abs(ghat) ** 2) * grid.cell_volume))


class TestBumps:
    def test_profile_support(self):
        assert smooth_bump_profile(0.0) == 1.0
        assert smooth_bump_profile(3.0) == 0.0
        assert smooth_bump_profile(5.0) == 0.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="intervals 0 and 1 overlap"):
            BumpFamily(((0.3, 0.2), (0.5, 0.2)))
        with pytest.raises(ValueError, match="intervals 0 and 2 overlap"):
            BumpFamily(((0.5, 0.1), (0.0, 0.1), (0.3, 0.1)))  # touching is overlapping
        assert BumpFamily(((0.5, 0.1), (0.0, 0.1), (0.25, 0.1))).bumps[2] == (0.25, 0.1)

    @pytest.mark.parametrize("r", [0.0, -0.1, 1.0, 2.0])
    def test_radius_outside_unit_interval_rejected(self, r):
        with pytest.raises(ValueError, match="radius must lie in"):
            BumpFamily(((0.0, r),))

    def test_closed_form_matches_quadrature(self):
        # Trapezoid rule for 2 int psi(t) cos(2 pi s t) dt on [0, 3].  By
        # Euler-Maclaurin its error for an integrand f is h^2/12 (f'(3) -
        # f'(0)) + O(h^4), and the h^2 term vanishes: f'(0) = f'(3) = 0.
        t = np.linspace(0.0, 3.0, 200_001)
        psi = smooth_bump_profile(t)
        tiny = 1e-2 / (6.0 * math.pi)  # k = 6 pi s = 1e-2, deep in the series
        j3_switch = 2.0 / (6.0 * math.pi)  # k = 2, the series switch
        s = np.concatenate(
            [
                np.linspace(0.0, 10.0, 101),
                tiny * np.array([0.5, 0.999, 1.001, 2.0]),
                j3_switch * np.array([0.99, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.01]),
            ]
        )
        for si in s:
            quad = 2.0 * np.trapezoid(psi * np.cos(2.0 * math.pi * si * t), t)
            assert abs(smooth_bump_transform(si) - quad) <= 1e-12, si

    def test_j3_matches_scipy(self):
        # agreement to 1e-13 of the envelope of |j_3|, min(k^3/105, 1/k),
        # or of |j_3| where larger; 1/k alone would not see the closed
        # form's cancellation at small k, which a switch at k = 0.5 instead
        # of 2 brings to 4e-11
        k = np.concatenate([np.geomspace(1e-3, 2e4, 200_001), 2.0 + np.array([-2e-6, 0.0, 2e-6])])
        want = spherical_jn(3, k)
        err = np.abs(k**3 * _j3_quotient(k) - want)
        assert np.all(err <= 1e-13 * np.maximum(np.abs(want), np.minimum(k**3 / 105.0, 1.0 / k)))
        assert _j3_quotient(np.zeros(1))[0] == 1.0 / 105.0

    def test_package_runs_with_scipy_blocked(self):
        # scipy is a test oracle only: with its import made to fail, the
        # CLI, every criterion's module and the bump norms still load and run
        script = (
            "import math, sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "import fflab.acceptance, fflab.cli\n"
            "from fflab.spectral import BumpFamily, FreqGrid, bump_sum_norms, smooth_bump_transform\n"
            "g = smooth_bump_transform(np.linspace(0.0, 5.0, 11))\n"
            "norms = bump_sum_norms(BumpFamily(((0.3, 0.05), (0.7, 0.02))), FreqGrid(1, 64.0, 256))\n"
            "print(bool(np.all(np.isfinite(g))), all(map(math.isfinite, norms)))\n"
        )
        src = str(Path(fflab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        ).stdout.split()
        assert out == ["True", "True"]

    def test_norms_refuse_a_grid_off_the_line(self):
        with pytest.raises(ValueError, match="bump families live on the line"):
            bump_sum_norms(BumpFamily(((0.5, 0.1),)), FreqGrid(2, 64.0, 128))

    def test_single_bump_l2(self):
        r = 0.25
        fam = BumpFamily(((0.5, r),))
        grid = FreqGrid(1, 64.0, 1024)
        l2, sob, l2_bound, sob_bound = bump_sum_norms(fam, grid)
        t = np.linspace(0.0, 3.0, 100_001)
        expect = math.sqrt(2.0 * r * np.trapezoid(smooth_bump_profile(t) ** 2, t))
        assert l2 == pytest.approx(expect, rel=1e-3)
        assert l2_bound == pytest.approx(math.sqrt(r))
        assert sob_bound == pytest.approx(math.sqrt(1.0 / r))
        assert sob > 0

    def test_single_bump_sobolev_parseval(self):
        # Parseval: int (1 + (2 pi xi)^2) |g_hat|^2 = |g|_2^2 + |g'|_2^2, and
        # both are polynomial integrals for g = psi(|x - c| / r)
        r = 0.25
        psi = np.polynomial.Polynomial([1.0, 0.0, -1.0 / 9.0]) ** 3
        sq, dsq = (psi**2).integ(), (psi.deriv() ** 2).integ()
        exact = math.sqrt(2.0 * r * (sq(3.0) - sq(0.0)) + 2.0 / r * (dsq(3.0) - dsq(0.0)))
        _, sob, _, _ = bump_sum_norms(BumpFamily(((0.5, r),)), FreqGrid(1, 64.0, 4096))
        assert sob == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize(
        "bumps, grid",
        [(((0.2, 0.05), (0.6, 0.1), (1.0, 0.05)), FreqGrid(1, 320.0, 4096))],
        ids=["d1-repeated-radius"],
    )
    def test_sobolev_matches_per_bump_direct_sum(self, bumps, grid):
        fam = BumpFamily(bumps)
        _, sob, _, _ = bump_sum_norms(fam, grid)
        assert sob == pytest.approx(direct_sobolev(fam, grid), rel=1e-12)

    def test_far_bumps_add_orthogonally(self):
        r = 0.1
        grid = FreqGrid(1, 64.0, 1024)
        one = bump_sum_norms(BumpFamily(((0.5, r),)), grid)
        two = bump_sum_norms(BumpFamily(((0.5, r), (10.0, r))), grid)
        assert two[0] == pytest.approx(math.sqrt(2.0) * one[0], rel=1e-4)


class TestLorentzSpectrumNorm:
    def test_constant_field(self):
        grid = FreqGrid(1, 2.0, 16)
        field = SpectrumField(grid, np.full(16, 3.0, dtype=complex))
        e = LorentzExponents(4.0, 2.0)
        # one plateau of height 3 and mass equal to the window length 4
        assert lorentz_spectrum_norm(field, e) == pytest.approx(3.0 * 4.0**0.25, rel=1e-12)

    def test_zero_field(self):
        grid = FreqGrid(1, 2.0, 16)
        field = SpectrumField(grid, np.zeros(16, dtype=complex))
        assert lorentz_spectrum_norm(field, LorentzExponents(2.0, 2.0)) == 0.0

    def test_weak_norm(self):
        grid = FreqGrid(1, 2.0, 16)
        values = np.full(16, 0.5, dtype=complex)
        values[0] = 3.0
        # cells of width 1/4: sup of m(t)^(1/2) t is (1/4)^(1/2) * 3 = 1.5
        # at t = 3, against 4^(1/2) * 0.5 = 1 at t = 0.5
        field = SpectrumField(grid, values)
        assert lorentz_spectrum_norm(field, LorentzExponents(2.0, math.inf)) == 1.5


def series_sum(p, q, d, beta):
    """math.fsum of the first K terms of the threshold series, K doubled until
    the ratio-test bound on the rest is below 1e-15 of the sum."""
    rate = ((q - 1.0) / beta) * (beta - q / (q - 1.0) / 2.0)
    k = 64
    while True:
        n = np.arange(k + 2, dtype=float)
        t = 2.0 ** (-n * rate) * (n + 1.0) ** (q * d / p)
        total = math.fsum(t[:-1])
        rho = t[-1] / t[-2]
        if rho < 1.0 and t[-1] / (1.0 - rho) < 1e-15 * total:
            return total
        k *= 2


class TestSeries:
    def test_boundary_diverges(self):
        _, verdict, _ = resl_series(4.0, 2.0, 1, 1.0, 50)
        assert verdict is SeriesVerdict.DIVERGENT

    def test_below_boundary_diverges(self):
        _, verdict, _ = resl_series(4.0, 2.0, 1, 0.8, 50)
        assert verdict is SeriesVerdict.DIVERGENT

    def test_above_boundary_converges(self):
        sums, verdict, _ = resl_series(4.0, 2.0, 1, 1.6, 50)
        assert verdict is SeriesVerdict.CONVERGENT
        assert len(sums) == 51
        assert np.all(np.diff(sums) > 0)

    def test_partial_sums_prefix_stable(self):
        s10, _, _ = resl_series(4.0, 3.0, 1, 1.2, 10)
        s40, _, _ = resl_series(4.0, 3.0, 1, 1.2, 40)
        assert np.allclose(s10, s40[:11])

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            resl_series(4.0, 1.0, 1, 2.0, 20)

    def test_rejects_infinite_q(self):
        with pytest.raises(ValueError, match=r"q must lie in \(1, inf\), got inf"):
            resl_series(4.0, math.inf, 1, 2.0, 20)

    @pytest.mark.parametrize("beta", [1.00001, 1.000001])
    def test_converges_just_above_the_threshold(self, beta):
        _, verdict, _ = resl_series(4.0, 2.0, 1, beta, 200)
        assert verdict is SeriesVerdict.CONVERGENT

    @pytest.mark.parametrize(
        "q, beta",
        [
            (1.5, 1.5),
            (2.0, 1.0),
            (3.0, 0.75),
            (1.1, 5.5),
            pytest.param(np.float64(1.1), np.float64(5.5), id="numpy-1.1-5.5"),
        ],
    )
    def test_diverges_exactly_at_the_threshold(self, q, beta):
        # 1.1/(2 (1.1 - 1)) is 5.5 in decimals but falls below 5.5 in floats
        sums, verdict, upper = resl_series(4.0, q, 1, beta, 200)
        assert verdict is SeriesVerdict.DIVERGENT
        assert upper == math.inf
        assert sums[-1] >= 201

    @pytest.mark.parametrize("beta", [0.0, -0.5])
    def test_rejects_non_positive_beta(self, beta):
        with pytest.raises(ValueError, match="beta"):
            resl_series(4.0, 2.0, 1, beta, 50)

    @settings(max_examples=40)
    @given(
        q=st.floats(1.25, 4.0),
        gap=st.floats(1e-3, 1.0),
        p=st.floats(1.0, 8.0),
        d=st.sampled_from((1, 2)),
        n_max=st.integers(10, 500),
    )
    def test_tail_bound_encloses_the_sum(self, q, gap, p, d, n_max):
        beta = q / (q - 1.0) / 2.0 + gap
        sums, verdict, upper = resl_series(p, q, d, beta, n_max)
        assert verdict is SeriesVerdict.CONVERGENT
        total = series_sum(p, q, d, beta)
        # a float sum of n positive terms is within (n - 1) u of the exact
        # sum (recursive summation, Higham ch. 4); upper is already widened
        assert sums[-1] <= total + (n_max + 2) * 2.0**-53 * total
        assert total <= upper < math.inf

    @pytest.mark.parametrize("q, beta", [(1.5, 1.55), (2.0, 1.05), (3.0, 0.8), (2.0, 1.001)])
    @pytest.mark.parametrize("n_max", [10, 20])
    def test_bound_is_finite_where_the_last_ratio_exceeds_one(self, q, beta, n_max):
        # the term ratio at n_max is still above 1 here: the terms peak later
        _, verdict, upper = resl_series(4.0, q, 1, beta, n_max)
        assert verdict is SeriesVerdict.CONVERGENT
        assert series_sum(4.0, q, 1, beta) <= upper < math.inf

    @pytest.mark.parametrize("n_max", [10, 20, 200])
    def test_threshold_check_passes_at_short_sums(self, n_max):
        result = run_experiment("RESL_SERIES", {"n_max": n_max}, 0)
        assert [(c.name, c.passed) for c in result.checks] == [("resl_threshold", True)]

    def test_threshold_check_fails_on_a_flipped_verdict(self, monkeypatch):
        # beta = 1.55 > q'/2 = 1.5 for q = 1.5: its terms fall below 1
        def flipped(p, q, d, beta, n_max):
            sums, verdict, upper = resl_series(p, q, d, beta, n_max)
            if (q, beta) == (1.5, 1.55):
                return sums, SeriesVerdict.DIVERGENT, math.inf
            return sums, verdict, upper

        monkeypatch.setattr(experiments, "resl_series", flipped)
        result = run_experiment("RESL_SERIES", {}, 0)
        assert not result.checks[0].passed

class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        mu = CubeMeasure(1, (((0.2,), 0.3, 1.0),))
        field = cube_measure_transform(mu, FreqGrid(1, 4.0, 32))
        path = tmp_path / "field.spec"
        write_spectrum(field, path)
        back = read_spectrum(path)
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)
        assert back.values.flags.writeable

    def test_header(self, tmp_path):
        field = SpectrumField(FreqGrid(1, 2.0, 4), np.zeros(4, dtype=complex))
        path = tmp_path / "field.spec"
        write_spectrum(field, path)
        raw = path.read_bytes()
        assert raw[:5] == b"SPEC1"
        assert len(raw) == 5 + 16 + 4 * 2 * 8

    @pytest.mark.parametrize(
        "raw,message",
        [
            (b"NOPE!" + b"\0" * 32, "bad magic"),
            (b"SPEC1" + struct.pack("<ii", 1, 4), "truncated header: 8 of 16 bytes"),
            (b"SPEC1" + struct.pack("<iid", 1, 4, 2.0) + b"\0" * 48, "payload of 48 bytes, expected 4\\^1"),
        ],
        ids=["magic", "header", "payload"],
    )
    def test_malformed_file(self, tmp_path, raw, message):
        path = tmp_path / "bad.spec"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=message):
            read_spectrum(path)

    def test_grid_past_the_cell_budget_refused(self, tmp_path):
        path = tmp_path / "huge.spec"
        path.write_bytes(b"SPEC1" + struct.pack("<iid", 1, 2**30, 2.0))
        with pytest.raises(ResourceLimitError, match="over the budget"):
            read_spectrum(path)
