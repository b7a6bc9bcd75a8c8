"""Tests for covering sums, the capacity dynamic program and its verifiers.

The exactness tests compare the Pareto-frontier optimum against a brute-force
enumeration of every dyadic antichain covering.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflab import capacity, experiments
from fflab.capacity import (
    CapacityParams,
    DyadicCovering,
    FrostmanResult,
    GaugeFunction,
    GridMeasure,
    HlpInstance,
    HlpItem,
    PointCloud,
    ResourceLimitError,
    bump_pairing,
    check_hlp_item,
    enumerate_antichain_coverings,
    frostman_ratio,
    nh_capacity_delta,
    nh_covering_sum,
    tent_profile,
)
from fflab.experiments import covering_keys, covering_sums, run_experiment


def brute_capacity(cloud, params, delta, depth):
    return min(
        nh_covering_sum(DyadicCovering(diams), params)
        for diams in enumerate_antichain_coverings(cloud, delta, depth)
    )


# the two eight-point clouds of capacity_dp_exactness
DP_CLOUDS = (
    PointCloud(tuple((x,) for x in (0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 0.984375, 0.9921875)), 1),
    PointCloud(tuple((x,) for x in (0.1, 0.12, 0.6, 0.61, 0.62, 0.9, 0.91, 0.99)), 1),
)

# clustered points keep boxes shared down to depth 7: 20 601 coverings
DEEP_CLOUD_2D = PointCloud(
    ((0.05, 0.05), (0.06, 0.07), (0.2, 0.1), (0.22, 0.12), (0.7, 0.8), (0.71, 0.83), (0.9, 0.6)), 2
)


def pareto_minimal(rows):
    """Distinct rows that no other row is <= in every column, in (sum, columns) order."""
    distinct = np.unique(rows, axis=0)
    below = (distinct[:, None, :] <= distinct[None, :, :]).all(axis=2)  # row i <= row j
    dominated = (below & ~np.eye(len(distinct), dtype=bool)).any(axis=0)
    return sorted(distinct[~dominated].tolist(), key=lambda v: (sum(v), v))


@st.composite
def count_rows(draw):
    """(n, k) int64 rows with many duplicates and ties, n up to three skyline
    blocks; half of them have near-constant row sums, so wide antichains."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3 * capacity._PRUNE_BLOCK))
    top = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, top + 1, size=(n, k), dtype=np.int64)
    if draw(st.booleans()):
        rows[:, -1] = top * (k - 1) - rows[:, :-1].sum(axis=1) + rng.integers(0, 2, size=n)
    return rows


def rebuilt_coverings(keys):
    """The covering behind each key: its diameters block by block, in the
    key's order of first appearance."""
    diameters, order, counts = keys
    return [
        DyadicCovering(tuple(float(diameters[g]) for g in row if g >= 0 for _ in range(counts[i, g])))
        for i, row in enumerate(order.tolist())
    ]


@pytest.fixture(scope="module")
def oracle_cases():
    """(keys, the keys' coverings, every raw covering) for the two clouds of
    capacity_dp_exactness and a d = 2 cloud."""
    cases = []
    for cloud, delta, depth in ((DP_CLOUDS[0], 0.5, 8), (DP_CLOUDS[1], 0.5, 8), (DEEP_CLOUD_2D, 0.9, 7)):
        keys = covering_keys(cloud, delta, depth)
        raw = [DyadicCovering(diams) for diams in enumerate_antichain_coverings(cloud, delta, depth)]
        cases.append((keys, rebuilt_coverings(keys), raw))
    return cases


class TestCoveringSum:
    def test_single_diameter(self):
        cov = DyadicCovering((0.3,))
        assert nh_covering_sum(cov, CapacityParams(0.5, 2.0)) == pytest.approx(0.3, rel=1e-12)

    def test_equal_diameters_one_block(self):
        cov = DyadicCovering((2.0**-5,) * 64)
        p = CapacityParams(1.0, 3.0)
        assert nh_covering_sum(cov, p) == pytest.approx(8.0, rel=1e-12)

    def test_sup_aggregation(self):
        cov = DyadicCovering((0.5, 0.5, 0.126))
        p = CapacityParams(1.0, math.inf)
        assert nh_covering_sum(cov, p) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("inf", [math.inf, float("inf")], ids=["math.inf", "float"])
    def test_sup_is_the_largest_block(self, inf):
        # 0.3 and 0.2 lie in the blocks [1/4, 1/2) and [1/8, 1/4)
        assert nh_covering_sum(DyadicCovering((0.3, 0.2)), CapacityParams(1.0, inf)) == 0.3

    def test_custom_phi_matches_power(self):
        cov = DyadicCovering((0.4, 0.3, 0.05, 0.01))
        q = 1.7
        power = nh_covering_sum(cov, CapacityParams(0.8, q))
        custom = nh_covering_sum(cov, CapacityParams(0.8, q, phi=lambda s: s**q))
        assert custom == pytest.approx(power, rel=1e-12)

    def test_empty_covering(self):
        assert nh_covering_sum(DyadicCovering(()), CapacityParams(1.0, 1.0)) == 0.0

    def test_scale_bound_enforced(self):
        with pytest.raises(ValueError):
            DyadicCovering((0.5,), delta=0.5)


class TestValidation:
    def test_cloud_outside_cube(self):
        with pytest.raises(ValueError):
            PointCloud(((1.5,),), 1)

    def test_cloud_dimension(self):
        with pytest.raises(ValueError):
            PointCloud(((0.5, 0.5),), 1)

    def test_phi_with_sup_rejected(self):
        with pytest.raises(ValueError):
            CapacityParams(1.0, math.inf, phi=lambda s: s)

    def test_nonmonotone_gauge_rejected(self):
        with pytest.raises(ValueError):
            GaugeFunction(lambda t: t * (2.0**-12 - t))

    def test_log_gauge_accepted(self):
        GaugeFunction(lambda t: 0.0 if t == 0 else t * math.log(1.0 / t))

    def test_depth_budget(self):
        cloud = PointCloud(((0.5,),), 1)
        with pytest.raises(ResourceLimitError):
            nh_capacity_delta(cloud, CapacityParams(1.0, 1.0), 0.5, 17)

    def test_frontier_budget_counter(self, monkeypatch):
        # the pruned frontier sizes of this cloud at depth 8 sum to 287
        cloud, params = DP_CLOUDS[1], CapacityParams(0.5, 1.0)
        monkeypatch.setattr(capacity, "_FRONTIER_BUDGET", 287)
        nh_capacity_delta(cloud, params, 0.5, 8)
        monkeypatch.setattr(capacity, "_FRONTIER_BUDGET", 286)
        with pytest.raises(ResourceLimitError, match="reached 287 frontier rows.* 286, at depth 8"):
            nh_capacity_delta(cloud, params, 0.5, 8)


class TestCapacityExactness:
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, pytest.param(math.inf, id="q3")])
    def test_structured_cloud(self, q):
        cloud = PointCloud(tuple((j / 7.0,) for j in range(8)), 1)
        params = CapacityParams(0.6, q)
        dp = nh_capacity_delta(cloud, params, 0.6, 6)
        assert dp == pytest.approx(brute_capacity(cloud, params, 0.6, 6), rel=1e-12)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, pytest.param(math.inf, id="q3")])
    def test_random_clouds(self, q):
        rng = np.random.default_rng(11)
        for _ in range(4):
            cloud = PointCloud(tuple((x,) for x in rng.random(4)), 1)
            params = CapacityParams(1.0, q)
            dp = nh_capacity_delta(cloud, params, 0.9, 6)
            assert dp == pytest.approx(brute_capacity(cloud, params, 0.9, 6), rel=1e-12)

    @pytest.mark.parametrize("inf", [math.inf, float("inf")], ids=["math.inf", "float"])
    def test_sup_capacity_closed_form(self, inf):
        # one point in each half: two boxes of one generation g share a
        # block, 2 * 2^(-g/2), so the least sup takes generations 6 and 5,
        # max(2^-3, 2^-2.5)
        cloud = PointCloud(((0.1,), (0.7,)), 1)
        assert nh_capacity_delta(cloud, CapacityParams(0.5, inf), 0.5, 6) == (2.0**-5) ** 0.5

    def test_two_dimensional(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(tuple(map(tuple, rng.random((3, 2)))), 2)
        params = CapacityParams(1.0, 2.0)
        dp = nh_capacity_delta(cloud, params, 0.9, 4)
        assert dp == pytest.approx(brute_capacity(cloud, params, 0.9, 4), rel=1e-12)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, pytest.param(math.inf, id="q3")])
    def test_two_dimensional_deep(self, q):
        cloud = DEEP_CLOUD_2D
        params = CapacityParams(0.5, q)
        dp = nh_capacity_delta(cloud, params, 0.9, 7)
        assert dp == pytest.approx(brute_capacity(cloud, params, 0.9, 7), rel=1e-12)

    @pytest.mark.parametrize(
        "q", [0.5, 1.0, 2.0, pytest.param(math.inf, id="q3"), pytest.param(math.log1p, id="phi")]
    )
    def test_distinct_coverings_oracle_is_exact(self, q, oracle_cases):
        # every key scores its own covering to the last bit, and the keys'
        # sums are exactly the raw coverings' sums; a key with sorted
        # diameters breaks this for finite q
        params = CapacityParams(0.5, 2.0, phi=q) if callable(q) else CapacityParams(0.5, q)
        for keys, rebuilt, raw in oracle_cases:
            assert len(rebuilt) == len({c.diameters for c in rebuilt}) < len(raw)
            sums = covering_sums(keys, params).tolist()
            assert sums == [nh_covering_sum(c, params) for c in rebuilt]
            plain = {nh_covering_sum(c, params) for c in raw}
            assert set(sums) == plain
            assert min(sums) == min(plain)

    def test_singleton_value(self):
        cloud = PointCloud(((0.3,),), 1)
        params = CapacityParams(0.7, 2.0)
        # deepest box is cheapest for an increasing block gauge
        expect = (2.0**-8) ** (0.7 * 2.0)
        assert nh_capacity_delta(cloud, params, 0.9, 8) == pytest.approx(expect, rel=1e-12)

    def test_depth_monotone(self):
        cloud = PointCloud(((0.1,), (0.4,), (0.8,)), 1)
        params = CapacityParams(0.5, 0.7)
        vals = [nh_capacity_delta(cloud, params, 0.9, depth) for depth in range(2, 9)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_delta_monotone(self):
        cloud = PointCloud(((0.1,), (0.45,), (0.8,)), 1)
        params = CapacityParams(0.5, 1.0)
        coarse = nh_capacity_delta(cloud, params, 1.0, 8)
        fine = nh_capacity_delta(cloud, params, 2.0**-3, 8)
        assert coarse <= fine * (1 + 1e-12)


class TestPrune:
    @settings(max_examples=80)
    @given(count_rows())
    def test_matches_pairwise_filter(self, rows):
        assert capacity._prune(rows).tolist() == pareto_minimal(rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_antichain_across_blocks(self, seed):
        # row sums within 3 of each other: most of the 900 distinct rows are
        # minimal, so both the blocks and the kept chunks run past two
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 5, size=(900, 8), dtype=np.int64)
        rows[:, -1] = 28 - rows[:, :-1].sum(axis=1) + rng.integers(0, 4, size=900)
        rows = np.concatenate((rows, rows[:300]))
        expected = pareto_minimal(rows)
        assert len(expected) > 3 * capacity._PRUNE_BLOCK
        assert capacity._prune(rows).tolist() == expected


class TestCoveringOracle:
    def test_chunk_size_does_not_change_keys(self, monkeypatch):
        whole = covering_keys(DP_CLOUDS[1], 0.5, 8)
        monkeypatch.setattr(experiments, "_KEY_CHUNK", 7)
        chunked = covering_keys(DP_CLOUDS[1], 0.5, 8)
        assert np.array_equal(whole[0], chunked[0], equal_nan=True)
        assert np.array_equal(whole[1], chunked[1])
        assert np.array_equal(whole[2], chunked[2])

    def test_independent_of_the_dp(self, monkeypatch):
        cloud, params = DP_CLOUDS[1], CapacityParams(0.5, 0.5)
        dp = nh_capacity_delta(cloud, params, 0.5, 8)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called the DP")

        for name in ("_frontier", "_prune", "_merge", "_frontier_cost"):
            monkeypatch.setattr(capacity, name, refuse)
        keys = covering_keys(cloud, 0.5, 8)
        assert covering_sums(keys, params).min() == dp

    def test_memory_is_bounded_by_chunks(self):
        # 109 600 coverings stream through in chunks: the peak measured 6.2 MiB,
        # 2.2 MiB of it inside the enumeration; one chunk of every covering
        # peaks at 78 MiB
        tracemalloc.start()
        try:
            covering_keys(DP_CLOUDS[0], 0.5, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize(
        "coverings, match",
        [
            ([(0.3, 0.4)], "more than one covering diameter"),
            ([(0.25,), (0.3,)], "more than one covering diameter"),
            ([(0.5, 0.5, 0.5)], "more sets of one generation"),
            ([(4.0,)], "outside generations"),
        ],
    )
    def test_rejects_malformed_coverings(self, monkeypatch, coverings, match):
        monkeypatch.setattr(experiments, "enumerate_antichain_coverings", lambda *args: iter(coverings))
        with pytest.raises(ValueError, match=match):
            covering_keys(PointCloud(((0.1,), (0.9,)), 1), 0.5, 4)

    def test_rejects_codes_that_overflow(self):
        # 13 generations of 8 points need 105^13 > 2^63 codes
        with pytest.raises(ValueError, match="overflow int64"):
            covering_keys(DP_CLOUDS[0], 0.5, 12)


class TestPropertyChecks:
    def _clouds(self):
        a = PointCloud(((0.05,), (0.15,), (0.3,)), 1)
        b = PointCloud(((0.55,), (0.7,), (0.95,)), 1)
        return a, b

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, pytest.param(math.inf, id="q3")])
    def test_subadditivity(self, q):
        a, b = self._clouds()
        inst = HlpInstance(cloud_a=a, cloud_b=b, params=CapacityParams(0.5, q), delta=0.5, depth=6)
        v = check_hlp_item(HlpItem.SUBADDITIVITY, inst)
        assert v.ok

    def test_separated_additivity_exact_for_additive_gauge(self):
        a, b = self._clouds()
        inst = HlpInstance(
            cloud_a=a, cloud_b=b, params=CapacityParams(0.5, 1.0), delta=0.125, depth=7
        )
        v = check_hlp_item(HlpItem.SEPARATED_ADDITIVITY, inst)
        assert v.ok
        assert v.lhs == pytest.approx(v.rhs, abs=1e-9)

    def test_separated_additivity_two_sided(self):
        a, b = self._clouds()
        inst = HlpInstance(
            cloud_a=a, cloud_b=b, params=CapacityParams(0.5, 2.0), delta=0.125, depth=7
        )
        assert check_hlp_item(HlpItem.SEPARATED_ADDITIVITY, inst).ok

    def test_unseparated_is_vacuous(self):
        a, b = self._clouds()
        inst = HlpInstance(cloud_a=a, cloud_b=b, params=CapacityParams(0.5, 1.0), delta=0.9)
        v = check_hlp_item(HlpItem.SEPARATED_ADDITIVITY, inst)
        assert v.ok and "vacuous" in v.note

    def test_q_monotone(self):
        inst = HlpInstance(profile=(2, 4, 8, 16), alpha=0.5, q=1.0, q2=2.0)
        assert check_hlp_item(HlpItem.Q_MONOTONE, inst).ok
        inst = HlpInstance(profile=(3, 1, 9, 2), alpha=1.0, q=2.0, q2=math.inf)
        assert check_hlp_item(HlpItem.Q_MONOTONE, inst).ok

    def test_alpha_jump_tight_profile(self):
        # doubling counts keep the alpha = 1 sup at exactly 1, so the
        # alpha2 = 2 tail meets the geometric bound with equality
        inst = HlpInstance(profile=(2, 4, 8, 16), alpha=1.0, alpha2=2.0)
        v = check_hlp_item(HlpItem.ALPHA_JUMP, inst)
        assert v.ok
        assert v.lhs == pytest.approx(v.rhs, rel=1e-12)

    def test_gauge_lower_chain(self):
        inst = HlpInstance(
            profile=(1, 3, 9, 27), alpha=1.0, q=0.5, gauge=GaugeFunction(lambda t: t**0.7)
        )
        assert check_hlp_item(HlpItem.GAUGE_LOWER, inst).ok

    @pytest.mark.parametrize("q", [2.0, pytest.param(math.inf, id="q1")])
    def test_gauge_upper_chain(self, q):
        inst = HlpInstance(
            profile=(1, 3, 9, 27), alpha=1.0, q=q, gauge=GaugeFunction(lambda t: t**1.3)
        )
        assert check_hlp_item(HlpItem.GAUGE_UPPER, inst).ok

    def test_gauge_lower_requires_concave_q(self):
        inst = HlpInstance(profile=(1, 2), alpha=1.0, q=2.0, gauge=GaugeFunction(lambda t: t))
        with pytest.raises(ValueError):
            check_hlp_item(HlpItem.GAUGE_LOWER, inst)


class TestPhiGeneral:
    def test_gauge_claim_checked_below_inverse_e(self):
        result = run_experiment("PHI_GENERAL", {}, 0)
        assert result.passed
        header, (checked, reversal) = result.tables["gauges"]
        rise = header.index("sums_rise")
        assert checked[1] < 1 / math.e and checked[rise]
        # with the 2^-2 diameter the largest block sum is 0.5 > 1/e, where
        # the log gauge shrinks as its exponent falls
        assert reversal[1] == 0.5 and not reversal[rise]


class TestFrostman:
    def test_tent_profile(self):
        assert tent_profile(0.0) == 1.0
        assert tent_profile(3.0) == 0.0
        assert tent_profile(1.5) == pytest.approx(0.5, rel=1e-12)

    def test_bump_pairing_point_mass(self):
        mu = GridMeasure(1, ((0.5,),), (2.0,))
        assert bump_pairing(mu, (0.5,), 0.25) == pytest.approx(2.0, rel=1e-12)
        assert bump_pairing(mu, (0.5,), 1e-3) == pytest.approx(2.0, rel=1e-12)

    def test_point_mass_ratio(self):
        mu = GridMeasure(1, ((0.5,),), (1.0,))
        res = frostman_ratio(mu, 0.5, 1.0, 1.0, np.random.default_rng(0))
        assert isinstance(res, FrostmanResult)
        assert res.hypothesis_constant > 0
        assert res.conclusion_constant > 0
        # the smallest candidate radius 2^-4 dominates the singleton families
        assert res.hypothesis_constant >= (2.0**4) ** 0.5 - 1e-9

    def test_empty_measure(self):
        res = frostman_ratio(GridMeasure(1, (), ()), 0.5, 1.0, 1.0, np.random.default_rng(0))
        assert res.hypothesis_constant == 0.0 and res.conclusion_constant == 0.0

    def test_rejects_infinite_q(self):
        # the radii norm ** (q * gamma) would be 0 or inf, so every family
        # would be skipped and the hypothesis constant read 0
        mu = GridMeasure(1, ((0.5,),), (1.0,))
        with pytest.raises(ValueError, match="q must be finite"):
            frostman_ratio(mu, 0.5, math.inf, 1.0, np.random.default_rng(0))
