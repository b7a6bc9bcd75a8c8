"""The check record: a measured value against its bound, with the verdict,
margin and detail derived from the two."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fflab import experiments
from fflab.capacity import HlpItem
from fflab.checks import CheckResult
from fflab.experiments import run_experiment


class TestRecord:
    @given(st.floats(), st.floats())
    def test_passed_is_value_at_most_bound(self, value, bound):
        assert CheckResult("c", value, bound).passed == (value <= bound)

    def test_strict_tolerance_is_the_float_below(self):
        bound = math.nextafter(1e-9, 0)
        assert not CheckResult("c", 1e-9, bound).passed
        assert CheckResult("c", bound, bound).passed
        assert CheckResult("c", bound, bound).margin == 0.0

    @pytest.mark.parametrize(
        "value, bound, margin",
        [(1.0, 2.0, 0.5), (3.0, 2.0, -0.5), (-3.0, -2.0, 0.5), (0.0, 0.0, 0.0), (3.0, 0.0, -3.0), (-1.0, 0.0, 1.0)],
    )
    def test_margin_is_signed_and_relative(self, value, bound, margin):
        check = CheckResult("c", value, bound)
        assert check.margin == margin
        assert (check.margin >= 0) == check.passed

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_infinite_or_nan_value_fails(self, value):
        check = CheckResult("c", value, 1.0)
        assert not check.passed
        assert not check.margin >= 0

    def test_detail_and_json_come_from_the_fields(self):
        check = CheckResult("c", np.int64(2), np.float64(0.5))
        assert type(check.value) is float and type(check.bound) is float
        assert check.detail == "2.0 vs bound 0.5, margin -3"
        record = json.loads(json.dumps(check.to_dict()))
        assert record == {"name": "c", "value": 2.0, "bound": 0.5, "margin": -3.0, "passed": False}


class TestWorst:
    @given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1))
    @example([(math.inf, math.inf), (1.0, 2.0)])
    @example([(math.nan, 1.0), (1.0, math.nan), (-math.inf, -math.inf)])
    @example([(1.0, 2.0), (math.nan, 1.0)])
    @example([(1.0, 2.0), (1.0, math.nan)])
    def test_passes_exactly_when_every_instance_does(self, pairs):
        values, bounds = zip(*pairs)
        assert CheckResult.worst("c", values, bounds).passed == all(v <= b for v, b in pairs)

    def test_first_failure_else_least_margin(self):
        assert CheckResult.worst("c", [1.0, 3.0, 5.0], [2.0, 2.0, 4.0]) == CheckResult("c", 3.0, 2.0)
        # margins 0.5, 0.25 and, against a zero bound, the absolute 1.0
        assert CheckResult.worst("c", [1.0, 3.0, -1.0], [2.0, 4.0, 0.0]) == CheckResult("c", 3.0, 4.0)
        assert CheckResult.worst("c", [2.0, 1.0], 2.0) == CheckResult("c", 2.0, 2.0)

    def test_inf_over_inf_passes_with_a_nan_margin(self):
        # its margin is (inf - inf)/inf, so a finite margin elsewhere is the worst
        check = CheckResult("c", math.inf, math.inf)
        assert check.passed and math.isnan(check.margin)
        assert CheckResult.worst("c", [math.inf, 1.0], [math.inf, 2.0]) == CheckResult("c", 1.0, 2.0)
        assert CheckResult.worst("c", [math.inf], [math.inf]).passed

    def test_no_instances_rejected(self):
        with pytest.raises(ValueError, match="no instances"):
            CheckResult.worst("c", [], [])


class TestExperimentChecks:
    def test_dd_sobolev_pin_fails_at_seed_1(self):
        l2, sobolev, _ = run_experiment("DD_CORPUS", {}, 1).checks
        assert l2.name == "dd_l2_ratio_regression" and l2.passed and l2.margin > 0
        assert sobolev.name == "dd_sobolev_ratio_regression"
        assert not sobolev.passed and sobolev.margin < 0

    def test_lornor_band_is_two_sided(self, monkeypatch):
        # a ratio below 1/C fails the band as one above C does
        monkeypatch.setattr(experiments, "_lornor_chunk", lambda chunk, alpha, q, work: np.array([0.5, 1.0]))
        (check,) = run_experiment("LORNOR", {"n_seq": 5, "alphas": (1.0,), "qs": (1.0,)}, 0).checks
        assert (check.value, check.bound, check.passed) == (2.0, 1.05, False)

    def test_inapplicable_pplus_instance_fails(self, monkeypatch):
        pplus_rows = experiments._pplus_rows

        def one_inapplicable(*args):
            values, bounds = pplus_rows(*args)
            values[0] = math.inf  # as for an instance whose preconditions fail
            return values, bounds

        monkeypatch.setattr(experiments, "_pplus_rows", one_inapplicable)
        _, pplus = run_experiment("TR_PPLUS", {"n_instances": 6}, 0).checks
        assert pplus.name == "pplus_zero_violations"
        assert pplus.value == math.inf and not pplus.passed

    def test_subadditivity_instance_over_its_bound_fails(self, monkeypatch):
        check_hlp_item = experiments.check_hlp_item
        pushed = []

        def one_over(item, inst):
            record = check_hlp_item(item, inst)
            if item is HlpItem.SUBADDITIVITY and not pushed:
                pushed.append(CheckResult(record.name, math.nextafter(record.bound, math.inf), record.bound))
                return pushed[0]
            return record

        monkeypatch.setattr(experiments, "check_hlp_item", one_over)
        sub, *others = run_experiment("HLP", {"n_clouds": 3}, 0).checks
        assert sub == pushed[0]
        assert not sub.passed and sub.margin < 0
        assert all(c.passed for c in others)
