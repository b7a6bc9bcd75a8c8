"""The check record: a measured value against its bound, with the verdict,
margin and detail derived from the two."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab import experiments
from fflab.experiments import CheckResult, run_experiment
from fflab.lorentz import PplusStatus


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


class TestExperimentChecks:
    def test_dd_sobolev_pin_fails_at_seed_1(self):
        l2, sobolev, _ = run_experiment("DD_CORPUS", {}, 1).checks
        assert l2.name == "dd_l2_ratio_regression" and l2.passed and l2.margin > 0
        assert sobolev.name == "dd_sobolev_ratio_regression"
        assert not sobolev.passed and sobolev.margin < 0

    def test_lornor_band_is_two_sided(self, monkeypatch):
        # a ratio below 1/C fails the band as one above C does
        monkeypatch.setattr(experiments, "_lornor_ratios", lambda block, alpha, q: np.array([0.5, 1.0]))
        (check,) = run_experiment("LORNOR", {"n_seq": 5, "alphas": (1.0,), "qs": (1.0,)}, 0).checks
        assert (check.value, check.bound, check.passed) == (2.0, 1.05, False)

    def test_inapplicable_pplus_instance_fails(self, monkeypatch):
        pplus_rows = experiments._pplus_rows

        def one_inapplicable(*args):
            status, limsup_q, bound, detail = pplus_rows(*args)
            status[0], limsup_q[0], bound[0] = PplusStatus.NOT_APPLICABLE, math.nan, math.nan
            return status, limsup_q, bound, detail

        monkeypatch.setattr(experiments, "_pplus_rows", one_inapplicable)
        _, pplus = run_experiment("TR_PPLUS", {"n_instances": 6}, 0).checks
        assert pplus.name == "pplus_zero_violations"
        assert pplus.value == math.inf and not pplus.passed
