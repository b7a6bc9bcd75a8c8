"""Checks with teeth: each row declares one defect in one function and the
criterion check that must fail when it is injected.

The defect replaces the function in every fflab module that names it, and
only the named criterion runs, at seed 0.  A crash is not a catch: the named
check must be computed and must fail.
"""

import sys

import pytest

from fflab import capacity, lorentz, spectral
from fflab.acceptance import run_criterion


def scaled(factor):
    def defect(f):
        return lambda *args, **kwargs: f(*args, **kwargs) * factor

    return defect


def drop_first_kept_row(prune):
    def broken(rows):
        kept = prune(rows)
        return kept[1:] if len(kept) > 1 else kept

    return broken


# (module, function, defect, criterion, check); the comment gives the
# failing value at seed 0
DEFECTS = [
    # 7.07e-10: the DP's optimum is scaled, the covering sum is not
    pytest.param(capacity, "covering_sums", scaled(1 + 1e-9), 10, "capacity_dp_exact", id="covering_sums_scaled"),
    # 0.134: the least-sum row of every frontier is lost
    pytest.param(capacity, "_prune", drop_first_kept_row, 10, "capacity_dp_exact", id="prune_drops_a_kept_row"),
    # 7.470222 against 7.469386: ||f + g_j||^q grows, the bound ||f||^q + A^q less
    pytest.param(lorentz, "_lorentz_norms", scaled(1 + 1e-3), 6, "pplus_zero_violations", id="lorentz_norms_scaled"),
    # 1.0000000827e-9 against 1e-9: every layer sum moves off the power law
    pytest.param(capacity, "nh_covering_sum", scaled(1 + 1e-9), 1, "layer_sum_law", id="covering_sum_scaled"),
    # 1.085494 against 1.084411: a pin, the seed-0 maximum recorded in
    # recorded.DD_CORPUS_MAX, so this row is caught by a regression pin only
    pytest.param(spectral, "_phase_sum", scaled(1 + 1e-3), 7, "dd_sobolev_ratio_regression", id="phase_sum_scaled"),
]


@pytest.mark.parametrize("home,name,defect,criterion,check", DEFECTS)
def test_declared_defect_fails_its_check(monkeypatch, home, name, defect, criterion, check):
    real = getattr(home, name)
    broken = defect(real)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("fflab") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, broken)
    result = run_criterion(criterion, 0)
    (hit,) = [c for c in result.checks if c.name == check]
    assert not hit.passed, hit.detail
