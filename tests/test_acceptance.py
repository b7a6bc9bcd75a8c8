"""Acceptance suite: the twelve verification criteria behind ``lab verify``,
and the recorded constants re-derived from their seed-0 check records.

Each criterion test runs one criterion at seed 0 and prints a single
pass/fail line with the detail the CLI would show.
"""

import functools

import pytest

from fflab import recorded
from fflab.acceptance import CRITERIA, run_criterion
from fflab.experiments import run_experiment
from fflab.spectral import ooo_deviation

# Pins that a freeze at seed 0 no longer reproduces, with the reason each
# stays.  A pin is re-frozen only with a change to its corpus; doing so
# must drop it from here.
STALE_PINS = {
    ("DD_CORPUS_MAX", "sobolev"): "frozen from the interpolation table that the d = 1 bump transform "
    "had before its closed form; a freeze today gives 1.084411103",
}


@functools.cache
def seed_0_run(number):
    """The seed-0 run of one criterion, made once and shared by this module."""
    return run_criterion(number, seed=0)


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _, _ in CRITERIA],
    ids=[f"{num:02d}_{name}" for num, name, _, _ in CRITERIA],
)
def test_criterion(number, name):
    result = seed_0_run(number)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {number:2d} {name}: {result.detail}")
    assert result.passed, result.detail


def rederived_pins() -> dict:
    """Each constant of ``recorded`` as a freeze at seed 0 gives it: the
    seed-0 value of the check it bounds times its headroom, rounded."""
    records = {c.name: c.value for number in (4, 5, 7, 9) for c in seed_0_run(number).checks}
    bands = {}
    for name, value in records.items():
        if name.startswith("lornor_band_alpha="):
            alpha, q_key = name.removeprefix("lornor_band_alpha=").split("_q=")
            bands[(repr(float(alpha)), q_key)] = round(value * 1.05, 6)
    dd = {key: round(records[f"dd_{key}_ratio_regression"] * (1 + 1e-6), 9) for key in ("l2", "sobolev")}
    ((hypothesis, conclusion, *_),) = run_experiment("FROSTMAN", {}, 0).tables["constants"][1]
    ooo = dict(recorded.OOO_REFERENCE)
    if records["ooo_reference_value"] != 0.0:  # the record is the deviation from the pin: re-measure it
        ooo["value"] = ooo_deviation(ooo["r"], ooo["p"])
    return {
        "LORNOR_BANDS": bands,
        "DD_CORPUS_MAX": dd,
        "FROSTMAN": {"K": round(conclusion / hypothesis * 1.05, 6)},
        "NORM_GROWTH": {"C": round(records["per_step_norm_growth"] * 1.1, 6)},
        "OOO_REFERENCE": ooo,
    }


def test_recorded_pins_reproduce_from_seed_0():
    pins = rederived_pins()
    lines = "".join(f"{name} = {value!r}\n\n" for name, value in pins.items())
    refrozen = [key for key in STALE_PINS if pins[key[0]][key[1]] == getattr(recorded, key[0])[key[1]]]
    assert not refrozen, f"re-frozen, so no longer stale; drop from STALE_PINS: {refrozen}"
    kept = {name: dict(value) for name, value in pins.items()}
    for name, key in STALE_PINS:
        kept[name][key] = getattr(recorded, name)[key]
    assert kept == {name: getattr(recorded, name) for name in pins}, f"re-derived constants:\n\n{lines}"
