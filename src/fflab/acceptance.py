"""The twelve-point acceptance suite behind ``lab verify``.

Each criterion runs one seeded experiment at its canonical settings.  Its
checks are ``CheckResult`` records, a measured value against its bound; the
criterion passes when every check does and it stays within its runtime
limit, where a limit of 0 means none (c2, c11, c12).  The JSON summary
carries each check's value, bound, margin and verdict, and is
byte-identical across reruns at one seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import List, Tuple

from .checks import CheckResult
from .experiments import capacity_dp_exactness, run_experiment

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "verify_all", "summary_json"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    wall_time: float
    checks: Tuple[CheckResult, ...] = ()


def _from_experiment(experiment: str):
    def runner(seed: int):
        result = run_experiment(experiment, {}, seed)
        return list(result.checks)

    return runner


def _dp_runner(seed: int):
    return list(capacity_dp_exactness(seed).checks)


CRITERIA: List[tuple] = [
    (1, "layer_sum_law", _from_experiment("H_ZERO"), 1.0),
    (2, "weight_conservation", _from_experiment("CONSTRUCT"), 0.0),
    (3, "np_moment_scaling", _from_experiment("NP_SWEEP"), 10.0),
    (4, "ooo_scaling", _from_experiment("OOO_SWEEP"), 5.0),
    (5, "lornor_bands", _from_experiment("LORNOR"), 5.0),
    (6, "quasi_triangle_and_pplus", _from_experiment("TR_PPLUS"), 2.0),
    (7, "bump_norm_regression", _from_experiment("DD_CORPUS"), 5.0),
    (8, "series_threshold", _from_experiment("RESL_SERIES"), 1.0),
    (9, "per_step_norm_growth", _from_experiment("SPECTRUM_NORM"), 5.0),
    (10, "capacity_dp_exactness", _dp_runner, 2.0),
    (11, "gauge_chains", _from_experiment("HLP"), 0.0),
    (12, "frostman_transfer", _from_experiment("FROSTMAN"), 0.0),
]


def run_criterion(number: int, seed: int = 0) -> CriterionResult:
    for num, name, runner, limit in CRITERIA:
        if num != number:
            continue
        started = time.perf_counter()
        try:
            checks = runner(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            elapsed = time.perf_counter() - started
            return CriterionResult(num, name, False, f"error: {exc}", elapsed)
        elapsed = time.perf_counter() - started
        passed = all(c.passed for c in checks)
        detail = "; ".join(f"{c.name}: {c.detail}" for c in checks)
        if limit and elapsed > limit:
            passed = False
            detail += f"; runtime {elapsed:.2f}s exceeded limit {limit}s"
        return CriterionResult(num, name, passed, detail, elapsed, tuple(checks))
    raise ValueError(f"no criterion numbered {number}")


def verify_all(seed: int = 0) -> List[CriterionResult]:
    return [run_criterion(num, seed) for num, _, _, _ in CRITERIA]


def summary_json(results: List[CriterionResult]) -> str:
    """Machine-readable summary; byte-identical across reruns at one seed
    because timings are excluded."""
    doc = [
        {"criterion": r.number, "name": r.name, "passed": r.passed, "detail": r.detail,
         "checks": [c.to_dict() for c in r.checks]}
        for r in results
    ]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
