"""The check record: a measured value against the bound it must not exceed.

Every verifier in the package returns one, and a family of instances
reports its worst instance as one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CheckResult"]


@dataclass(frozen=True)
class CheckResult:
    """A measured value checked against its bound; it passes when value <=
    bound.  A strict tolerance is written as the float just below it
    (``math.nextafter(tol, 0)``), and a yes/no property as a count of
    violations against 0.  The margin is the signed relative headroom
    (bound - value) / |bound|, or bound - value when the bound is 0."""

    name: str
    value: float
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "bound", float(self.bound))

    @classmethod
    def worst(cls, name: str, values, bounds) -> "CheckResult":
        """The record of a family's worst instance: the first with ``not
        value <= bound``, or else the one with the least margin (a NaN
        margin, as of an inf value under an inf bound, counts as ample).
        So it passes exactly when every instance does."""
        values, bounds = np.broadcast_arrays(*(np.asarray(a, float).ravel() for a in (values, bounds)))
        if values.size == 0:
            raise ValueError(f"{name}: no instances to check")
        failed = np.flatnonzero(~(values <= bounds))
        if failed.size:
            i = failed[0]
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                gap = bounds - values
                margins = np.divide(gap, np.abs(bounds), out=gap, where=bounds != 0)
            i = np.argmin(np.where(np.isnan(margins), np.inf, margins))
        return cls(name, values[i], bounds[i])

    @property
    def passed(self) -> bool:
        return self.value <= self.bound

    @property
    def margin(self) -> float:
        gap = self.bound - self.value
        return gap / abs(self.bound) if self.bound else gap

    @property
    def detail(self) -> str:
        return f"{self.value!r} vs bound {self.bound!r}, margin {self.margin:+.3g}"

    def to_dict(self) -> dict:
        """The record that ``lab verify --json`` and ``manifest.json`` write."""
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "margin": self.margin, "passed": self.passed}
