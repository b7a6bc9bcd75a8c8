"""Shared measure containers: cube measures and shift samples.

These types are produced by the construction module and consumed by the
spectral module; keeping them here avoids a dependency cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

__all__ = ["CubeMeasure", "ShiftSample"]

_FORMAT_VERSION = "cantor-measure/1"


def _checked_atoms(d: int, atoms) -> tuple:
    """The atoms as (corner tuple, side, mass) floats, each checked."""
    norm = tuple(
        (tuple(map(float, corner)), float(side), float(mass)) for corner, side, mass in atoms
    )
    for corner, side, mass in norm:
        if len(corner) != d:
            raise ValueError("corner dimension mismatch")
        if not side > 0:
            raise ValueError("cube side must be positive")
        if not mass > 0:
            raise ValueError("atom mass must be positive")
    return norm


@dataclass(frozen=True)
class CubeMeasure:
    """A finite sum Sigma w_i * lambda_{Q_i} of normalized Lebesgue measures
    on axis-aligned cubes Q_i = corner + [0, side]^d.

    ``mass_fractions`` optionally carries the masses as exact rationals, and
    is None on a measure without atoms, as its JSON cannot tell () from
    None; the float ``atoms`` field is always authoritative for numerics.
    """

    d: int
    atoms: tuple  # of (corner tuple, side, mass)
    mass_fractions: Optional[tuple] = None  # of Fraction, parallel to atoms

    def __post_init__(self):
        object.__setattr__(self, "atoms", _checked_atoms(self.d, self.atoms))
        if self.mass_fractions is not None:
            fr = tuple(f if type(f) is Fraction else Fraction(f) for f in self.mass_fractions)
            if len(fr) != len(self.atoms):
                raise ValueError("mass_fractions must parallel atoms")
            object.__setattr__(self, "mass_fractions", fr or None)

    def split_first(self, cubes) -> "CubeMeasure":
        """This measure without its first atom, followed by the cubes
        (corner, side), which share that atom's exact mass equally.  Only the
        new atoms are checked: the others were when this measure was built,
        so a chain of splits costs time linear in the atoms it adds."""
        if self.mass_fractions is None:
            raise ValueError("splitting an atom needs exact masses")
        share = self.mass_fractions[0] / len(cubes)
        out = object.__new__(CubeMeasure)
        object.__setattr__(out, "d", self.d)
        kids = _checked_atoms(self.d, [(corner, side, share) for corner, side in cubes])
        object.__setattr__(out, "atoms", self.atoms[1:] + kids)
        object.__setattr__(out, "mass_fractions", self.mass_fractions[1:] + (share,) * len(cubes))
        return out

    @property
    def total_mass(self) -> float:
        return sum(mass for _, _, mass in self.atoms)

    def corners_sides_masses(self):
        corners = np.array([c for c, _, _ in self.atoms], dtype=float)
        sides = np.array([s for _, s, _ in self.atoms], dtype=float)
        masses = np.array([m for _, _, m in self.atoms], dtype=float)
        return corners, sides, masses

    def to_json(self) -> str:
        """The measure as the JSON text json.dumps(doc, sort_keys=True,
        indent=2) gives, written directly, since the indenting encoder is
        pure Python: doc holds the format version, d and the atoms, each a
        corner, side and mass given as repr strings of the floats, plus the
        exact mass as a fraction string when the masses are exact."""
        exact = self.mass_fractions
        atoms = []
        for i, (corner, side, mass) in enumerate(self.atoms):
            coords = ",\n".join([f'        "{c!r}"' for c in corner])
            coords = f"[\n{coords}\n      ]" if corner else "[]"
            mass_exact = f'      "mass_exact": "{exact[i]}",\n' if exact is not None else ""
            atoms.append(
                f'    {{\n      "corner": {coords},\n      "mass": "{mass!r}",\n'
                f'{mass_exact}      "side": "{side!r}"\n    }}'
            )
        body = "[\n" + ",\n".join(atoms) + "\n  ]" if atoms else "[]"
        return (
            f'{{\n  "atoms": {body},\n  "d": {json.dumps(self.d)},\n'
            f'  "version": {json.dumps(_FORMAT_VERSION)}\n}}\n'
        )

    @classmethod
    def from_json(cls, text: str) -> "CubeMeasure":
        """The measure ``to_json`` wrote.  Raises ValueError on text that is
        not JSON or not of that shape (another format version, a missing key,
        a value of the wrong kind) and on exact masses on some atoms only."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"the top level of a measure file must be a JSON object, not {doc!r:.40}")
        if doc.get("version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported measure format {doc.get('version')!r}")
        atoms = []
        fractions = []
        try:
            recs = doc["atoms"]
            if not isinstance(recs, list) or not all(isinstance(rec, dict) for rec in recs):
                raise ValueError("the atoms must be a list of JSON objects")
            for rec in recs:
                corner, side, mass = rec["corner"], rec["side"], rec["mass"]
                if not isinstance(corner, list):
                    raise ValueError(f"an atom's corner must be a list, not {corner!r}")
                if bool in map(type, (side, mass, *corner)):  # float(True) would read 1.0
                    raise ValueError(f"an atom's corner, side and mass must be numbers, not {rec!r:.80}")
                atoms.append((tuple(float(c) for c in corner), float(side), float(mass)))
                if "mass_exact" in rec:
                    fractions.append(Fraction(rec["mass_exact"]))
            d = doc["d"]
        except KeyError as exc:
            raise ValueError(f"measure file lacks the key {exc.args[0]!r}") from None
        except TypeError as exc:  # null, a list or an object where a number belongs
            raise ValueError(f"malformed measure file: {exc}") from None
        if type(d) is not int:  # not isinstance: a JSON true is a bool, an int subclass
            raise ValueError(f"the dimension d must be a JSON integer, not {d!r}")
        if fractions and len(fractions) != len(atoms):
            raise ValueError(f"mass_exact is given on {len(fractions)} of {len(atoms)} atoms")
        mf = tuple(fractions) if len(fractions) == len(atoms) else None
        return cls(d, tuple(atoms), mf)


@dataclass(frozen=True, eq=False)
class ShiftSample:
    """M uniform shifts in [0, 1-r]^d defining one realization of the
    random average of shifted side-r cube measures."""

    M: int
    r: float
    shifts: np.ndarray  # (M, d) float array
    d: int

    def __post_init__(self):
        sh = np.asarray(self.shifts, dtype=float)
        object.__setattr__(self, "shifts", sh)
        if not 0 < self.r < 0.5:
            raise ValueError(f"r must lie in (0, 1/2), got {self.r}")
        if sh.shape != (self.M, self.d):
            raise ValueError(f"shifts have shape {sh.shape}, expected (M, d) = {(self.M, self.d)}")
        if np.any((sh < 0) | (sh > 1 - self.r + 1e-15)):
            raise ValueError(f"a shift lies outside [0, 1-r]^d = [0, {1 - self.r}]^{self.d}")
