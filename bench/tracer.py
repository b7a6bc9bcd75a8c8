"""Layer timers installed from outside the fflab package.

``Tracer.install`` replaces each traced function, in every loaded ``fflab``
module namespace that binds it, with a wrapper that records a span: its
name, start, end and the span that was open when it was called.  Calls
between functions of one module (``check_quasi_triangle`` calling
``lorentz_norm``) go through the module namespace and are traced too.
``Tracer.restore`` puts the originals back.

Spans are aggregated per (name, parent) for calls, total and self time.
The first SPANS_KEPT spans of each name are also kept whole until the run
ends: the Lorentz kernels run about a million times in ``norms`` and
``nh_covering_sum`` half a million times in ``capacity``, too many to keep.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Traced functions per layer module.  Metric names are <layer>.<function>.<stat>.
TRACED = {
    "lorentz": (
        "check_lornor_equivalence",
        "dyadic_block_norm",
        "lorentz_seq_norm",
        "lorentz_norm",
        "overlay_sum",
        "check_quasi_triangle",
        "check_pplus",
    ),
    "spectral": (
        "random_transform",
        "cube_measure_transform",
        "expected_transform",
        "bump_sum_norms",
        "lorentz_spectrum_norm",
        "np_variance_oracle",
        "write_spectrum",
        "read_spectrum",
    ),
    "cantor": ("select_nu", "realize_tree", "build_tree"),
    "capacity": (
        "nh_capacity_delta",
        "check_hlp_item",
        "enumerate_antichain_coverings",
        "nh_covering_sum",
        "frostman_ratio",
    ),
}
# CubeMeasure methods, traced on the class.
MEASURE_METHODS = ("to_json", "from_json")
SPANS_KEPT = 1000
# Generators count the items they yield under this stat.
YIELDS = {"capacity.enumerate_antichain_coverings": "coverings"}


def _spectrum_bytes(field) -> int:
    """Size of a SPEC1 file: magic, header, interleaved doubles."""
    return 5 + 16 + 16 * field.values.size


def _phase_elems(args) -> int:
    sample, grid = args[0], args[1]
    return sample.M * grid.samples**grid.d


# Work counts per traced function: (args, result) -> {stat: increment}.
# Byte counts are computed from array shapes, not measured.
COUNTERS = {
    "lorentz.dyadic_block_norm": lambda a, r: {"values": len(a[0])},
    "lorentz.lorentz_seq_norm": lambda a, r: {"values": len(a[0])},
    "lorentz.lorentz_norm": lambda a, r: {"plateaus": len(a[0].entries)},
    "lorentz.overlay_sum": lambda a, r: {
        "cuts": len({a[0].origin, a[1].origin} | _ends(a[0]) | _ends(a[1]))
    },
    "spectral.random_transform": lambda a, r: {
        "phase_elems": _phase_elems(a),
        "phase_bytes": 16 * _phase_elems(a),  # one complex128 (M, N^d) tensor
    },
    "spectral.cube_measure_transform": lambda a, r: {
        "atom_points": len(a[0].atoms) * a[1].samples ** a[1].d
    },
    "spectral.lorentz_spectrum_norm": lambda a, r: {"cells": a[0].values.size},
    "spectral.write_spectrum": lambda a, r: {"bytes": _spectrum_bytes(a[0])},
    "cantor.select_nu": lambda a, r: {
        "draws": r.certificate.draws,
        "calibration_draws": r.certificate.calibration_draws,
    },
    "capacity.nh_capacity_delta": lambda a, r: {"points": len(a[0].points)},
    "measures.to_json": lambda a, r: {"bytes": len(r)},
}


def _ends(sample) -> set:
    """Right ends of a sample's plateaus, laid out from its origin; with
    the origins these are the cuts of ``overlay_sum``'s common refinement."""
    ends, pos = set(), sample.origin
    for _, mass in sample.entries:
        pos += mass
        ends.add(pos)
    return ends


class Tracer:
    def __init__(self):
        self.root = ["bench.glue", 0.0]  # [name, time covered by child spans]
        self.stack = [self.root]
        # (name, parent) -> [calls, total seconds, self seconds]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])
        self.max_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.spans = []  # (name, start, end, parent)
        self.kept = defaultdict(int)
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _close(self, frame, parent, start, end, calls=1):
        name, child = frame
        dur = end - start
        parent[1] += dur
        rec = self.agg[(name, parent[0])]
        rec[0] += calls
        rec[1] += dur
        rec[2] += dur - child
        if dur > self.max_s[name]:
            self.max_s[name] = dur
        if self.kept[name] < SPANS_KEPT:
            self.kept[name] += 1
            self.spans.append((name, start, end, parent[0]))

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent, frame = self.stack[-1], [name, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._close(frame, parent, start, end)

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                for stat, inc in count(args, result).items():
                    self.counts[name][stat] += inc
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """A generator's work happens while it is resumed: each resumption is
        a span under whatever span is open at that moment, and the items it
        yields are counted."""

        stat = YIELDS.get(name, "items")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            calls = 1
            while True:
                parent, frame = self.stack[-1], [name, 0.0]
                self.stack.append(frame)
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    self.stack.pop()
                    self._close(frame, parent, start, end, calls)
                    calls = 0
                self.counts[name][stat] += 1
                yield item

        return traced

    # -- installing ----------------------------------------------------------

    def _replace(self, original, wrapper):
        """Bind ``wrapper`` wherever an fflab module binds ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("fflab") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        from fflab import acceptance, experiments, measures

        for layer, names in TRACED.items():
            mod = sys.modules[f"fflab.{layer}"]
            for fname in names:
                original = getattr(mod, fname)
                self._replace(original, self.wrap(f"{layer}.{fname}", original))
        cls = measures.CubeMeasure
        for meth in MEASURE_METHODS:
            raw = cls.__dict__[meth]
            self._patches.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self.wrap(f"measures.{meth}", raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(f"measures.{meth}", raw))
        table = experiments.EXPERIMENTS
        for exp_name, fn in list(table.items()):
            self._patches.append((table, exp_name, fn))
            table[exp_name] = self.wrap(f"experiments.{exp_name}", fn)
        dp = acceptance.capacity_dp_exactness
        self._replace(dp, self.wrap("experiments.CAPACITY_DP", dp))

    def restore(self):
        for owner, attr, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._patches.clear()

    # -- report --------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"calls", "s", "self_s", "max_s", work counts...},
        summed over parents."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, _parent), (calls, total, self_s) in self.agg.items():
            rec = out[name]
            rec["calls"] += calls
            rec["s"] += total
            rec["self_s"] += self_s
        for name, m in self.max_s.items():
            out[name]["max_s"] = m
        for name, stats in self.counts.items():
            out[name].update(stats)
        return dict(out)

    def dump(self) -> dict:
        return {
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.agg.items())
            ],
            "spans": self.spans,
        }
