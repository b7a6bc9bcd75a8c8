"""One pass of a benchmark workload, in a fresh process.

    python3 bench/workloads.py --workload construct --seed 0 --t0 <monotonic> [--trace]
    python3 bench/workloads.py --setup-only --t0 <monotonic>

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the end of the imports below.  The
pass prints one JSON object as its last line.  ``bench/run.py`` starts these
processes and reduces their results to the benchmark's metrics.

The three workloads together run each of the twelve ``lab verify``
criteria once.  ``--seed`` drives the realizations of the ``lab construct``
and ``lab spectrum`` paths and the corpora of c2 and c6; c1, c4 and c8 use
no seed.  The other criteria run at seed 0, the seed of ``lab verify``,
whatever ``--seed`` is: c5, c7, c9 and c12 compare against constants
recorded on the seed-0 corpora and fail at other seeds by design (seed 1
fails c5 and c7, seed 2 fails c9); c3 is a 3-sigma Monte-Carlo test that
fails on a few percent of seeds; and the cost of c10 and c11 swings up to
threefold with their random clouds (c11 takes 2.7 s at seed 3 and 7.4 s at
seed 1), which would drown the capacity workload's timing in seed-to-seed
variation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from fflab import acceptance, cantor, experiments, spectral  # noqa: E402
from fflab.lorentz import LorentzExponents  # noqa: E402
from fflab.measures import CubeMeasure  # noqa: E402
from fflab.presets import preset  # noqa: E402

from tracer import Tracer  # noqa: E402

OUT = HERE / "out"
REFS = json.loads((HERE / "refs" / "measure_sha256.json").read_text())

WORKLOADS = ("norms", "construct", "capacity")
PINNED = (3, 5, 7, 9, 10, 11, 12)

# --scale tiny: the same steps at sizes that run in about a second, for the
# harness self-test.  Criteria not listed run at full size (they are cheap),
# except those in TINY_LEFT_OUT: c10 has no size parameter, and c7 builds
# its bump-transform table, about 6 s, at any corpus size.
TINY = {
    3: ("NP_SWEEP", {"M": (16, 64), "r": (0.125,), "trials": 30}),
    5: ("LORNOR", {"n_seq": 200}),
    6: ("TR_PPLUS", {"n_instances": 200}),
    9: ("SPECTRUM_NORM", {"samples": 2**14}),
    11: ("HLP", {"n_clouds": 2}),
}
TINY_LEFT_OUT = (7, 10)
SIZES = {  # (layer-law depth, spectrum samples)
    "full": (4, 131072),
    "tiny": (2, 4096),
}


# Host speed.  Other tenants of this kind of host slow a process by up to
# 2.5x for minutes at a time, which no number of repeats averages out.  So
# the end-to-end times are reported in reference-speed seconds: measured
# seconds times REF_S over the time the reference kernel takes in the same
# process at the same moment.  REF_S is the kernel's median time on the
# 2-core Xeon sandbox where the bounds were set; it fixes only the unit.
REF_S = 0.0035
PROBE_INTERVAL_S = 0.1
SETUP_PROBES = 25
_SMALL = np.linspace(2.0, 1.0, 64)
_WAVE = np.linspace(0.0, 1.0, 20000)


def reference_kernel() -> float:
    """Seconds taken by fixed work in the mix the workloads do: small-array
    numpy calls, one vectorised complex exponential and an interpreter loop.
    It uses no fflab code, so a change to fflab cannot move it."""
    start = time.perf_counter()
    for _ in range(300):
        np.sort(_SMALL).cumsum().sum()
    np.exp(-2j * np.pi * 3.7 * _WAVE).mean()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Runs the reference kernel every PROBE_INTERVAL_S of wall time from a
    SIGALRM handler while active.  Python runs the handler between bytecodes,
    so a long numpy call delays the next sample; the probe's own time is
    kept in ``spent`` so that callers can leave it out."""

    def __init__(self, samples=()):
        self.samples = list(samples)
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Reference-speed seconds per measured second.  The samples are
        spread evenly in time, so the mean of REF_S/kernel is the mean host
        speed over the interval."""
        return REF_S * statistics.fmean(1.0 / k for k in self.samples)


def host_facts() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# output checks: each returns a list of (operation, passed, detail)


def realized_ops(label, tree, mus) -> list:
    """Every stage has total mass 1 and every kid cube lies in its parent."""
    worst = max(abs(m.total_mass - 1.0) for m in mus)
    outside = 0
    for k, _, _ in tree.steps:
        parent = tree.nodes[k]
        for kid_index in parent.kids:
            kid = tree.nodes[kid_index]
            for a in range(tree.params.d):
                lo, hi = parent.corner[a], parent.corner[a] + parent.side
                if kid.corner[a] < lo - 1e-12 or kid.corner[a] + kid.side > hi + 1e-12:
                    outside += 1
    return [
        (f"{label}_mass_one", worst < 1e-12, f"{len(mus)} stages, max |mass - 1| {worst:.3g}"),
        (f"{label}_nesting", outside == 0, f"{outside} kid cubes outside their parents"),
    ]


def construct_path(seed: int, depth: int) -> list:
    """What ``lab construct --preset layer-law`` does, minus the file write."""
    params = preset("layer-law", depth=depth, seed=seed)
    tree, mus = cantor.realize_tree(cantor.build_tree(params), params)
    text = mus[-1].to_json()
    back = CubeMeasure.from_json(text)
    ops = realized_ops("layer_law", tree, mus)
    ops.append(("measure_json_round_trip", back == mus[-1], f"{len(back.atoms)} atoms"))
    ref = REFS.get(f"layer-law/{depth}/{seed}")
    if ref is not None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        ops.append(("measure_sha256", digest == ref, digest))
    return ops


def spectrum_path(seed: int, samples: int) -> list:
    """What ``lab spectrum --p 4 --q 2 --extent 6144`` does on the
    norm-growth depth-3 measure, plus a SPEC1 round trip."""
    params = preset("norm-growth", depth=3, seed=seed)
    tree, mus = cantor.realize_tree(cantor.build_tree(params), params)
    mu = mus[-1]
    field = spectral.cube_measure_transform(mu, spectral.FreqGrid(mu.d, 6144.0, samples))
    norm = spectral.lorentz_spectrum_norm(field, LorentzExponents(4.0, 2.0))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"field-{os.getpid()}.spec"
    try:
        spectral.write_spectrum(field, path)
        back = spectral.read_spectrum(path)
    finally:
        path.unlink(missing_ok=True)
    zero_err = abs(field.at_zero - mu.total_mass)
    ops = realized_ops("norm_growth", tree, mus)
    ops += [
        ("spectrum_norm_finite", math.isfinite(norm) and norm > 0, repr(norm)),
        ("spectrum_at_zero_is_mass", zero_err < 1e-12, f"|F(0) - mass| = {zero_err:.3g}"),
        ("spec1_round_trip", back.grid == field.grid and np.array_equal(back.values, field.values), ""),
    ]
    return ops


# ---------------------------------------------------------------------------
# steps


def criterion_step(num: int, seed: int, scale: str):
    runner = next(r for n, _, r, _ in acceptance.CRITERIA if n == num)
    seed = 0 if num in PINNED else seed
    if scale == "tiny" and num in TINY:
        name, params = TINY[num]

        def runner(s, name=name, params=params):
            return experiments.run_experiment(name, params, s).checks

    def run():
        return [(c.name, c.passed, c.detail) for c in runner(seed)]

    return f"acceptance.c{num}", run


def steps(workload: str, seed: int, scale: str) -> list:
    """(span name, callable) pairs; each callable returns its operations."""
    depth, samples = SIZES[scale]

    def crit(*nums):
        return [criterion_step(n, seed, scale) for n in nums
                if scale == "full" or n not in TINY_LEFT_OUT]

    if workload == "norms":
        return crit(5, 6)
    if workload == "construct":
        return [
            ("bench.construct_path", lambda: construct_path(seed, depth)),
            ("bench.spectrum_path", lambda: spectrum_path(seed, samples)),
            *crit(2, 3, 4, 7, 8, 9),
        ]
    if workload == "capacity":
        return crit(1, 10, 11, 12)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, seed: int, scale: str, tracer=None, probe=None) -> dict:
    """Run every step, timing each; an exception is one failed operation.
    Times leave out the probe's own time."""

    def clock():
        return time.perf_counter() - (probe.spent if probe else 0.0)

    ops, times = [], {}
    start = clock()
    for name, fn in steps(workload, seed, scale):
        t = clock()
        try:
            results = fn() if tracer is None else tracer.span(name, fn)
        except Exception as exc:  # a crash is a failed operation, not an abort
            results = [("exception", False, f"{type(exc).__name__}: {exc}")]
        times[name] = clock() - t
        ops += [(name, *r) for r in results]
    wall = clock() - start
    failures = [f"{step}/{op}: {detail}" for step, op, ok, detail in ops if not ok]
    return {
        "wall_raw_s": wall,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "steps": times,
    }


def probed_pass(workload: str, seed: int, scale: str) -> dict:
    with SpeedProbe() as probe:
        result = run_pass(workload, seed, scale, probe=probe)
    result["wall_s"] = result["wall_raw_s"] * probe.factor()
    result["probes"] = len(probe.samples)
    return result


def traced_pass(workload: str, seed: int, scale: str) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(workload, seed, scale, tracer)
    finally:
        tracer.restore()
    totals = tracer.totals()
    step_self = sum(rec["self_s"] for name, rec in totals.items()
                    if name.startswith(("acceptance.", "bench.")))
    result["layers"] = totals
    result["glue_self_s"] = result["wall_raw_s"] - tracer.root[1] + step_self
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload}-seed{seed}.json"
    dump.write_text(json.dumps(tracer.dump()))
    return result


def main(argv=None) -> None:
    ready = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", choices=tuple(SIZES), default="full")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    setup = ready - args.t0
    speed = SpeedProbe(reference_kernel() for _ in range(SETUP_PROBES))
    result = {"setup_raw_s": setup, "setup_s": setup * speed.factor(), "host": host_facts()}
    if not args.setup_only:
        if args.workload is None:
            ap.error("--workload is required")
        run = traced_pass if args.trace else probed_pass
        result.update(run(args.workload, args.seed, args.scale))
        result["limits"] = {f"acceptance.c{n}": lim for n, _, _, lim in acceptance.CRITERIA if lim}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
