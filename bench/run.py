"""fflab benchmark driver.

    python3 bench/run.py --workload {norms,construct,capacity} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up is measured first: several fresh
processes that only import fflab.  Then the workload runs in fresh
processes, one pass each (``bench/workloads.py``), until another pass would
end after ``--seconds``; there is always at least one.  With ``--trace 1``
one more pass runs with every layer function timed (``bench/tracer.py``)
and the per-layer metrics come from it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the host facts.  An operation is one check of a criterion or of the
benchmark's own output checks; an exception or a pass that dies counts as a
failed one.  Exit status 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "workloads.py"
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # a run must end within 180 s


class Abort(RuntimeError):
    """The benchmark cannot produce a result."""


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def lab_threads(nproc: int):
    raw = os.environ.get("LAB_THREADS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise Abort(f"LAB_THREADS={raw!r} is not an integer") from None
    if value > nproc:
        raise Abort(f"LAB_THREADS={value} exceeds the {nproc} available cores")
    return value


def child_env() -> dict:
    """Workload processes run with one fflab worker: LAB_THREADS unset."""
    env = dict(os.environ)
    env.pop("LAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(args: list, deadline: float) -> dict:
    """Start one workload process and return its result, or raise Abort."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(CHILD), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise Abort(f"{' '.join(args)}: no result before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Abort(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["duration_s"] = time.monotonic() - t0
    return result


def layer_metrics(specs: list, traced: dict, untraced: list) -> dict:
    """Resolve each declared per-layer metric from the traced pass."""
    layers = traced["layers"]
    base_wall = statistics.median(p["wall_raw_s"] for p in untraced)
    out = {}
    for spec in specs:
        name = spec["name"]
        prefix, stat = name.rsplit(".", 1)
        if name == "trace.overhead_s":
            value = traced["wall_raw_s"] - base_wall
        elif name == "trace.wall_s":
            value = traced["wall_raw_s"]
        elif name == "bench.glue.self_s":
            value = traced["glue_self_s"]
        elif stat == "accept_ratio":  # accepted samples per acceptance draw
            rec = layers.get(prefix, {})
            value = rec["calls"] / rec["draws"] if rec.get("draws") else 0.0
        elif stat == "gate_margin":  # from the untraced passes, as the gate sees them
            limit = traced["limits"][prefix]
            spent = statistics.median(p["steps"].get(prefix, 0.0) for p in untraced)
            value = (limit - spent) / limit
        else:
            value = layers.get(prefix, {}).get(stat, 0)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long sizes for the harness self-test")
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "fflab" / "__init__.py").is_file():
            raise Abort(f"no fflab sources under {ROOT / 'src'}")
        nproc = os.cpu_count() or 1
        host = {"nproc": nproc, "cpu_model": cpu_model(), "LAB_THREADS": lab_threads(nproc)}
        deadline = time.monotonic() + DEADLINE_S

        setups = [run_child(["--setup-only"], deadline) for _ in range(SETUP_REPEATS)]
        host.update(setups[0]["host"])
        work = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
        passes, failed_passes = [], 0
        start = time.monotonic()
        # A traced pass costs up to 1.6 untraced ones; leave it room.
        reserve = 2.6 if args.trace else 1.0
        while True:
            try:
                passes.append(run_child(work, deadline))
            except Abort as exc:
                print(f"pass failed: {exc}", file=sys.stderr)
                failed_passes = 1
                break
            typical = statistics.median(p["duration_s"] for p in passes)
            now = time.monotonic()
            if now - start + typical > args.seconds or now + reserve * typical > deadline:
                break
        if not passes:
            raise Abort("no pass of the workload completed")
        traced = run_child([*work, "--trace"], deadline) if args.trace else None
    except Abort as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    ran = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in ran) + failed_passes
    failed = sum(p["failed"] for p in ran) + failed_passes
    for p in ran:
        for failure in p["failures"]:
            print(f"FAIL {failure}", file=sys.stderr)
    if traced:
        metrics = layer_metrics(spec["per_layer"], traced, passes)
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in setups + passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    raw = {"wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
           "setup_raw_s": statistics.median(p["setup_raw_s"] for p in setups + passes)}
    print(json.dumps({"host": host, "passes": len(passes), "measured": raw}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
