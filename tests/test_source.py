"""Checks on the package source itself."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fflab
from fflab import acceptance, experiments
from fflab.measures import CubeMeasure

PACKAGE = Path(fflab.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_package_has_no_assert_statements():
    # invariants raise real exceptions: ``python -O`` strips assert statements
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_keeps_no_process_wide_cache():
    # a memo lives as long as the call or the run that owns it: a cache kept
    # across runs would serve a later run the results of an earlier one,
    # and a defect injected between them would go unseen
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                names = [node.attr]
            else:
                continue
            found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for name in names if name in ("cache", "lru_cache")]
    assert found == []


def test_every_exported_name_resolves():
    modules = [
        ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts).removesuffix(".__init__")
        for path in sorted(PACKAGE.rglob("*.py"))
    ]
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_benchmark_traced_names_resolve():
    # the benchmark's layer tracer wraps these by name; a deleted one would
    # only show when a traced pass dies in Tracer.install
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"fflab.{layer}"), name, None))
    ]
    missing += [f"CubeMeasure.{name}" for name in tracer.MEASURE_METHODS if name not in vars(CubeMeasure)]
    if not callable(getattr(acceptance, "capacity_dp_exactness", None)):
        missing.append("acceptance.capacity_dp_exactness")
    assert missing == []


def test_runners_take_the_seed_then_keyword_parameters():
    # check_params reads each key's kind from its default, so a default of
    # any other type would be schema-checked as a number; a list's item kind
    # from its first item, so no list default is empty; and a count of
    # sequences, instances or trials unmarked as a Size would escape the
    # size rule (1 to 100 times its default)
    for name, runner in experiments.EXPERIMENTS.items():
        seed, *params = inspect.signature(runner, eval_str=True).parameters.values()
        assert seed.name == "seed" and seed.kind is seed.POSITIONAL_OR_KEYWORD, name
        for p in params:
            assert p.kind is p.KEYWORD_ONLY, (name, p.name)
            assert p.default is None or type(p.default) in (tuple, str, int, float), (name, p.name)
            assert p.default != (), (name, p.name)
            if type(p.default) is int and (p.name.startswith("n_") or p.name == "trials"):
                assert p.annotation is experiments.Size, (name, p.name)
            if p.annotation is experiments.Size:
                assert type(p.default) is int and p.default >= 1, (name, p.name)
            if p.annotation == experiments.Sizes:
                assert all(type(item) is int and item >= 1 for item in p.default), (name, p.name)


def test_every_check_is_a_value_against_a_bound():
    # CheckResult(name, value, bound) derives its verdict and detail, so no
    # call site may pass a flag or a hand-formatted string
    calls = [
        (path.name, node)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CheckResult"
    ]
    assert len(calls) > 20

    def flag_or_string(arg):
        return (
            isinstance(arg, (ast.JoinedStr, ast.Compare, ast.BoolOp))
            or isinstance(arg, ast.UnaryOp) and isinstance(arg.op, ast.Not)
            or isinstance(arg, ast.Constant) and isinstance(arg.value, (str, bool))
        )

    bad = [
        f"{name}:{node.lineno}"
        for name, node in calls
        if len(node.args) != 3 or node.keywords or any(map(flag_or_string, node.args[1:]))
    ]
    assert bad == []
    assert [f.name for f in dataclasses.fields(experiments.CheckResult)] == ["name", "value", "bound"]


def test_cli_maps_errors_to_exit_codes_in_one_place():
    # the group's invoke is the one try: a command that caught and exited
    # on its own would fork the exit-code policy
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    tries = [node for node in ast.walk(tree) if isinstance(node, ast.Try)]
    assert len(tries) == 1
    (lab,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Lab"]
    (invoke,) = [node for node in lab.body if isinstance(node, ast.FunctionDef) and node.name == "invoke"]
    assert tries[0] in invoke.body


_BLAS_PROBE = """
import ctypes, os, pathlib
import fflab, numpy
libs = sorted(pathlib.Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*"))
get = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_", None) if libs else None
print(os.environ.get("OPENBLAS_NUM_THREADS"), get() if get else "unknown")
"""


@pytest.mark.parametrize("value, expected", [(None, "1"), ("2", "2")], ids=["unset", "set"])
def test_import_defaults_openblas_to_one_thread(value, expected):
    # OpenBLAS reads the variable once, when numpy loads it; a caller's
    # value stands, and OpenBLAS caps the count at the usable cores
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    out = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert out[0] == expected
    assert out[1] in (str(min(int(expected), cores)), "unknown")


def test_importing_the_corpora_loads_no_random_generator():
    # fflab.corpora holds definitions only: an annotation evaluated at import
    # would load numpy.random, about 5 MB, into every process that imports it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, fflab.experiments; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["False"]
