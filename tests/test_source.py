"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import fflab
from fflab import acceptance
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
