"""The package names the benchmark harness under benchmarks/ looks up.

The harness is kept unchanged between commits, so it must keep finding what
it calls: the names it imports from the package, the attributes it reads off
the package's modules, and the call sites its tracer wraps by name.  The
harness files are only read and imported here, never changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _resolve(module: str, name: str):
    """``module``'s attribute ``name``, or its submodule of that name."""
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return getattr(owner, name)
    return importlib.import_module(f"{module}.{name}")


def _package_names(path: Path):
    """``(module, name)`` of every package name a harness file uses: each
    ``from sattrack[.module] import name``, and each ``alias.attribute`` of a
    package module it imported as ``alias``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sattrack":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sattrack":
            for alias in node.names:
                yield node.module, alias.name
                if node.module == "sattrack":
                    modules[alias.asname or alias.name] = f"sattrack.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                yield modules[node.value.id], node.attr


HARNESS = sorted(BENCH.glob("*.py"))


@pytest.mark.parametrize("path", HARNESS, ids=lambda path: path.name)
def test_every_package_name_the_harness_uses_resolves(path):
    names = sorted(set(_package_names(path)))
    missing = []
    for module, name in names:
        try:
            _resolve(module, name)
        except (AttributeError, ImportError):
            missing.append(f"{module}.{name}")
    assert missing == []


def test_the_workloads_names_are_found():
    names = {f"{m}.{n}" for m, n in _package_names(BENCH / "workloads.py")}
    assert {
        "sattrack.cli.main",
        "sattrack.scenario.generate_scenario",
        "sattrack.scenario.run_tracking",
        "sattrack.motion.TrackerState",
        "sattrack.motion.refine_step",
    } <= names


def test_the_tracer_wraps_every_site_and_restores_it():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(owner, attr) for owner, attr, _, _ in tracing._sites()]
    before = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [getattr(owner, attr) for owner, attr in sites]
    finally:
        tracer.uninstall()
    assert all(now is not was for now, was in zip(wrapped, before))
    assert all(getattr(owner, attr) is was for (owner, attr), was in zip(sites, before))
