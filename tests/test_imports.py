"""Every module of the package and of the tests uses each name it imports, and the package root
exports the run API.

The package's __init__.py is left out of the first check: its imports are the package's re-exports.
"""

import ast
import inspect
from pathlib import Path

import pytest

import quadtrack

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "quadtrack"
MODULES = (sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def unused_imports(source: str):
    """Names bound by an import statement and never read elsewhere in source."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        (1, "math"), (2, "path")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []


ROOT_NAMES = {
    # configuration
    "Scenario", "QuadrotorParams", "ChannelGains", "NoDisturbance", "Sinusoid", "Step", "Ramp",
    "GaussianNoise", "UniformNoise", "BandLimitedNoise", "CHANNELS",
    # loading and hashing
    "load_scenario", "scenario_from_dict", "scenario_to_dict", "scenario_digest",
    # running and outputs
    "run_scenario", "COLUMNS", "SimLog", "Metrics", "compute_rmse", "write_trace", "read_trace",
    "write_summary",
    # errors
    "SimulationError", "ScenarioError", "NonFiniteError", "AngleGuardError",
    "DenominatorTooSmallError",
}


def test_package_root_exports_the_run_api_only():
    # The law's leaves, the integrator and the airframe model are imported from their modules.
    exported = {name for name, value in vars(quadtrack).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == ROOT_NAMES
