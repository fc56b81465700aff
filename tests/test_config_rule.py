"""Every configuration dataclass of the package checks its fields by errors.require_fields.

A configuration dataclass is a frozen one with fields; its __post_init__ must call
require_fields, so a new one cannot skip the rule.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadtrack"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_frozen_dataclass(decorator) -> bool:
    return (isinstance(decorator, ast.Call) and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "dataclass"
            and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True for kw in decorator.keywords))


def unchecked_dataclasses(source: str):
    """Frozen dataclasses with fields in source whose __post_init__ calls no require_fields."""
    unchecked = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef)
                and any(map(_is_frozen_dataclass, node.decorator_list))
                and any(isinstance(stmt, ast.AnnAssign) for stmt in node.body)):
            continue
        calls = {call.func.id for stmt in node.body
                 if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"
                 for call in ast.walk(stmt)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
        if "require_fields" not in calls:
            unchecked.append(node.name)
    return unchecked


def test_detects_a_dataclass_that_skips_the_rule():
    source = """
@dataclass(frozen=True)
class Checked:
    a: float
    def __post_init__(self):
        require_fields(self)

@dataclass(frozen=True)
class NoPostInit:
    a: float

@dataclass(frozen=True)
class OtherCheck:
    a: float
    def __post_init__(self):
        check(self)

@dataclass(frozen=True)
class NoFields:
    pass

@dataclass
class Mutable:
    a: float
"""
    assert unchecked_dataclasses(source) == ["NoPostInit", "OtherCheck"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_config_dataclass_calls_the_rule(module):
    assert unchecked_dataclasses(module.read_text()) == []
