"""The package defines only what the program calls.

Every top-level function and class of `src/scenesynth`, and every method,
must be named somewhere in the program: `src/`, `scripts/` or
`perfbench/`. A name counts where the syntax tree has it as a `Name`, an
`Attribute`, an imported name, or a string constant (perfbench looks its
traced functions up by name). Docstrings do not count, and neither does
the package `__init__.py`, which only re-exports. Code that only the
tests call belongs in the tests.

Every config key, too, must be set by a workload of the program, a
config that `scripts/` or `perfbench/` writes: a key that only the tests
set is an option with one value in use, which belongs in the code as a
constant.
"""

import ast
import importlib
import re
import runpy
from dataclasses import fields
from pathlib import Path

from scenesynth.config import GenerationConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "scenesynth"

# the paper's losses and metric, which README promises to a downstream trainer
PROMISED = {"map_recon_loss", "traj_recon_loss", "forecast_metrics"}


def _defined(tree: ast.Module) -> set[str]:
    """Top-level functions and classes, and the methods of the classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of `tree`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _used(tree: ast.Module) -> set[str]:
    skip = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            names.add(node.value)
    return names


def test_every_package_definition_is_named_by_the_program():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined |= _defined(ast.parse(path.read_text(encoding="utf-8")))
    used = set()
    for directory in ("src", "scripts", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            if path != PACKAGE / "__init__.py":
                used |= _used(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(defined - used - PROMISED) == []


def test_every_config_key_is_set_by_a_workload():
    # config text `key = ` at the start of a line of a string constant (or
    # of an f-string's constant part)
    texts = [
        node.value
        for directory in ("scripts", "perfbench")
        for path in (ROOT / directory).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    keys = [f.name for f in fields(GenerationConfig) if f.init]
    unset = [key for key in keys if not any(re.search(rf"(?m)^{key} = ", t) for t in texts)]
    assert keys and unset == []


def test_every_perfbench_traced_site_is_a_function_of_its_module():
    # the benchmark wraps each site by name; a rename or a move would
    # otherwise show only when the traced benchmark runs
    sites = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))["SITES"]
    missing = [
        f"{module}.{attr}" for module, attr, *_ in sites
        if not callable(getattr(importlib.import_module(f"scenesynth.{module}"), attr, None))
    ]
    assert sites and missing == []
