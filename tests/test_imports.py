"""The package's import direction, read from the syntax trees of
`src/scenesynth/`: scene generation (`synthesis`) imports the config
syntax (`config`) and the manifest, which imports the config syntax, so
neither of those may reach `synthesis`, and `config` may not reach the
manifest. Each would make an import cycle. No config key sets a warp, so
`config` does not reach the warps (`augment`) either. `analysis` works on
arrays alone, so it reaches neither scene generation nor the command
line."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scenesynth"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imports(module: str) -> set[str]:
    """The package modules that the source of `module` imports, by any
    form of import statement, relative or absolute."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("scenesynth.")
            )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("scenesynth"):
                continue
            parts = (node.module or "").split(".")
            inner = parts[1:] if node.level == 0 else parts
            if inner and inner[0]:
                found.add(inner[0])
            else:  # `from . import maps`, `from scenesynth import maps`
                found.update(alias.name for alias in node.names)
    return found & MODULES


def _reaches(module: str) -> set[str]:
    """Every package module that importing `module` imports."""
    seen, todo = set(), [module]
    while todo:
        for name in _imports(todo.pop()) - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_the_import_reader_sees_each_form_of_import():
    assert {"config", "manifest", "maps", "refine"} <= _imports("synthesis")
    assert {"analysis", "pretrain", "config", "synthesis"} <= _imports("cli")


@pytest.mark.parametrize(
    "module, below",
    [("config", {"synthesis", "manifest"}), ("manifest", {"synthesis"})],
)
def test_config_and_manifest_do_not_import_scene_generation(module, below):
    assert (PACKAGE / f"{module}.py").exists()
    assert _reaches(module) & below == set()


def test_config_does_not_import_the_warps():
    assert (PACKAGE / "augment.py").exists()
    assert "augment" not in _reaches("config")


def test_analysis_imports_neither_scene_generation_nor_the_command_line():
    assert (PACKAGE / "analysis.py").exists()
    assert _reaches("analysis") & {"synthesis", "cli"} == set()
