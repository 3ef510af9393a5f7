"""Package exports: each public name is declared once, in its module."""

import ast
from pathlib import Path

import spica
from spica import arrays, experiments, metrics, ps_cancel, ttd, waveform

MODULES = (arrays, experiments, metrics, ps_cancel, ttd, waveform)


def test_all_is_version_plus_every_module_list():
    union = {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert set(spica.__all__) == union
    assert len(spica.__all__) == len(union)  # no name listed twice
    assert spica.__version__ == "0.1.0"
    for module in MODULES:
        for name in module.__all__:
            assert getattr(spica, name) is getattr(module, name), name


def test_init_names_no_public_symbol_by_hand():
    tree = ast.parse(Path(spica.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            assert [alias.name for alias in node.names] == ["*"], node.module
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__":
            literals = [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)]
            assert literals == ["__version__"]
