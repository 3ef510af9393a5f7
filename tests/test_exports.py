"""Package exports: each public name is declared once, in its module, every annotation
in the package resolves, and every name the benchmark's tracer wraps exists."""

import ast
import functools
import importlib.util
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import spica
from spica import arrays, cli, experiments, metrics, ps_cancel, ttd, waveform

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


def _defined(module):
    """Every function, class and method ``module`` defines, the functions an lru_cache wraps
    and the methods dataclass generates included."""
    for obj in vars(module).values():
        obj = inspect.unwrap(obj) if callable(obj) else obj
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if obj.__module__ != module.__name__:
            continue
        yield obj
        if inspect.isclass(obj):
            for attr in vars(obj).values():
                method = getattr(attr, "__func__", attr)  # classmethods and staticmethods
                if inspect.isfunction(method) and method.__module__ == module.__name__:
                    yield method


def test_every_annotation_resolves():
    # Under ``from __future__ import annotations`` an annotation is a string that no import
    # evaluates, so one naming a deleted or unimported type fails only when it is resolved.
    for module in (*MODULES, cli):
        objects = list(_defined(module))
        tree = ast.parse(Path(module.__file__).read_text())
        kinds = (ast.FunctionDef, ast.ClassDef)
        declared = {node.name for node in tree.body if isinstance(node, kinds)}
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            declared |= {f"{cls.name}.{node.name}" for node in cls.body if isinstance(node, kinds)}
        assert declared <= {obj.__qualname__ for obj in objects}, module.__name__
        for obj in objects:
            typing.get_type_hints(obj)


def test_import_loads_no_scipy():
    # scipy is a test-only dependency: importing spica must not pull it in
    src = str(Path(spica.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = "import spica, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_name_the_tracer_wraps_resolves():
    # bench/tracer.py replaces these attributes when it installs, so a renamed or deleted one
    # fails every traced benchmark run; tier-1 does not collect bench/, so check them here
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for owner, attr, _ in tracer.TARGETS:
        target = functools.reduce(getattr, owner.split("."), spica)
        assert callable(getattr(target, attr, None)), f"{owner}.{attr}"
