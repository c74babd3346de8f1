"""The public API: every name in ``bhhpm.__all__`` imports, and the
benchmark in ``bench/`` imports only those names (``bench/README.md``
promises that it measures the package through them)."""

import ast
from pathlib import Path

import bhhpm

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_exported_name_imports():
    namespace: dict = {}
    for name in bhhpm.__all__:
        exec(f"from bhhpm import {name}", namespace)
        assert namespace[name] is getattr(bhhpm, name)


def test_bench_imports_only_exported_names():
    imported, private = set(), []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.module == "bhhpm":
                imported.update(alias.name for alias in node.names)
            elif node.module.startswith("bhhpm."):
                private.append(f"{path.name}: from {node.module} import ...")
    assert imported, "bench/ imports nothing from bhhpm"
    assert imported <= set(bhhpm.__all__), sorted(imported - set(bhhpm.__all__))
    assert not private, private
