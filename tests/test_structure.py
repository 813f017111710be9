"""Structural rules of the package: the modules of wulffsym import each
other without a cycle, and the runtime imports nothing beyond the standard
library and numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "wulffsym"


def package_imports():
    """{module: the package modules its relative imports name}, imports
    inside functions included; a name that is no module file is one of
    the package's own (__init__)."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            names = ([node.module] if node.module
                     else [a.name for a in node.names])
            for name in names:
                name = name.partition(".")[0]
                deps.add(name if (PACKAGE / f"{name}.py").exists()
                         else "__init__")
        graph[path.stem] = deps
    return graph


def test_package_imports_form_no_cycle():
    graph = package_imports()
    assert {"__init__", "anisotropy", "field_ops", "bodies", "cli"} <= set(
        graph)
    assert "anisotropy" in graph["field_ops"]
    state = {}  # "open" while on the search path, then "done"

    def visit(module, path):
        state[module] = "open"
        for dep in sorted(graph[module]):
            assert state.get(dep) != "open", " -> ".join(path + [dep])
            if dep not in state:
                visit(dep, path + [dep])
        state[module] = "done"

    for module in graph:
        if module not in state:
            visit(module, [module])


# blocks every top-level module outside the standard library, numpy and
# wulffsym, then runs a small disc experiment and prints what it imported
NUMPY_ONLY = r"""
import importlib.abc
import json
import sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "wulffsym"}
blocked = []


class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in ALLOWED:
            blocked.append(name)
            raise ImportError(f"import of {name} blocked")
        return None


sys.meta_path.insert(0, Block())
from wulffsym.cli import ExperimentConfig, run

report = run(ExperimentConfig.from_dict({
    "norm": {"family": "euclidean", "dim": 2},
    "field": {"preset": "quadratic_ellipsoid"},
    "orders": [1], "exponents": [1.5],
    "grids": {"levels": 20, "rays": 32},
    "tasks": ["identities", "polya_szego"], "output": {}, "seed": 7}))
print(json.dumps({
    "blocked": blocked,
    "wulffsym": sorted(n for n in sys.modules if n.startswith("wulffsym")),
    "rows": {t: [r["case"] for r in d["rows"]]
             for t, d in report["tasks"].items()}}))
"""


def test_runtime_imports_only_numpy_and_the_standard_library():
    env = dict(os.environ, WULFFSYM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")]
                                 if p]))
    done = subprocess.run([sys.executable, "-c", NUMPY_ONLY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert "wulffsym.cli" in out["wulffsym"]
    assert set(out["rows"]) == {"identities", "polya_szego"}
    for task, cases in out["rows"].items():
        assert cases and not any(c.startswith("task error") for c in cases), (
            task, cases)
