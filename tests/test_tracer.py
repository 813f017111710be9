"""The benchmark's span tracer still finds every name it wraps.

bench/tracer.py patches ``cli._task_<name>``, ``bodies.sample_many``
and the polar quadrature functions by name, and ``cli.run`` must call
the patched tasks; a rename in the package would silently drop their
spans, so one traced experiment is run here as the benchmark runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TASKS = ["identities", "mixedvol", "af", "symmetrize", "polya_szego",
         "compare", "sobolev"]


def test_traced_experiment_has_every_layer(tmp_path):
    cfg = {
        "norm": {"family": "euclidean", "dim": 2},
        "field": {"preset": "quadratic_ellipsoid",
                  "params": {"axes": [2.0, 1.0]}},
        "orders": [1],
        "exponents": [1.5],
        "grids": {"levels": 40, "rays": 64, "volume_panels": 64},
        "tasks": TASKS,
        "output": {"directory": str(tmp_path / "out"),
                   "formats": ["json", "csv"]},
    }
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "experiment.py"),
         json.dumps(cfg), "trace", str(spans_file)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    layers = {span[2] for span in json.loads(spans_file.read_text())["spans"]}
    want = {f"cli.task.{t}" for t in TASKS} | {
        "bodies.sample_many", "field_ops.polar_quadrature"}
    assert want <= layers, sorted(want - layers)
    assert (tmp_path / "out" / "report.json").exists()
