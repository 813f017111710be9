"""Steadiness of the end-to-end metrics across seeds.

    python3 bench/steady.py

Run from the repository root. Runs bench/run.py once per workload of
BENCHMARK.json and seed 1-10, one run at a time, each for the
run_seconds of BENCHMARK.json, and prints every run's figures. Then, for
every end-to-end metric, its median, first and third quartile
(statistics.quantiles, n=4), the spread (q3 - q1) / median, the bound
from BENCHMARK.json and whether the spread stays under a third of it,
plus the operations attempted and failed. The figures are written to
.bench_out/steady.json. If that file holds an earlier set, it is kept as
.bench_out/steady-previous.json, and each median is also compared with
the earlier one: a change either way by more than the bound is marked.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    out = ROOT / ".bench_out" / "steady.json"
    previous = json.loads(out.read_text()) if out.is_file() else None
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        attempted = failed = 0
        correct = True
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            correct = correct and res["correct"]
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload} seed={seed} attempted={res['attempted']} "
                  + " ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()),
                  flush=True)
        rows = {}
        before = previous.get(workload) if previous else None
        print(f"\n{workload}: {len(SEEDS)} runs, attempted={attempted} "
              f"failed={failed} correct={correct}")
        print(f"  {'metric':12s} {'unit':5s} {'median':>10s} {'q1':>10s} "
              f"{'q3':>10s} {'spread':>8s} {'bound':>6s}  <bound/3"
              + ("  vs previous" if before else ""))
        for name, (unit, bound) in bounds.items():
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound, "values": vals}
            line = (f"  {name:12s} {unit:5s} {med:10.4f} {q1:10.4f} "
                    f"{q3:10.4f} {spread:8.4f} {bound:6.3f}  "
                    f"{'yes' if spread < bound / 3 else 'NO ':3s}")
            if before:
                change = med / before["metrics"][name]["median"] - 1.0
                line += (f"  {change:+8.4f}"
                         f"{' OVER BOUND' if abs(change) > bound else ''}")
            print(line)
        summary[workload] = {"seeds": list(SEEDS), "attempted": attempted,
                             "failed": failed, "correct": correct,
                             "metrics": rows}
    out.parent.mkdir(parents=True, exist_ok=True)
    if previous:
        out.with_name("steady-previous.json").write_text(
            json.dumps(previous, indent=1))
    out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
