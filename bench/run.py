"""wulffsym benchmark: whole experiments through `wulffsym.cli`, one
fresh interpreter each, checked against independent reference values.

    python3 bench/run.py --workload {ellipse2d,regp2d,ball3d} --seed N
                         --seconds S --trace {0,1}

Run from the repository root. A run repeats whole operations (one
experiment each) while the next one is predicted to end within S
seconds, then starts the set-up alone SETUP_REPEATS more times. With
--trace 0 the last stdout line reports the medians of the end-to-end
metrics; with --trace 1 each round is an untraced and a traced
experiment, and the line reports the per-layer metrics of the traced
ones and the tracing overhead. The seed is the `seed` of every
experiment's config. Results go to .bench_out/results, spans to
.bench_out/traces.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
DEADLINE_S = 170.0


class OperationError(RuntimeError):
    pass


def settings():
    """Thread settings every child inherits, recorded with each result."""
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "WULFFSYM_THREADS": str(min(2, nproc)),
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def launch(cfg, mode, trace_file=None, timeout=DEADLINE_S):
    argv = [sys.executable, str(HERE / "experiment.py"), json.dumps(cfg),
            mode] + ([str(trace_file)] if trace_file else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise OperationError(f"{mode} timed out after {timeout:.0f} s") \
            from exc
    if proc.returncode != 0:
        raise OperationError(f"{mode} exited {proc.returncode}: "
                             + proc.stderr.strip()[-2000:])
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - start
    return res


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wulffsym" / "__init__.py").is_file():
        print(f"bench: no wulffsym sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    layer_names = [n for n in units if n != "trace.overhead_ratio"]
    env = settings()
    os.environ.update({k: v for k, v in env.items() if k != "nproc"})
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    began = time.monotonic()
    ref = wl.reference()
    work = OUT / "work" / args.workload
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cfg = json.loads(json.dumps(wl.config))
    cfg["seed"] = args.seed
    cfg["output"]["directory"] = str(work)
    modes = ("run", "trace") if args.trace else ("run",)

    attempted = failed = 0
    problems, runs, traced = [], [], []
    loop_start = time.monotonic()
    rounds = 0
    trace_file = traces / f"{args.workload}.json"
    while True:
        for mode in modes:
            attempted += 1
            shutil.rmtree(work, ignore_errors=True)
            left = DEADLINE_S - (time.monotonic() - began)
            try:
                res = launch(cfg, mode, trace_file if mode == "trace"
                             else None, timeout=max(left, 1.0))
                with open(work / "report.json") as fh:
                    report = json.load(fh)
            except (OperationError, OSError, ValueError) as exc:
                failed += 1
                print(f"bench: operation failed: {exc}", file=sys.stderr)
                continue
            try:
                bad = wl.check(report, work, ref)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                bad = [f"report incomplete: {exc!r}"]
            problems += bad
            print(f"bench: {mode} run_s={res['run_s']:.3f} "
                  f"cpu_s={res['cpu_s']:.3f} "
                  f"peak_rss_mb={res['peak_rss_mb']:.1f} "
                  f"setup_s={res['setup_s']:.3f} checks="
                  f"{'ok' if not bad else 'FAILED'}", flush=True)
            if mode == "trace":
                res.update(tracer.layer_metrics(trace_file, layer_names))
                traced.append(res)
            else:
                runs.append(res)
        rounds += 1
        now = time.monotonic()
        per_round = (now - loop_start) / rounds
        if (now - loop_start + per_round > args.seconds
                or now - began + 2 * per_round > DEADLINE_S):
            break
    shutil.rmtree(work, ignore_errors=True)

    setups = [r["setup_s"] for r in runs + traced]
    for _ in range(SETUP_REPEATS):
        left = DEADLINE_S - (time.monotonic() - began)
        try:
            setups.append(launch(cfg, "setup", timeout=max(left, 1.0))
                          ["setup_s"])
        except OperationError as exc:
            print(f"bench: set-up failed: {exc}", file=sys.stderr)
    for msg in problems:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    if not runs or (args.trace and not traced):
        print("bench: no operation completed", file=sys.stderr)
        return 1

    def median(key, rows):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        special = {"trace.overhead_ratio":
                   median("run_s", traced) / median("run_s", runs)}
        measured = traced
    else:
        special = {"setup_s": statistics.median(setups)}
        measured = runs
    metrics = {name: {"value": special[name] if name in special
                      else median(name, measured), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "settings": env,
                   "runs": runs, "traced": traced, "setups": setups,
                   "problems": problems, "result": result}, fh, indent=1)
    print(f"bench: {args.workload} seed={args.seed} settings={env}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
