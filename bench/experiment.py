"""One benchmark operation in a fresh interpreter, as `wulffsym run` has it.

    python3 bench/experiment.py CONFIG_JSON {setup,run,trace} [TRACE_FILE]

`setup` imports wulffsym and validates the config, which builds the norm
and the field; `run` then executes `wulffsym.cli.run` on it, which writes
the report; `trace` does the same under the span tracer and writes the
spans to TRACE_FILE. Prints one JSON line: the CLOCK_MONOTONIC time at
which set-up ended (the caller knows when it started the process), and
for `run` and `trace` the wall and CPU seconds of `cli.run`, whether the
report passed, and the peak resident memory of the process.
"""

import json
import resource
import sys
import time


def main(argv):
    raw, mode = json.loads(argv[1]), argv[2]
    from wulffsym.cli import ExperimentConfig, run

    cfg = ExperimentConfig.from_dict(raw)
    out = {"ready": time.monotonic()}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        report = run(cfg)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.write(argv[3])
        out.update(run_s=wall1 - wall0, cpu_s=cpu1 - cpu0,
                   passed=bool(report["passed"]))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
