#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs the helper unit tests (perfbench_selftest: arrival schedule, rerun rule
and percentile rule), then every workload of spec.json once per mode with one
set-up and --seconds 1, and checks that each run passes its correctness
gate and emits exactly the metrics BENCHMARK.json lists for the mode. Takes
a few minutes: every workload still sends its minimum of 1000 timed pushes.
"""
import os
import subprocess
import sys

import run


def main():
    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    spec = run.load_json(os.path.join(run.HERE, "spec.json"))
    out = run.build()
    failures = 0
    if subprocess.run([os.path.join(out, "perfbench_selftest")],
                      check=False).returncode != 0:
        failures += 1
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = "%s --trace %d" % (workload, trace)
            try:
                code, result = run.run_workload(spec, workload, 1, 1, trace,
                                                setups=1)
                if code != 0 or not result["correct"]:
                    raise run.BenchError("exit %d, failures %s" %
                                         (code, result["failures"]))
                run.check_metrics(bench, result, trace)
                print("ok   %s emits the %d listed metrics" %
                      (label, len(result["metrics"])))
            except run.BenchError as e:
                print("FAIL %s: %s" % (label, e))
                failures += 1
    print("%s: %d failure(s)" % ("FAILED" if failures else "PASSED", failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
