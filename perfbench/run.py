#!/usr/bin/env python3
"""Repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload serve_float --seed 1 --seconds 20 --trace 0

Builds the perfbench binary from the checkout's sources (into a directory
of the checkout's own under $CARGO_TARGET_DIR, default .bench_build/), runs the workload in its own
process with the parameters in perfbench/spec.json, checks that it emitted
exactly the metrics BENCHMARK.json lists for the mode (end_to_end with
--trace 0, per_layer with --trace 1), and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 ok, 1 outputs incorrect, 2 build or run error, 3 run invalid
(the load generator fell behind its schedule by more than the bound in
spec.json, or the host's CPU steal passed its bound in more cycles than the
run could rerun; no metrics are printed).
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    """A build directory of this checkout's own under $CARGO_TARGET_DIR: a
    CMake cache names the source tree it was configured from, so checkouts
    sharing one target directory must not share a build."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:12]
    return os.path.join(target, "perfbench-" + key)


def build():
    """Configures (once) and builds perfbench; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serving", "engine.hpp")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return out


def source_revision():
    """The git commit when the checkout is a clean repository; with local
    changes, the commit plus a digest of the sources; else the digest."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=False)
        if head.returncode == 0 and status.returncode == 0:
            if not status.stdout.strip():
                return head.stdout.strip()
            return head.stdout.strip() + "+dirty:" + sources_digest()
    return sources_digest()


def sources_digest():
    """A digest of the library and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def workload_command(binary, spec, workload, seed, seconds, trace, work_dir,
                     setups=None):
    w = spec["workloads"][workload]
    cmd = [binary, "--workload", workload, "--kind", w["kind"],
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work_dir,
           "--setups", str(setups or spec["setups"]),
           "--late-bound-ms", str(spec["late_bound_ms"]),
           "--steal-bound", str(spec["steal_bound"]),
           "--commit", source_revision()]
    if w["kind"] == "serve":
        cmd += ["--model", w["model"], "--sessions", str(w["sessions"]),
                "--consumers", str(w["consumers_per_tag"]),
                "--rate", str(w["open_loop_pushes_per_s"])]
    return cmd


def run_workload(spec, workload, seed, seconds, trace, setups=None):
    """Builds, runs one workload and returns (exit code, parsed result)."""
    out = build()
    binary = os.path.join(out, "perfbench")
    work_dir = os.path.join(out, "runs", "%s-%d-%d-%d" %
                            (workload, seed, trace, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = workload_command(binary, spec, workload, seed, seconds, trace,
                           work_dir, setups)
    if trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError("%s did not finish within %d s" %
                         (workload, RUN_TIMEOUT_S)) from e
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if result is None:
        raise BenchError("%s exited %d without a result" %
                         (workload, proc.returncode))
    return proc.returncode, result


def check_metrics(bench, result, trace):
    """Raises unless the run emitted exactly the mode's metrics, with the
    units BENCHMARK.json gives and finite values (end-to-end: non-zero)."""
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    if set(got) != set(want):
        raise BenchError("metric set differs from BENCHMARK.json: missing %s, "
                         "extra %s" % (sorted(set(want) - set(got)),
                                       sorted(set(got) - set(want))))
    for name, unit in want.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            raise BenchError("%s: unit %r, BENCHMARK.json says %r" %
                             (name, got[name]["unit"], unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError("%s: value %r is not a finite number" %
                             (name, value))
        if not trace and value == 0:
            raise BenchError("%s: end-to-end metric read 0" % name)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        spec = load_json(os.path.join(HERE, "spec.json"))
        if args.workload not in spec["workloads"]:
            raise BenchError("unknown workload %r (have %s)" %
                             (args.workload, ", ".join(spec["workloads"])))
        code, result = run_workload(spec, args.workload, args.seed,
                                    args.seconds, args.trace)
        if code == 3:
            sys.stderr.write("run invalid: %s\n" % json.dumps(result))
            return 3
        if code not in (0, 1):
            raise BenchError("%s exited %d" % (args.workload, code))
        correct = code == 0 and result["correct"]
        if correct:
            check_metrics(bench, result, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2

    for failure in result["failures"]:
        print("FAILED: " + failure)
    for name, m in sorted(result["metrics"].items()):
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"] if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
