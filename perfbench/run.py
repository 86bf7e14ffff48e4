#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload oneshot_exact --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and trains the
model fixture once per build; every later run only re-checks the build.
Build output goes to standard error; standard output carries nothing but
the benchmark's result line. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot_exact", "oneshot_prefilter", "daemon_warm")
RUN_TIMEOUT_S = 175
DEFAULT_SEED = 1
HELD_OUT_SEED = 20200629  # never tune against it; recheck claims on it


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def model_fixture(binary, build_dir):
    """Trains the model once per build of the binary; returns its path."""
    model = os.path.join(build_dir, "fixtures", "model.bin")
    if (os.path.isfile(model)
            and os.path.getmtime(model) >= os.path.getmtime(binary)):
        return model
    os.makedirs(os.path.dirname(model), exist_ok=True)
    partial = model + ".partial"
    log("training the model fixture (once per build)")
    if subprocess.run([binary, "--train-model", partial],
                      stdout=sys.stderr).returncode != 0:
        return None
    os.replace(partial, model)
    return model


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus scale (1.0 = paper sizes; smoke test "
                             "uses 0.05)")
    parser.add_argument("--tamper-reference", action="store_true",
                        help="corrupt one reference byte; the run must fail")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no PATCHECKO sources at %s/src; nothing to benchmark" % ROOT)
        return 2
    if shutil.which("cmake") is None:
        log("cmake not found")
        return 2

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(base, "perfbench")
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1
    model = model_fixture(binary, build_dir)
    if model is None:
        log("model fixture failed")
        return 1

    # Relative paths keep the daemon's socket path short.
    work_dir = os.path.relpath(os.path.join(
        base, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid())))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", repr(args.scale), "--model", model,
               "--work-dir", work_dir]
    if args.trace:
        dump_dir = os.path.join(base, "spans")
        os.makedirs(dump_dir, exist_ok=True)
        dump = os.path.join(dump_dir, "%s-seed%d.jsonl" % (args.workload,
                                                           args.seed))
        command += ["--span-dump", dump]
        log("span dump: " + dump)
    if args.tamper_reference:
        command.append("--tamper-reference")

    process = subprocess.Popen(command)
    try:
        status = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        status = 1
    shutil.rmtree(work_dir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
