#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny corpus scale (0.05).

    python3 perfbench/smoke_test.py

Run from the repository root (about a minute after the first build). It
checks that:
  * every workload prints every metric BENCHMARK.json names, with its unit,
    untraced (end-to-end) and traced (per-layer);
  * traced spans nest: every parent id names a span, children lie inside
    their parent's interval, and self time (recomputed here) is >= 0 and
    equals the dump's;
  * the exact work counters repeat exactly across two runs with one seed;
  * the correctness gate fires on a tampered reference;
  * a directory holding only BENCHMARK.json and perfbench/ exits non-zero
    without printing a result.
Exits 1 on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
SEED = 7
EXACT_COUNTERS = ("dl.pairs_scored", "vm.runs", "vm.steps",
                  "core.stage1_candidates", "engine.cache_hits",
                  "engine.cache_misses", "engine.cache_stores")


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--scale", SCALE, *extra]
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return done.returncode, result, done.stderr


def check_metrics(workload, result, declared):
    for metric in declared:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail("%s: metric %s missing" % (workload, metric["name"]))
        if got["unit"] != metric["unit"]:
            fail("%s: metric %s has unit %s, declared %s"
                 % (workload, metric["name"], got["unit"], metric["unit"]))
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        fail("%s: undeclared metrics %s" % (workload, sorted(extra)))


def self_ns(span, children):
    """Duration minus the union of child intervals clipped to the span."""
    covered, reach = 0, span["start_ns"]
    for lo, hi in sorted((max(c["start_ns"], span["start_ns"]),
                          min(c["end_ns"], span["end_ns"])) for c in children):
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
        reach = max(reach, hi)
    return span["end_ns"] - span["start_ns"] - covered


def check_spans(workload, path):
    spans = [json.loads(line) for line in open(path)]
    if not spans:
        fail("%s: empty span dump" % workload)
    by_id = {span["id"]: span for span in spans}
    children = {}
    for span in spans:
        parent = span["parent"]
        if parent == 0:
            continue
        if parent not in by_id:
            fail("%s: span %d has unknown parent %d" % (workload, span["id"], parent))
        outer = by_id[parent]
        if span["start_ns"] < outer["start_ns"] or span["end_ns"] > outer["end_ns"]:
            fail("%s: span %d escapes its parent %d" % (workload, span["id"], parent))
        children.setdefault(parent, []).append(span)
    for span in spans:
        own = self_ns(span, children.get(span["id"], []))
        if own < 0 or own != span["self_ns"]:
            fail("%s: span %d self time %d (dump says %d)"
                 % (workload, span["id"], own, span["self_ns"]))
    return len(spans)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    for workload in (w["name"] for w in spec["workloads"]):
        status, result, err = run(workload, 0)
        if status != 0 or not result or not result["correct"]:
            fail("%s untraced run failed:\n%s" % (workload, err[-2000:]))
        check_metrics(workload, result, spec["end_to_end"])

        counters = []
        for attempt in range(2):
            status, result, err = run(workload, 1)
            if status != 0 or not result or not result["correct"]:
                fail("%s traced run failed:\n%s" % (workload, err[-2000:]))
            check_metrics(workload, result, spec["per_layer"])
            counters.append({k: result["metrics"][k]["value"]
                             for k in EXACT_COUNTERS})
        if counters[0] != counters[1]:
            fail("%s: exact counters differ between runs: %s vs %s"
                 % (workload, counters[0], counters[1]))
        dump = os.path.join(ROOT, base, "spans", "%s-seed%d.jsonl" % (workload, SEED))
        spans = check_spans(workload, dump)
        print("ok  %-18s metrics, %d spans, counters %s" % (workload, spans, counters[0]))

    for workload in ("oneshot_exact", "daemon_warm"):
        status, result, _ = run(workload, 0, "--tamper-reference")
        if status == 0 or (result is not None and result["correct"]):
            fail("%s: tampered reference went unnoticed" % workload)
    print("ok  correctness gate fires on a tampered reference")

    bare = os.path.join(ROOT, base, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    status, result, _ = run("oneshot_exact", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if status == 0 or result is not None:
        fail("a directory without sources must fail without a result")
    print("ok  bare benchmark directory exits %d without a result" % status)


if __name__ == "__main__":
    main()
