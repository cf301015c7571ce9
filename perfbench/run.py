#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--results FILE]

Run from the repository root. The first run builds the library and the
harness (perfbench/CMakeLists.txt) into .bench_build/perfbench; later runs
only re-check the build. The harness output is echoed, followed by one line
per metric and, as the last line, the result as JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. --results FILE appends the full record
(metrics, checks, host facts, source fingerprint) to a JSON-lines file, the
input of perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
TRACE_DIR = os.path.join(".bench_build", "traces")
WORKLOADS = ("protect-s1488", "resolve-warm", "prove-s1488", "serve-mix")
# Reported by the harness but not bounded in BENCHMARK.json (see README).
UNBOUNDED = (("job_s.p50", "s"), ("job_s.p90", "s"), ("jobs_per_s", "1/s"),
             ("peak_rss_mb", "MB"))
# The harness must finish within this; the whole run has 180 s.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build_jobs():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return str(max(1, min(4, cpus)))


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(ROOT, BUILD_DIR)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", build_jobs()]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def source_fingerprint():
    """git revision when available, and a digest of src/ and perfbench/."""
    rev = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            rev = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return rev, h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="append the full record to this file")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    bench = load_benchmark()
    binary = build()
    # CED_* variables would override the library's execution policy. glibc
    # adapts its mmap threshold to the allocation history, which made peak
    # RSS flip between two levels from run to run; a fixed threshold keeps
    # it steady (job times are unaffected).
    env = {k: v for k, v in os.environ.items() if not k.startswith("CED_")}
    env["MALLOC_MMAP_THRESHOLD_"] = str(4 << 20)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    if args.trace:
        os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            TRACE_DIR, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited with code %d" % proc.returncode)
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail("harness did not report metric " + m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        print("  %-28s %.6g %s" % (m["name"], got["value"], m["unit"]))
    extra = record.get("extra", {})
    print("  failed_frac %.6g (%d of %d jobs)" % (
        extra.get("failed_frac", 0.0), record["failed"], record["attempted"]))
    # Wall-clock figures: printed and recorded, not bounded (see README).
    for name, unit in UNBOUNDED:
        if name in extra:
            print("  %-28s %.6g %s (unbounded, %d jobs)" % (
                name, extra[name], unit, extra["jobs"]))
    for k, v in sorted(record.get("facts", {}).items()):
        print("  fact %s = %s" % (k, v))
    host = record.get("host", {})
    print("  host " + ", ".join("%s=%s" % kv for kv in sorted(host.items())))
    print("  verdict: %s" % ("correct" if record["correct"] else "INCORRECT"))

    result = {"correct": bool(record["correct"]),
              "attempted": int(record["attempted"]),
              "failed": int(record["failed"]),
              "metrics": metrics}
    if args.results:
        rev, digest = source_fingerprint()
        full = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "git_rev": rev, "source_digest": digest,
                "wall_s": time.monotonic() - started,
                "result": result, "record": record}
        with open(args.results, "a") as f:
            f.write(json.dumps(full, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
