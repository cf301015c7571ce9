#!/usr/bin/env python3
"""Compares two benchmark result sets (parent and change).

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records perfbench/run.py --results appends. For every
workload and end-to-end metric it prints both sides' median and quartiles,
the share of paired runs (same seed) the change wins, and a verdict:

  improved    the change wins at least 9 of 10 pairs, the medians differ
              by more than the parent's own quartile spread, and the change
              fails no more jobs than the parent
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (or, when the parent's
              spread exceeds the bound, every change run is worse than every
              parent run)
  unresolved  the parent's spread exceeds the bound and neither side
              dominates
  unchanged   otherwise

The unbounded wall-clock and memory figures (job_s.p50, jobs_per_s,
peak_rss_mb) follow with quartiles and pair wins only. Then one row per
workload of per-layer deltas from the traced runs.

Results from hosts with different fingerprints (CPU count, affinity, CPU
model, SIMD level, compiler, flags, build type, threads) are refused, and so
are sanitizer or Debug builds.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNBOUNDED = (("job_s.p50", "lower"), ("jobs_per_s", "higher"),
             ("peak_rss_mb", "lower"))
FINGERPRINT = ("nproc", "affinity_cpus", "cpu_model", "simd", "compiler",
               "cxx_flags", "build_type", "threads")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fingerprint(rec):
    host = rec["record"].get("host", {})
    return tuple((k, host.get(k)) for k in FINGERPRINT)


def unfit_build(fp):
    d = dict(fp)
    flags = d.get("cxx_flags") or ""
    return d.get("build_type") == "Debug" or "-fsanitize" in flags


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def by_seed(recs):
    out = {}
    for r in recs:
        out.setdefault(r["seed"], []).append(r)
    return out


def verdict(parent, change, better, bound, allow_gain):
    """Returns (verdict, wins, pairs) for one metric on one workload.

    parent/change are records carrying the metric's value in "_v". A gain
    is not allowed when the change failed more jobs than the parent."""
    lower = better == "lower"
    pb = by_seed(parent)
    cb = by_seed(change)
    wins = pairs = 0
    for seed in sorted(set(pb) & set(cb)):
        for p, c in zip(pb[seed], cb[seed]):
            pv, cv = p["_v"], c["_v"]
            pairs += 1
            if (cv < pv) if lower else (cv > pv):
                wins += 1
    pv = [r["_v"] for r in parent]
    cv = [r["_v"] for r in change]
    p1, pm, p3 = quartiles(pv)
    _, cm, _ = quartiles(cv)
    spread = (p3 - p1) / pm if pm else 0.0
    worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    better_side = (cm < pm) if lower else (cm > pm)
    if (allow_gain and pairs and wins >= 0.9 * pairs and better_side
            and abs(cm - pm) > p3 - p1):
        return "improved", wins, pairs
    if spread > bound:
        all_worse = (min(cv) > max(pv)) if lower else (max(cv) < min(pv))
        return ("regressed" if all_worse else "unresolved"), wins, pairs
    if worse > bound:
        return "regressed", wins, pairs
    return "unchanged", wins, pairs


def main():
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    if not parent or not change:
        print("compare: empty result set", file=sys.stderr)
        return 2
    fps = {fingerprint(r) for r in parent + change}
    if len(fps) != 1:
        print("compare: refused: the result sets come from different hosts "
              "or builds:", file=sys.stderr)
        for fp in sorted(fps, key=str):
            print("  " + ", ".join("%s=%s" % kv for kv in fp),
                  file=sys.stderr)
        return 2
    fp = fps.pop()
    if unfit_build(fp):
        print("compare: refused: sanitizer or Debug build (%s, %s)" % (
            dict(fp)["build_type"], dict(fp)["cxx_flags"]), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    print("host: " + ", ".join("%s=%s" % kv for kv in fp))
    print("parent rev %s, change rev %s" % (
        sorted({r["git_rev"][:12] for r in parent}),
        sorted({r["git_rev"][:12] for r in change})))

    regressed = False
    workloads = [w["name"] for w in bench["workloads"]]
    for wl in workloads:
        p_recs = [r for r in parent if r["workload"] == wl and not r["trace"]]
        c_recs = [r for r in change if r["workload"] == wl and not r["trace"]]
        if not p_recs or not c_recs:
            continue
        bad = [r for r in p_recs + c_recs if not r["result"]["correct"]]
        allow_gain = (sum(r["result"]["failed"] for r in c_recs) <=
                      sum(r["result"]["failed"] for r in p_recs))
        print("\n%s (%d parent runs, %d change runs%s)" % (
            wl, len(p_recs), len(c_recs),
            ", %d INCORRECT" % len(bad) if bad else ""))
        print("  %-14s %-32s %-32s %-9s %s" % (
            "metric", "parent q1/median/q3", "change q1/median/q3", "wins",
            "verdict"))
        for m in bench["end_to_end"]:
            name = m["name"]
            ps = [r for r in p_recs if name in r["result"]["metrics"]]
            cs = [r for r in c_recs if name in r["result"]["metrics"]]
            if not ps or not cs:
                print("  %-14s missing from one side" % name)
                continue
            for r in ps + cs:
                r["_v"] = r["result"]["metrics"][name]["value"]
            v, wins, pairs = verdict(ps, cs, m["better"], m["bound"],
                                     allow_gain)
            regressed = regressed or v == "regressed"
            p = quartiles([r["_v"] for r in ps])
            c = quartiles([r["_v"] for r in cs])
            print("  %-14s %-32s %-32s %-9s %s" % (
                name, "%.4g/%.4g/%.4g" % p, "%.4g/%.4g/%.4g" % c,
                "%d/%d" % (wins, pairs), v))
        # Wall-clock and memory figures the harness records unbounded: shown
        # with their pair wins, never a verdict.
        for name, better in UNBOUNDED:
            ps = [r for r in p_recs if name in r["record"].get("extra", {})]
            cs = [r for r in c_recs if name in r["record"].get("extra", {})]
            if not ps or not cs:
                continue
            for r in ps + cs:
                r["_v"] = r["record"]["extra"][name]
            _, wins, pairs = verdict(ps, cs, better, float("inf"), False)
            p = quartiles([r["_v"] for r in ps])
            c = quartiles([r["_v"] for r in cs])
            print("  %-14s %-32s %-32s %-9s %s" % (
                name, "%.4g/%.4g/%.4g" % p, "%.4g/%.4g/%.4g" % c,
                "%d/%d" % (wins, pairs), "(unbounded)"))

    print("\nper-layer deltas from traced runs (median parent -> change)")
    for wl in workloads:
        p_recs = [r for r in parent if r["workload"] == wl and r["trace"]]
        c_recs = [r for r in change if r["workload"] == wl and r["trace"]]
        if not p_recs or not c_recs:
            continue
        cells = []
        for m in bench["per_layer"]:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_recs
                  if name in r["result"]["metrics"]]
            cv = [r["result"]["metrics"][name]["value"] for r in c_recs
                  if name in r["result"]["metrics"]]
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            if pm == 0 and cm == 0:
                continue
            delta = "%+.1f%%" % (100.0 * (cm - pm) / pm) if pm else "new"
            cells.append("%s %.4g->%.4g (%s)" % (name, pm, cm, delta))
        print("  %s: %s" % (wl, "; ".join(cells)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
