#!/usr/bin/env python3
"""Interleaved A/B runs of the repository's benchmark (perfbench).

    python3 tools/bench_pairs.py --base REV --head REV [--aa] \
        --workload wan_sweep [--workload ...] --seeds 20263201..20263210 \
        [--seconds 30] [--trace 0] [--dir DIR]
    python3 tools/bench_pairs.py --summarize DIR/results.jsonl
    python3 tools/bench_pairs.py --self-test

Exports each revision with `git archive` into DIR (base/, head/, and
with --aa a second copy of the base, aa/), builds perfbench in each, then
for every workload and seed runs `python3 perfbench/run.py` once in each
tree. The order of the trees rotates from one seed to the next, so each
side runs first equally often. Every result line is appended to
DIR/results.jsonl as it arrives. At the end it prints, per metric: each
side's median and quartiles, the change of its median against the base,
the pairs in which it beat the base (in the metric's better direction,
from BENCHMARK.json), and the base's interquartile range relative to its
median. Needs only the standard library, git and what perfbench needs.
"""
import argparse
import io
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(Q1, median, Q3) by linear interpolation between order statistics
    (numpy's default; statistics.quantiles(method='inclusive'))."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")

    def at(q):
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def wins(side, base, higher_is_better):
    """Pairs (same seed) in which `side` is strictly better than `base`."""
    return sum(1 for s, b in zip(side, base)
               if (s > b if higher_is_better else s < b))


def parse_seeds(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def export(rev, dest):
    """Extract commit `rev` of this repository into `dest`. A tree already
    there is reused (with its build) if it holds the same commit."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", rev + "^{commit}"],
                            stdout=subprocess.PIPE, text=True,
                            check=True).stdout.strip()
    marker = os.path.join(dest, ".bench_pairs_commit")
    if os.path.isdir(dest):
        held = ""
        if os.path.exists(marker):
            with open(marker) as f:
                held = f.read().strip()
        if held != commit:
            sys.exit("bench_pairs: %s holds another tree; remove it" % dest)
        return
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        shutil.rmtree(dest)
        sys.exit("bench_pairs: git archive %s failed" % rev)
    with open(marker, "w") as f:
        f.write(commit + "\n")


def run_bench(tree, workload, seed, seconds, trace):
    """One perfbench run in `tree`; its result JSON (the last stdout line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("bench_pairs: %s failed in %s (exit %d)" %
                 (" ".join(cmd), tree, done.returncode))
    return json.loads(lines[-1])


def directions(benchmark_json):
    """Metric name -> (higher is better, bound or None)."""
    with open(benchmark_json) as f:
        spec = json.load(f)
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec.get(kind, []):
            out[m["name"]] = (m["better"] == "higher", m.get("bound"))
    return out


def summarize(records, better, out=sys.stdout):
    """Prints the per-metric table of `records` (results.jsonl entries)."""
    order = ["base", "head", "aa"]
    sides = sorted({r["side"] for r in records},
                   key=lambda s: (order.index(s) if s in order else 3, s))
    workloads = []
    for r in records:
        if r["workload"] not in workloads:
            workloads.append(r["workload"])
    for w in workloads:
        rs = [r for r in records if r["workload"] == w]
        seeds = sorted({r["seed"] for r in rs})
        by = {(r["side"], r["seed"]): r["result"] for r in rs}
        # Only seeds every side ran form pairs.
        seeds = [s for s in seeds if all((side, s) in by for side in sides)]
        out.write("%s: %d pairs (seeds %s)\n" %
                  (w, len(seeds), ",".join(str(s) for s in seeds)))
        for side in sides:
            results = [by[(side, s)] for s in seeds]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            bad = sum(1 for r in results if not r["correct"])
            out.write("  %-5s failed %d of %d units, %d runs not correct\n" %
                      (side, failed, attempted, bad))
        names = []
        for s in seeds:
            for name in by[(sides[0], s)]["metrics"]:
                if name not in names:
                    names.append(name)
        for name in names:
            higher, bound = better.get(name, (True, None))
            vals = {side: [by[(side, s)]["metrics"][name]["value"]
                           for s in seeds] for side in sides}
            q1, med, q3 = quartiles(vals[sides[0]])
            iqr = 100.0 * (q3 - q1) / med if med else float("nan")
            out.write("  %s (%s is better%s): base IQR %.2f%% of median\n" %
                      (name, "higher" if higher else "lower",
                       "" if bound is None else ", bound %g" % bound, iqr))
            for side in sides:
                a, m, b = quartiles(vals[side])
                line = "    %-5s median %.6g [%.6g-%.6g]" % (side, m, a, b)
                if side != sides[0]:
                    change = 100.0 * (m - med) / med if med else float("nan")
                    line += "  %+.2f%%, better in %d/%d" % (
                        change, wins(vals[side], vals[sides[0]], higher),
                        len(seeds))
                out.write(line + "\n")


def self_test():
    """Checks the arithmetic the summary rests on, on fixed numbers."""
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    q1, med, q3 = quartiles([10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
    assert (q1, med, q3) == (32.5, 55.0, 77.5), (q1, med, q3)
    assert wins([2, 2, 5], [1, 2, 6], True) == 1  # a tie is no win
    assert wins([2, 2, 5], [1, 2, 6], False) == 1
    assert parse_seeds("7..9") == [7, 8, 9]
    assert parse_seeds("5,3") == [5, 3]
    better = {"units_per_s": (True, 0.2), "cpu_us_per_unit": (False, 0.2)}

    def rec(side, seed, units, cpu):
        return {"workload": "w", "side": side, "seed": seed,
                "result": {"correct": True, "attempted": 10, "failed": 0,
                           "metrics": {
                               "units_per_s": {"value": units},
                               "cpu_us_per_unit": {"value": cpu}}}}

    records = [rec("head", 1, 150, 3), rec("base", 1, 100, 4),
               rec("base", 2, 110, 5), rec("head", 2, 105, 2),
               rec("base", 3, 90, 6), rec("head", 3, 160, 7),
               rec("head", 4, 1, 1)]  # no base run: not a pair

    text = io.StringIO()
    summarize(records, better, text)
    report = text.getvalue()
    assert "w: 3 pairs (seeds 1,2,3)" in report, report
    # base 90/100/110: IQR 95-105 = 10% of 100; head 105/150/160.
    assert "base IQR 10.00% of median" in report, report
    assert "head  median 150 [127.5-155]  +50.00%, better in 2/3" in report, \
        report
    # cpu: base 4/5/6, head 2/3/7; lower is better.
    assert "head  median 3 [2.5-5]  -40.00%, better in 2/3" in report, report
    print("bench_pairs self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="the parent revision")
    ap.add_argument("--head", help="the revision to compare with it")
    ap.add_argument("--aa", action="store_true",
                    help="add a second copy of the base (an A/A control)")
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seeds", help="A..B or a comma-separated list")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", default=os.path.join(ROOT, ".bench_pairs"),
                    help="where the trees and results.jsonl go")
    ap.add_argument("--summarize", metavar="RESULTS_JSONL",
                    help="print the table of saved results and exit")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return
    better = directions(os.path.join(ROOT, "BENCHMARK.json"))
    if args.summarize:
        with open(args.summarize) as f:
            summarize([json.loads(line) for line in f if line.strip()],
                      better)
        return
    if not (args.base and args.head and args.workload and args.seeds):
        ap.error("--base, --head, --workload and --seeds are required")

    sides = [("base", args.base), ("head", args.head)]
    if args.aa:
        sides.append(("aa", args.base))
    trees = {}
    for side, rev in sides:
        trees[side] = os.path.join(args.dir, side)
        export(rev, trees[side])
    # Build each tree's perfbench before anything is timed.
    for side, _ in sides:
        run_bench(trees[side], args.workload[0], 1, 1, 0)

    results = os.path.join(args.dir, "results.jsonl")
    records = []
    seeds = parse_seeds(args.seeds)
    with open(results, "a") as log:
        for workload in args.workload:
            for p, seed in enumerate(seeds):
                order = sides[p % len(sides):] + sides[:p % len(sides)]
                for position, (side, rev) in enumerate(order):
                    result = run_bench(trees[side], workload, seed,
                                       args.seconds, args.trace)
                    record = {"workload": workload, "seed": seed,
                              "side": side, "rev": rev,
                              "position": position, "seconds": args.seconds,
                              "trace": args.trace, "result": result}
                    records.append(record)
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                    units = result["metrics"].get("units_per_s", {})
                    print("%s seed %d %s: units_per_s %s" %
                          (workload, seed, side, units.get("value")),
                          file=sys.stderr)
    summarize(records, better)


if __name__ == "__main__":
    main()
