#!/usr/bin/env python3
"""Compare two sets of benchmark runs (README.md, "Comparing two commits").

    compare.py PARENT/*.json CHANGE/*.json
    compare.py PARENT_DIR CHANGE_DIR
    compare.py --self-test

Inputs are the per-run files `run.sh --out DIR` writes; the first directory
named is the parent, the second the change. For every workload and every
end-to-end metric of BENCHMARK.json it prints the median and quartiles of
each side and a verdict:

  ok          the change's median is within the metric's bound
  REGRESSION  the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, so the bound cannot be applied -- unless every change
              run beats every parent run
  gain        the change wins at least 9 of every 10 seed-paired runs (ties
              count for neither side) and the medians differ by more than
              the parent's IQR

These verdicts use the host-speed-scaled values. The values as measured
get a check of their own: for each seed both sides ran, how much worse the
change's raw value is than the parent's; when the median of these paired
shares exceeds the bound, the metric is a REGRESSION too. Scaling cannot
see a change that slows the host itself (a daemon busy between reps), and
I/O- or process-bound metrics need not follow the kernel; pairing by seed,
with the two sides run alternately, cancels the host's slow drift instead.

Per-layer metrics are listed without verdicts; counts that differ between
the two sides for the same seed are flagged. Exits 1 when any metric is a
regression or unresolved.
"""
import json
import os
import statistics
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(SUITE, "..", "..", "BENCHMARK.json")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them;
    (min, median, max) below four runs, where quantiles extrapolates."""
    if len(values) < 4:
        return min(values), statistics.median(values), max(values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(parent_median, change_median, better):
    """How much worse the change is, as a share of the parent's median."""
    if better == "lower":
        return (change_median - parent_median) / abs(parent_median)
    return (parent_median - change_median) / abs(parent_median)


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent, change, better, bound):
    """parent, change: {seed: value}. Returns one of the verdicts above."""
    p = list(parent.values())
    c = list(change.values())
    p_med = statistics.median(p)
    c_med = statistics.median(c)
    if worse_by(p_med, c_med, better) > bound:
        return "REGRESSION"
    all_better = all(is_better(x, y, better) for x in c for y in p)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if is_better(change[s], parent[s], better))
    q1, _, q3 = quartiles(p)
    if (seeds and wins * 10 >= 9 * len(seeds)
            and abs(c_med - p_med) > (q3 - q1)):
        return "gain"
    if relative_spread(p) > bound and not all_better:
        return "unresolved"
    return "ok"


def paired_worse(parent, change, better):
    """parent, change: {seed: value}. Median over the seeds both sides ran
    of worse_by(parent[seed], change[seed]); None without a common seed."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return None
    return statistics.median(worse_by(parent[s], change[s], better)
                             for s in seeds)


def load_sets(args):
    """Group run files by directory, in the order the directories appear."""
    files = []
    for arg in args:
        if os.path.isdir(arg):
            files += [os.path.join(arg, f) for f in sorted(os.listdir(arg))]
        else:
            files.append(arg)
    sets = {}
    for path in files:
        if not path.endswith(".json") or path.endswith("host.json"):
            continue
        with open(path) as f:
            run = json.load(f)
        sets.setdefault(os.path.dirname(os.path.abspath(path)), []).append(run)
    if len(sets) != 2:
        sys.exit("compare.py: need runs from exactly two directories, got %d"
                 % len(sets))
    return list(sets.values())


def by_workload(runs):
    out = {}
    for run in runs:
        if not run.get("smoke"):
            out.setdefault(run["workload"], []).append(run)
    return out


def by_seed(runs, name, field="value"):
    return {r["seed"]: r["metrics"][name][field]
            for r in runs if name in r["metrics"]}


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def compare(parent_runs, change_runs, spec):
    failures = 0
    parent, change = by_workload(parent_runs), by_workload(change_runs)
    for workload in sorted(set(parent) & set(change)):
        print("== %s: parent n=%d, change n=%d" %
              (workload, len(parent[workload]), len(change[workload])))
        print("%-18s %-34s %-34s %8s %8s  %s" %
              ("metric", "parent median [q1, q3]", "change median [q1, q3]",
               "worse", "raw", "verdict"))
        for m in spec["end_to_end"]:
            name = m["name"]
            p = by_seed(parent[workload], name)
            c = by_seed(change[workload], name)
            if not p or not c:
                print("%-18s missing" % name)
                failures += 1
                continue
            v = verdict(p, c, m["better"], m["bound"])
            worse = worse_by(statistics.median(list(p.values())),
                             statistics.median(list(c.values())), m["better"])
            raw = paired_worse(by_seed(parent[workload], name, "raw"),
                               by_seed(change[workload], name, "raw"),
                               m["better"])
            if raw is not None and raw > m["bound"]:
                v = "REGRESSION as measured"
            print("%-18s %-34s %-34s %+7.1f%% %+7.1f%%  %s "
                  "(bound %g%%, %s better)" %
                  (name, fmt(list(p.values())), fmt(list(c.values())),
                   100 * worse, 100 * (raw or 0.0), v, 100 * m["bound"],
                   m["better"]))
            if v.startswith("REGRESSION") or v == "unresolved":
                failures += 1
    for workload in sorted(set(parent) & set(change)):
        print("== %s per layer: parent n=%d, change n=%d" %
              (workload, len(parent[workload]), len(change[workload])))
        for m in spec["per_layer"]:
            name = m["name"]
            p = by_seed(parent[workload], name)
            c = by_seed(change[workload], name)
            if not p or not c:
                continue
            note = ""
            if m["unit"] == "count" and any(
                    p[s] != c[s] for s in set(p) & set(c)):
                note = "  counts differ"
            print("%-32s %-34s %-34s %s%s" %
                  (name, fmt(list(p.values())), fmt(list(c.values())),
                   m["unit"], note))
    return failures


def self_test():
    checks = []

    def expect(ok, what):
        checks.append((ok, what))

    expect(quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25),
           "quartiles match statistics.quantiles (exclusive)")
    expect(quartiles([7]) == (7, 7, 7), "one run is its own quartiles")
    expect(quartiles([1, 5]) == (1, 3, 5), "two runs span min to max")
    expect(abs(relative_spread([9, 10, 10, 10, 11]) - 0.1) < 1e-12,
           "relative spread is IQR over median")
    expect(worse_by(100, 110, "lower") == 0.1, "lower-better: rise is worse")
    expect(worse_by(100, 110, "higher") == -0.1,
           "higher-better: rise is better")
    steady = {s: 100.0 + s % 3 for s in range(1, 11)}
    expect(verdict(steady, {s: v * 1.02 for s, v in steady.items()},
                   "lower", 0.1) == "ok", "2% worse within a 10% bound")
    expect(verdict(steady, {s: v * 1.2 for s, v in steady.items()},
                   "lower", 0.1) == "REGRESSION", "20% worse breaks 10%")
    expect(verdict(steady, {s: v * 1.2 for s, v in steady.items()},
                   "higher", 0.1) == "gain",
           "20% higher on every pair is a gain when higher is better")
    nine = {s: (v * 0.8 if s != 1 else v * 1.01) for s, v in steady.items()}
    expect(verdict(steady, nine, "lower", 0.1) == "gain",
           "9 of 10 pairs won is a gain")
    eight = {s: (v * 0.8 if s > 2 else v * 1.01) for s, v in steady.items()}
    expect(verdict(steady, eight, "lower", 0.1) == "ok",
           "8 of 10 pairs won is no gain")
    noisy = {s: 100.0 * (1 + 0.3 * (s % 2)) for s in range(1, 11)}
    expect(verdict(noisy, noisy, "lower", 0.1) == "unresolved",
           "parent spread wider than the bound is unresolved")
    better = {s: 10.0 for s in noisy}
    expect(verdict(noisy, better, "lower", 0.1) == "gain",
           "every change run beating every parent run resolves it")
    drift = {s: 100.0 * (1 + 0.05 * s) for s in range(1, 11)}
    expect(abs(paired_worse(drift, {s: v * 1.2 for s, v in drift.items()},
                            "lower") - 0.2) < 1e-12,
           "paired shares follow each seed through the host's drift")
    expect(paired_worse(drift, {s: v * 0.9 for s, v in drift.items()},
                        "higher") > 0.09, "paired shares honour direction")
    expect(paired_worse({1: 1.0}, {2: 1.0}, "lower") is None,
           "no common seed, no paired share")
    failed = [what for ok, what in checks if not ok]
    for what in failed:
        print("compare.py self-test FAILED: %s" % what)
    print("compare.py self-test: %d checks, %d failed" %
          (len(checks), len(failed)))
    return 1 if failed else 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        spec = json.load(f)
    parent_runs, change_runs = load_sets(argv)
    return 1 if compare(parent_runs, change_runs, spec) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
