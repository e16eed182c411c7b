#!/usr/bin/env python3
"""Compare two directories of bfbench results (run_all.sh output).

    python3 bench/perf/compare.py A/ B/

A is the baseline (the parent commit), B the change. Every *.json file
in a directory is one bfbench invocation (its out= document); invocations
are grouped by workload, and traced ones (trace=1) are kept apart.

For each workload and end-to-end metric of BENCHMARK.json the report gives
both sides' median and quartiles, the share of (A, B) pairs that B wins,
and a verdict:

  improved       B wins >= 90% of pairs, the medians differ by more than
                 A's quartile spread, and each side has >= 10 invocations
  within bound   B's median is no worse than A's by more than the bound
  regressed      B's median is worse than A's by more than the bound
  unresolved     A's own quartile spread exceeds the bound, and B does not
                 beat every run of A

Simulated (paper) metrics are deterministic, so invocations with the same
seed must agree exactly; any difference is reported as "changed". When
both sides hold traced runs, the per-layer host deltas are ranked by how
many seconds of wall_s or setup_s each explains, so a regression names
the layer that moved.

Exit status: 1 when a run failed, a metric regressed or a simulated
metric changed, else 0.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")
# The per-layer timings whose sum is setup_s.
SETUP_LAYERS = ("sys.construct_s", "workload.inputs_s", "isa.build_s",
                "os.start_s")
MIN_RUNS_FOR_GAIN = 10


def load(directory):
    """{(workload, traced): [document, ...]} for every result file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        runs.setdefault((doc["workload"], doc["trace"]), []).append(doc)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(docs, section, name):
    return [d[section][name]["value"] for d in docs if name in d[section]]


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a, b, better, bound):
    """(verdict, share of pairs B wins) for one workload and metric."""
    wins = sum(1 for x in a for y in b
               if (y < x if better == "lower" else y > x))
    won = wins / (len(a) * len(b))
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    spread = (qa3 - qa1) / ma if ma else 0.0
    if spread > bound and won < 1.0:
        return "unresolved", won
    if (won >= 0.9 and abs(mb - ma) > qa3 - qa1 and
            worse_by(ma, mb, better) < 0 and
            min(len(a), len(b)) >= MIN_RUNS_FOR_GAIN):
        return "improved", won
    if worse_by(ma, mb, better) > bound:
        return "regressed", won
    return "within bound", won


def fmt(x):
    return f"{x:.5g}"


def spread_text(values):
    q1, med, q3 = quartiles(values)
    return f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"


def compare_end_to_end(workload, a_docs, b_docs, metrics):
    bad = False
    print(f"\n== {workload}: {len(a_docs)} vs {len(b_docs)} invocations")
    for side, docs in (("A", a_docs), ("B", b_docs)):
        attempted = sum(d["attempted"] for d in docs)
        failed = sum(d["failed"] for d in docs)
        print(f"  {side}: {failed} of {attempted} runs failed")
        bad |= failed > 0
    print(f"  {'metric':<13}{'A median [q1, q3]':>36}"
          f"{'B median [q1, q3]':>36}{'B wins':>8}  verdict")
    for m in metrics:
        a = values(a_docs, "end_to_end", m["name"])
        b = values(b_docs, "end_to_end", m["name"])
        if not a or not b:
            continue
        v, won = verdict(a, b, m["better"], m["bound"])
        bad |= v == "regressed"
        print(f"  {m['name']:<13}{spread_text(a):>36}{spread_text(b):>36}"
              f"{won:>8.0%}  {v} (bound {m['bound']:.0%})")
    return bad


def compare_paper(a_docs, b_docs):
    """Exact comparison of the simulated paper metrics, seed by seed."""
    b_by_seed = {d["seed"]: d for d in b_docs}
    pairs = [(a, b_by_seed[a["seed"]]) for a in a_docs
             if a["seed"] in b_by_seed]
    if not pairs:
        print("  simulated paper metrics: no seed in common, not compared")
        return False
    changed = set()
    for a, b in pairs:
        for name, v in a["paper"].items():
            w = b["paper"].get(name, {}).get("value")
            if w != v["value"]:
                changed.add(f"  changed {name} at seed {a['seed']}: "
                            f"{v['value']} -> {w}")
    print(f"  simulated paper metrics over {len(pairs)} common seed(s): " +
          ("identical" if not changed else f"{len(changed)} changed"))
    for line in sorted(changed):
        print(line)
    return bool(changed)


def rank_layers(a_docs, b_docs):
    """Per-layer host deltas, ranked by the seconds each one explains:
    event-loop phases (ns per simulated cycle x cycles) against wall_s,
    and the set-up layers against setup_s."""
    def med(docs, section, name):
        v = values(docs, section, name)
        return statistics.median(v) if v else 0.0

    cycles = med(a_docs, "end_to_end", "sim_cycles")
    groups = {"wall_s": [], "setup_s": []}
    for name in a_docs[0]["per_layer"]:
        a = med(a_docs, "per_layer", name)
        b = med(b_docs, "per_layer", name)
        if name.endswith("_ns_per_cycle"):
            groups["wall_s"].append((name, a, b, (b - a) * cycles * 1e-9))
        elif name in SETUP_LAYERS:
            groups["setup_s"].append((name, a, b, b - a))
    for metric, rows in groups.items():
        d_metric = (med(b_docs, "end_to_end", metric) -
                    med(a_docs, "end_to_end", metric))
        rows.sort(key=lambda r: -abs(r[3]))
        print(f"  layers behind {metric} (delta {fmt(d_metric)} s):")
        print(f"    {'layer':<30}{'A':>12}{'B':>12}{'delta s':>12}"
              f"{'share':>8}")
        for name, a, b, d in rows:
            share = d / d_metric if d_metric else 0.0
            print(f"    {name:<30}{fmt(a):>12}{fmt(b):>12}{fmt(d):>12}"
                  f"{share:>8.0%}")


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py A/ B/", file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    a_runs, b_runs = load(argv[1]), load(argv[2])
    bad = False
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, traced = key
        a_docs, b_docs = a_runs[key], b_runs[key]
        label = workload + (" (traced)" if traced else "")
        bad |= compare_end_to_end(label, a_docs, b_docs, metrics)
        bad |= compare_paper(a_docs, b_docs)
        if traced:
            rank_layers(a_docs, b_docs)
    for workload, traced in sorted(set(a_runs) ^ set(b_runs)):
        print(f"\n== {workload}{' (traced)' if traced else ''}: "
              "results on one side only")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
