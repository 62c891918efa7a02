#!/usr/bin/env python3
"""Steadiness and agreement tool for the FarGo-RS benchmark.

Run from the repository root:

    python3 perfbench/steady.py run --workload invoke --runs 10 --out a.jsonl
    python3 perfbench/steady.py run --workload all --runs 10 --seed0 100 --out b.jsonl
    python3 perfbench/steady.py compare a.jsonl b.jsonl

`run` executes the command from BENCHMARK.json once per seed (seed0,
seed0+1, ...), appends every result to --out as one JSON line, and prints
for each metric its median, quartiles and spread (IQR / median) against
the metric's bound. A spread above a third of the bound is flagged
"noisy"; above the bound, "TOO NOISY".

`compare` reads two such files of the same code and checks, per workload
and end-to-end metric, that the second median is not worse than the first
by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def metric_specs(spec):
    out = {m["name"]: m for m in spec["per_layer"]}
    out.update({m["name"]: m for m in spec["end_to_end"]})
    return out


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result line\n"
                         f"{proc.stdout[-2000:]}")
    # A run the oracle failed exits 1 but still prints its result; keep it
    # so the summary lists it as INCORRECT instead of losing the set.
    report = json.loads(lines[-2]).get("perfbench", {}) if len(lines) > 1 else {}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": wall,
        "result": result,
        "report": report,
    }


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def group(records):
    """{(workload, trace): {metric: [values]}}"""
    out = {}
    for r in records:
        per = out.setdefault((r["workload"], r["trace"]), {})
        for name, m in r["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def summarize(records, spec):
    specs = metric_specs(spec)
    ok = True
    for (workload, trace), metrics in sorted(group(records).items()):
        runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
        walls = [r["wall_s"] for r in runs]
        wrong = [r["seed"] for r in runs if not r["result"]["correct"]]
        print(f"\n== {workload} (trace {trace}) - {len(runs)} runs, wall max {max(walls):.1f}s"
              f"{', INCORRECT seeds ' + str(wrong) if wrong else ''}")
        ok &= not wrong
        print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, values in metrics.items():
            med, q1, q3, s = spread(values)
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                if s > bound:
                    flag, ok = "TOO NOISY", False
                elif s > bound / 3:
                    flag = "noisy"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{name:40} {med:14.4f} {q1:14.4f} {q3:14.4f} {s:8.4f} {b:>6} {flag}")
    return ok


def cmd_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else args.workload.split(",")
    seconds = args.seconds or spec["run_seconds"]
    records = []
    for workload in workloads:
        for i in range(args.runs):
            rec = run_once(spec, workload, args.seed0 + i, seconds, args.trace)
            records.append(rec)
            print(f"{workload} seed {rec['seed']}: {rec['wall_s']:.1f}s", file=sys.stderr)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(rec) + "\n")
    return 0 if summarize(records, spec) else 1


def read_records(path):
    with open(path) as f:
        return [json.loads(l) for l in f if l.strip()]


def cmd_summary(args):
    return 0 if summarize(read_records(args.file), load_spec()) else 1


def cmd_compare(args):
    spec = load_spec()
    first, second = group(read_records(args.first)), group(read_records(args.second))
    ok = True
    print(f"{'workload':10} {'metric':32} {'median 1':>14} {'median 2':>14} {'change':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        for (workload, trace), metrics in sorted(first.items()):
            if trace != 0 or m["name"] not in metrics:
                continue
            other = second.get((workload, trace), {}).get(m["name"])
            if not other:
                print(f"{workload:10} {m['name']:32} missing from second set")
                ok = False
                continue
            a, b = statistics.median(metrics[m["name"]]), statistics.median(other)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "DISAGREE"
            ok &= verdict == "ok"
            print(f"{workload:10} {m['name']:32} {a:14.4f} {b:14.4f} {worse:+8.4f} {m['bound']:6.2f} {verdict}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a workload N times and print its spreads")
    r.add_argument("--workload", required=True, help="a workload name, a comma list, or 'all'")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--out", help="append results to this JSON-lines file")
    r.set_defaults(func=cmd_run)
    s = sub.add_parser("summary", help="print spreads of a saved result file")
    s.add_argument("file")
    s.set_defaults(func=cmd_summary)
    c = sub.add_parser("compare", help="check two result sets of the same code agree")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=cmd_compare)
    args = p.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
