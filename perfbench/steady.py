#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload once per seed, then prints every metric's median,
quartiles and quartile spread ((q3 - q1) / median), flagging a metric
whose spread exceeds its bound in BENCHMARK.json ("OVER") or a third of
it ("wide"). setup_s is reported but not held to its bound: set-up time
is compared by its median only. The exact counts the benchmark prints
("exact ..." lines) must repeat bit for bit when a seed is given twice.

    python3 perfbench/steady.py                      # every workload, seeds 1-10
    python3 perfbench/steady.py --workloads serve-http --seeds 1-5
    python3 perfbench/steady.py --seeds 7,7          # repeat one seed
    python3 perfbench/steady.py --trace 1 --seeds 1,2

Run it from the repository root. It exits non-zero if any run fails,
any answer is wrong, any spread exceeds its bound, or an exact count
differs between runs of one seed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(s):
    out = []
    for part in s.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        return None, {}
    exact = {}
    for line in lines:
        if line.startswith("exact "):
            k, v = line[len("exact "):].split(" = ")
            exact[k] = v
    return json.loads(lines[-1]), exact


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    ok = True
    for wl in names:
        values = {m["name"]: [] for m in specs}
        exact_by_seed = {}
        for seed in args.seeds:
            res, exact = run_once(bench, wl, seed, args.trace)
            if res is None or not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: FAILED {res}")
                ok = False
                continue
            if seed in exact_by_seed and exact_by_seed[seed] != exact:
                print(f"{wl} seed {seed}: exact counts differ: {exact_by_seed[seed]} vs {exact}")
                ok = False
            exact_by_seed.setdefault(seed, exact)
            for m in specs:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
            print(f"{wl} seed {seed}: " + " ".join(
                f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in specs), flush=True)
        print(f"\n{wl}: {len(values[specs[0]['name']])} runs")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in specs:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                if spread > bound:
                    flag, ok = "OVER", False
                elif spread > bound / 3:
                    flag = "wide"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {m['name']:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b:>6} {flag}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
