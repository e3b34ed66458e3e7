"""Steadiness mode: repeat each workload and compare the spread to the bounds.

    python3 perfbench/steady.py --seeds 10 [--trace 0]
        [--out perfbench/out/steady.json]
        [--against perfbench/out/steady-1.json]

Runs ``run.py`` once per BENCHMARK.json workload and seed (seeds 1..N), at
the file's ``run_seconds``, each run in its own process, one at a time.
For every metric it prints the median and the quartiles of the N values,
the spread (q3 - q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json; a spread above a third of the bound is flagged.
``--against`` compares the medians with an earlier summary and flags any
that got worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if not old:
        return 0.0
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out",
                                                      "steady.json"))
    parser.add_argument("--against", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metric_spec = {m["name"]: m for m in
                   spec["per_layer" if args.trace else "end_to_end"]}
    against = None
    if args.against:
        with open(args.against) as fh:
            against = json.load(fh)["workloads"]

    import numpy

    summary = {"machine": {"cores": os.cpu_count(),
                           "python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "platform": platform.platform()},
               "seconds": seconds, "trace": args.trace, "workloads": {}}
    flagged = 0
    for name in names:
        runs = []
        for seed in range(1, args.seeds + 1):
            res = run_once(name, seed, seconds, args.trace)
            runs.append(res)
            print(f"{name} seed {seed}: {res['wall_s']:.1f} s wall,"
                  f" correct={res['correct']}, failed {res['failed']}"
                  f" of {res['attempted']}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        doc = {"runs": len(runs), "attempted": attempted, "failed": failed,
               "fail_share": failed / attempted,
               "max_wall_s": max(r["wall_s"] for r in runs), "metrics": {}}
        print(f"\n{name}: fail_share {doc['fail_share']:g}"
              f" ({failed} of {attempted}), slowest run"
              f" {doc['max_wall_s']:.1f} s")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            stats = summarize(values)
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            stats["values"] = values
            doc["metrics"][metric] = stats
            bound = metric_spec.get(metric, {}).get("bound")
            notes = []
            if bound is not None and stats["spread"] > bound / 3:
                notes.append("SPREAD ABOVE BOUND/3")
            if against is not None and bound is not None:
                old = against[name]["metrics"][metric]["median"]
                worse = worse_by(old, stats["median"],
                                 metric_spec[metric]["better"])
                notes.append(f"vs earlier {worse:+.3f}")
                if worse > bound:
                    notes.append("WORSE THAN BOUND")
            flagged += any(n.isupper() for n in notes)
            print(f"  {metric:34} {stats['median']:12.6g} {stats['q1']:12.6g}"
                  f" {stats['q3']:12.6g} {stats['spread']:7.3f}"
                  f" {'' if bound is None else bound:>6} {' '.join(notes)}")
        summary["workloads"][name] = doc
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\nsummary written to {args.out}; {flagged} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
