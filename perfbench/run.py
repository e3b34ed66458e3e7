"""Benchmark of the wilsonprod package.

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 50 \
        --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
A run sets the workload up, then runs whole passes over the seed's inputs
until the next pass would end after ``--seconds``, setting the workload up
again between passes (setup_s is the median of the set-ups), checks every
answer, and prints the metrics as the
last line of stdout.  With ``--trace 1`` it runs traced passes between
untraced ones and reports the per-layer metrics of the traced ones
instead, with the tracing overhead; the spans go to
``perfbench/out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import spans  # noqa: E402  (siblings in perfbench/)
import workloads  # noqa: E402

SETUP_REPEATS = 7
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def load_package():
    """Import wilsonprod afresh from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "wilsonprod", "__init__.py")):
        raise ImportError(f"no wilsonprod package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m.split(".")[0] == "wilsonprod"]:
        del sys.modules[name]
    pkg = importlib.import_module("wilsonprod")
    importlib.import_module("wilsonprod.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"wilsonprod imported from {pkg.__file__}")
    return pkg


def set_up(name: str, seed: int) -> tuple:
    """(workload, seconds) of one set-up: import, inputs and warm-up."""
    t0 = time.perf_counter()
    pkg = load_package()
    wl = workloads.WORKLOADS[name]()
    wl.setup(pkg, seed)
    return wl, time.perf_counter() - t0


def measure(wl, seconds: float, recorder=None, set_up_again=None) -> tuple:
    """Whole passes until the next one would end after ``seconds``.

    Without a recorder every pass is untraced.  With one, traced passes
    alternate with untraced ones, an untraced pass on either side of each
    traced one so that a drift in machine speed cancels from the overhead;
    returns (untraced passes, traced passes).  ``set_up_again`` is called
    between passes whenever another ``seconds / SETUP_REPEATS`` has gone
    by, and after the last pass until it has been called
    ``SETUP_REPEATS - 1`` times, so the set-ups sample the machine's speed
    across the whole run as the passes do.
    """
    plain, traced = [], []
    t_start = time.perf_counter()
    set_ups = 1

    def catch_up(due: int) -> None:
        nonlocal set_ups
        while set_up_again is not None and set_ups < min(due, SETUP_REPEATS):
            set_up_again()
            set_ups += 1

    while True:
        if recorder is not None and plain:
            with spans.Tracer(recorder) as tr:
                traced.append(wl.run_pass())
            recorder.missing = tr.missing
        plain.append(wl.run_pass())
        elapsed = time.perf_counter() - t_start
        catch_up(1 + int(elapsed * SETUP_REPEATS / seconds) if seconds > 0
                 else SETUP_REPEATS)
        step = plain[-1].seconds + (traced[-1].seconds if traced else 0.0)
        if recorder is not None and not traced:
            continue
        if time.perf_counter() - t_start + step > seconds:
            break
    catch_up(SETUP_REPEATS)
    wl.cross_check(plain + traced)
    return plain, traced


class NoSamples(ValueError):
    """A metric has nothing to be taken from: the run fails."""


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (q in percent)."""
    xs = sorted(values)
    if not xs:
        raise NoSamples("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(per_pass: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in one
    pass, so every run has at least ten beyond it however many passes fit."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if per_pass * (1 - q / 100.0) >= 10:
            best = q
    return best


def rate(p, count) -> float:
    """``count`` of the pass's answered sweeps and verify requests per wall
    second spent in them."""
    done = [op for op in p.ops
            if op.kind in ("sweep", "verify") and not op.failed]
    busy = sum(op.seconds for op in done)
    if not busy:
        raise NoSamples("no sweep or verify answered")
    return sum(count(op) for op in done) / busy


def end_to_end(wl, passes, setup_s: float) -> tuple[dict, list]:
    """The end-to-end metrics and the report lines that explain them.

    Every pass holds the same inputs, so each figure is taken per pass and
    the median over the passes is reported: a pass that ran while the host
    was busy moves it little.  A metric with no samples (every operation it
    is taken from failed, or none reached it) is left out and named in the
    report lines; the run then reports ``correct: false``.
    """
    metrics = {"setup_s": (setup_s, "s")}
    lines = []

    def put(name, unit, per_pass):
        try:
            metrics[name] = (statistics.median(per_pass(p) for p in passes),
                             unit)
        except NoSamples as exc:
            lines.append(f"NO SAMPLES for {name}: {exc}")

    put("elems_per_s", "1/s", lambda p: rate(p, lambda op: op.elements))
    put("rings_per_s", "1/s", lambda p: rate(p, lambda op: op.attempted))
    for label, per_pass in (("verify", wl.verify_per_pass),
                            ("classify", wl.classify_per_pass)):
        q = tail_percentile(per_pass)
        for name, at in (("p50", 50.0), ("tail", q)):
            put(f"{label}_ms_{name}", "ms", lambda p: percentile(
                [s * 1e3 for s, _ in getattr(p, label + "_work")], at))
        lines.append(f"{label}_ms_tail is p{q:g} of each pass's"
                     f" {per_pass} samples, median of {len(passes)} pass(es)")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return metrics, lines


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl, first = set_up(name, seed)
    setup_times = [first]
    recorder = spans.SpanRecorder() if trace else None
    # a traced run reports no setup_s, and a fresh import would leave the
    # tracer patching modules the workload does not use
    again = None if trace else \
        (lambda: setup_times.append(set_up(name, seed)[1]))
    plain, traced = measure(wl, seconds, recorder, again)
    setup_s = statistics.median(setup_times)
    ops = [op for p in plain + traced for op in p.ops]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    lines = [f"workload {name}, seed {seed}, {len(plain + traced)} pass(es),"
             f" {attempted} operations attempted, {failed} failed"
             f" (fail_share {failed / attempted if attempted else 0.0:g})"]
    lines += [f"FAILED {op.detail}" for op in ops if op.failed]
    complete = True
    if trace:
        traced_s = sum(p.seconds for p in traced)
        metrics = {k: (v, _unit(k)) for k, v in spans.layer_metrics(
            recorder, len(traced), traced_s).items()}
        overhead = (statistics.median(p.seconds for p in traced)
                    / statistics.median(p.seconds for p in plain) - 1.0)
        metrics["trace.overhead_share"] = (overhead, "ratio")
        if recorder.missing:
            lines.append("not found in the package: "
                         + ", ".join(recorder.missing))
        os.makedirs(OUT, exist_ok=True)
        recorder.write(os.path.join(OUT, f"trace-{name}.json"), {
            "workload": name, "seed": seed, "traced_passes": len(traced),
            "layers": {k: v for k, (v, _) in metrics.items()}})
    else:
        metrics, more = end_to_end(wl, plain, setup_s)
        lines += more
        complete = complete and not any(
            line.startswith("NO SAMPLES") for line in more)
    for key, (value, unit) in metrics.items():
        lines.append(f"{key} = {value:.6g} {unit}")
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0 and complete,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
    }


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    if metric.endswith("ns_per_element"):
        return "ns"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        return 2
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
