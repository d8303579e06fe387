"""One workload in a fresh interpreter: set up, measure, print one JSON line.

Started by run.py; not meant to be run by hand. The first thing it does is
import the package from ``<root>/src``, so the set-up time run.py measures
from the interpreter's launch covers the import a CLI user pays.

    python3 perfbench/worker.py --root . --workload detect --seed 0 \
        --seconds 20 --trace 0 [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from typing import Optional

MIN_OPS = 100  # so that op_p90_s has ten samples beyond it

# This host's speed drifts by tens of percent within seconds, so raw times of
# the same work differ between runs by more than a regression bound. The
# untraced run therefore times a fixed pure-Python calibration unit every
# CAL_EVERY_S of CPU time, during ops as well as between them, and scales its
# times to the speed at which that unit takes CAL_REF_S (about the median on
# a 2.1 GHz Xeon VM). Raw times are kept in the rows and the report.
CAL_REF_S = 0.010
CAL_EVERY_S = 0.1
CAL_WINDOW = 5  # samples on each side of an op that its scale averages
_CAL_N = 20000


def calibration_unit() -> float:
    """Time a fixed loop of int, dict, set and tuple operations, the mix the
    library's searches are made of; it does not touch the library."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    seen = set()
    x = 1
    for i in range(_CAL_N):
        x = (x * 1103515245 + 12345) & 0xFFFFF
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
        if x & 1:
            seen.add((x >> 10, i & 15))
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs the calibration unit from a SIGPROF timer, so that the samples
    cover the run evenly, long ops included. `spent` is the time they took,
    which the caller takes out of the op times. An op is scaled by the samples
    taken during it and the CAL_WINDOW nearest on each side: one sample varies
    by tens of percent, the speed it measures changes over about a second."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        d = calibration_unit()
        self.samples.append(d)
        self.spent += d

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self, first: int = 0, last: Optional[int] = None) -> float:
        """Scale for an op between samples first and last (default: the run)."""
        if last is None:
            return CAL_REF_S / statistics.mean(self.samples)
        window = self.samples[max(first - CAL_WINDOW, 0):last + CAL_WINDOW]
        return CAL_REF_S / statistics.mean(window)


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def _row(inst, res, check: str) -> dict:
    return {
        "op": inst.op_id, "workload": inst.workload, "round": inst.round,
        "generator": inst.generator, "params": inst.params, "seed": inst.seed,
        "n": inst.G.n, "m": inst.G.m, "task": inst.task, "verdict": res.verdict,
        "seconds": res.seconds, "check": check, "failure": res.failure,
        "detail": res.detail,
    }


def _measure(wl, first_round, args, recorded) -> dict:
    """Untraced run: whole rounds until --seconds have passed and at least
    MIN_OPS ops are done."""
    rows, windows = [], []
    rnd, ops = 0, first_round
    t0 = time.perf_counter()
    with SpeedSampler() as speed:
        while True:
            for inst in ops:
                spent, first = speed.spent, len(speed.samples)
                res = wl.run_op(inst)
                res.seconds -= speed.spent - spent
                rows.append(_row(inst, res, wl.judge(inst, res, recorded, args.seed)))
                windows.append((first, len(speed.samples)))
            rnd += 1
            if time.perf_counter() - t0 >= args.seconds and len(rows) >= MIN_OPS:
                break
            ops = wl.build_round(args.workload, args.seed, rnd)
    wall = time.perf_counter() - t0 - speed.spent
    for row, (first, last) in zip(rows, windows):
        row["scaled_s"] = row["seconds"] * speed.scale(first, last)
    return {"rows": rows, "wall_s": wall, "rounds": rnd, "scale": speed.scale(),
            "calibration_s": speed.spent}


def _traced(wl, first_round, args, recorded) -> dict:
    """The first rounds that hold MIN_OPS ops, untraced and then traced."""
    from tracing import Tracer, TRACE_CASES, layer_metrics

    ops, rounds = list(first_round), 1
    while len(ops) < MIN_OPS:
        ops += wl.build_round(args.workload, args.seed, rounds)
        rounds += 1

    def one_pass(tracer):
        results = []
        t0 = time.perf_counter()
        for inst in ops:
            tracer.op = inst.op_id
            results.append(wl.run_op(inst))
            tracer.op = None
        return results, time.perf_counter() - t0

    plain, wall_plain = one_pass(Tracer())  # not installed: records nothing
    tracer = Tracer()
    tracer.install()
    try:
        traced, wall_traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    rows, mismatches, cases = [], [], {}
    for inst, a, b in zip(ops, plain, traced):
        if (a.verdict, a.certificate, a.failure) != (b.verdict, b.certificate, b.failure):
            mismatches.append({"op": inst.op_id, "untraced": a.verdict, "traced": b.verdict,
                               "failures": [a.failure, b.failure]})
        rows.append(_row(inst, b, wl.judge(inst, b, recorded, args.seed)))
        for entry in b.trace:
            case = entry.split(":", 1)[0]
            if case in TRACE_CASES:
                cases[case] = cases.get(case, 0) + 1
    layers = layer_metrics(tracer.spans, tracer.graphs_built, cases)
    layers["trace.overhead_s"] = wall_traced - wall_plain
    layers["trace.wall_s"] = wall_traced
    return {"rows": rows, "wall_s": wall_traced, "rounds": rounds, "layers": layers,
            "mismatches": mismatches, "spans": tracer.spans}


def main() -> None:
    args = _parse()
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    t0 = time.perf_counter()
    import oddminorkit.cli  # noqa: F401  (what `oddminor ...` pays at start)
    t1 = time.perf_counter()
    import workloads as wl
    first = wl.build_round(args.workload, args.seed, 0)
    t2 = time.perf_counter()
    setup = {"ready": time.monotonic(), "cli.import_s": t1 - t0, "generators.build_s": t2 - t1}
    setup["scale"] = CAL_REF_S / statistics.median(calibration_unit() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return

    recorded = wl.load_recorded()
    out = (_traced if args.trace else _measure)(wl, first, args, recorded)
    out["setup"] = setup
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["deadline_s"] = wl.DEADLINE_S[args.workload]
    results = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(out, fh)
    out.pop("spans", None)
    out["results_file"] = os.path.join("perfbench", "results", name)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
