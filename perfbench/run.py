"""Time to a verified verdict: the oddminorkit benchmark.

    python3 perfbench/run.py                      # all workloads, untraced and traced
    python3 perfbench/run.py --workload detect --seed 3 --seconds 30 --trace 0

Each workload runs single-threaded in a fresh interpreter (worker.py). With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Per-op rows, failures
and (traced) spans are written to perfbench/results/. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("detect", "decompose", "color")
SETUP_SAMPLES = 6  # interpreter starts per untraced run; setup_s is their median
RUN_BUDGET_S = 170.0  # a run must end within 180 s


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
            deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic()
    timeout = None if math.isinf(deadline) else max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup"]["ready"] - launched
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _failures(rows: list[dict]) -> list[dict]:
    return [r for r in rows if r["failure"] is not None]


def _correct(out: dict) -> bool:
    bad = {"wrong-verdict", "rejected-certificate"}
    return not out.get("mismatches") and not any(r["failure"] in bad for r in out["rows"])


def untraced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    runs = [_worker(workload, seed, seconds, 0, True, deadline)
            for _ in range(SETUP_SAMPLES - 1)]
    out = _worker(workload, seed, seconds, 0, False, deadline)
    runs.append(out)
    rows = out["rows"]
    bad = _failures(rows)
    ok = [r for r in rows if r["failure"] is None]
    # A failed op misses any latency limit, so it counts as taking the
    # deadline; that is wall-clock time and is not scaled.
    lost = [max(r["seconds"], out["deadline_s"]) for r in bad]
    scaled = [r["scaled_s"] for r in ok] + lost
    raw = [r["seconds"] for r in ok] + lost
    between_ops = out["wall_s"] - sum(r["seconds"] for r in rows)
    scaled_wall = (sum(r["scaled_s"] for r in ok) + sum(r["seconds"] for r in bad)
                   + between_ops * out["scale"])
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] * r["setup"]["scale"] for r in runs), "s"),
        "op_p50_s": (_percentile(scaled, 0.5), "s"),
        "op_p90_s": (_percentile(scaled, 0.9), "s"),
        "ops_per_s": (len(ok) / scaled_wall, "1/s"),
        "verified_rate": (len(ok) / len(rows), "ratio"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    unscaled = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "op_p50_s": _percentile(raw, 0.5),
        "op_p90_s": _percentile(raw, 0.9),
        "ops_per_s": len(ok) / out["wall_s"],
    }
    return {"out": out, "metrics": metrics, "raw": unscaled, "failed": len(bad),
            "samples": {"setup_s": len(runs), "op": len(rows)}}


def traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    from tracing import unit_of

    out = _worker(workload, seed, seconds, 1, False, deadline)
    layers = dict(out["layers"])
    for name in ("generators.build_s", "cli.import_s"):
        layers[name] = out["setup"][name]
    metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    return {"out": out, "metrics": metrics, "failed": len(_failures(out["rows"])),
            "samples": {"op": len(out["rows"])}}


def _report(workload: str, seed: int, trace: int, r: dict) -> None:
    out, rows = r["out"], r["out"]["rows"]
    checks: dict[str, int] = {}
    for row in rows:
        checks[row["check"]] = checks.get(row["check"], 0) + 1
    print(f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"{out['rounds']} round(s), {len(rows)} ops, wall {out['wall_s']:.3f} s")
    if "scale" in out:
        print(f"  times scaled by the calibration unit (mean factor {out['scale']:.4g}, "
              f"{out['calibration_s']:.3g} s spent calibrating); raw values in brackets")
    raw = r.get("raw", {})
    for name, (value, unit) in r["metrics"].items():
        note = f"  [raw {raw[name]:.6g}]" if name in raw else ""
        if name == "setup_s":
            note += f"  (median of {r['samples']['setup_s']} interpreter starts)"
        elif name.startswith("op_p"):
            note += f"  (n={r['samples']['op']})"
        print(f"  {name:<56} {value:>14.6g} {unit}{note}")
    print(f"  {'fail_rate':<56} {r['failed'] / len(rows):>14.6g} ratio  "
          f"({r['failed']}/{len(rows)})")
    print("  verdict checks: " + ", ".join(f"{k} {v}" for k, v in sorted(checks.items())))
    for row in _failures(rows):
        print(f"  FAILED {workload} op {row['op']} {row['generator']}{row['params']} "
              f"seed={row['seed']} task={row['task']}: {row['failure']} ({row['detail']})")
    for mm in out.get("mismatches", []):
        print(f"  MISMATCH traced vs untraced: {mm}")
    print(f"  rows: {out['results_file']}")


def _summary(results: list[dict]) -> dict:
    return {
        "correct": all(_correct(r["out"]) for r in results),
        "attempted": sum(len(r["out"]["rows"]) for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u}
                    for r in results for k, (v, u) in r["metrics"].items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="the untraced run measures whole rounds until this many seconds pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics; 1: per-layer metrics (default: both)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "oddminorkit", "__init__.py")):
        print(f"error: no oddminorkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.trace is None else (args.trace,)
    if len(names) * len(modes) > 1:
        deadline = math.inf  # the 180 s limit is per single run
    results = []
    for name in names:
        for mode in modes:
            r = (traced if mode else untraced)(name, args.seed, args.seconds, deadline)
            _report(name, args.seed, mode, r)
            results.append(r)
    if len(results) == 1:
        print(json.dumps(_summary(results)))
    else:
        print(json.dumps({f"{n}/trace{m}": _summary([r])
                          for (n, m), r in zip(((n, m) for n in names for m in modes), results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
