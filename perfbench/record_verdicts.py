"""Record the verdicts of the default seed's first rounds to verdicts.json.

    PYTHONPATH=src python3 perfbench/record_verdicts.py

The benchmark judges the verdicts that no structural fact fixes (absent
odd-K_4 and signed minors, packing or cover, colorings of non-bipartite
hosts) against this list when it runs with the default seed. Re-record only
when a workload's inputs change, and check the diff: a verdict that changes
for the same input is a bug in the library or in the benchmark.
"""

import json
import sys

import workloads as wl

ROUNDS = {"detect": 50, "decompose": 8, "color": 3}


def main() -> None:
    recorded = {}
    for workload, rounds in ROUNDS.items():
        recorded[workload] = []
        for rnd in range(rounds):
            verdicts = []
            for inst in wl.build_round(workload, wl.VERDICT_SEED, rnd):
                res = wl.run_op(inst)
                ok = res.failure is None
                verdicts.append(res.verdict if ok else None)
            recorded[workload].append(verdicts)
            print(f"{workload} round {rnd}: {sum(v is None for v in verdicts)} failed",
                  file=sys.stderr)
    with open(wl.VERDICTS_FILE, "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(workload)}: [\n"
            + ",\n".join(json.dumps(r, separators=(",", ":")) for r in rounds) + "\n]"
            for workload, rounds in recorded.items()) + "\n}\n")


if __name__ == "__main__":
    main()
