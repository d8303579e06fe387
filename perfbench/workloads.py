"""Seeded inputs and the timed operation for each benchmark workload.

A workload is an endless sequence of *rounds*. Every round of a workload has
the same composition (the same generator cells in the same order); only the
per-instance seeds differ, and they are derived from the run seed and the
round number alone. Runs therefore measure whole rounds, so the mix of cheap
and expensive cells is identical in every run whatever the seed.

An *op* is one instance solved, certified, round-tripped through
serialize_certificate/parse_certificate and checked by verify_certificate.
Verdicts are judged afterwards, outside the timed region, by `judge`.

The library is always reached through the package namespace (``okit.name``)
so that the traced run can substitute its wrappers for the public functions.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

import oddminorkit as okit

WORKLOADS = ("detect", "decompose", "color")

# Per-op deadline, two to eight times the slowest verified op of the workload
# measured on the seed code (detect ~1 s, decompose ~6 s, color ~0.9 s).
# It only cuts searches that are not about to finish, such as
# color_defective(K_{6,6}, 3).
DEADLINE_S = {"detect": 8.0, "decompose": 15.0, "color": 2.0}

# The t=3 one-chord structure_theorem op takes 2.3 s at 35 vertices and 7 s at
# 55; its instance is redrawn until it has the generator's middle size, so that
# a run's few of them do not decide its throughput.
HEAVY_N = 45

VERDICTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verdicts.json")
VERDICT_SEED = 0


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op that passed DEADLINE_S.

    A BaseException, so library code that catches Exception cannot swallow it.
    """


@dataclass
class Instance:
    workload: str
    round: int
    index: int
    generator: str
    params: dict
    seed: int
    G: okit.Graph
    task: dict
    # verdict fixed by how the input was built, or None if only the recorded
    # verdict list can judge it
    expected: Optional[str] = None
    expected_why: str = ""

    @property
    def op_id(self) -> str:
        return f"{self.round}.{self.index}"


@dataclass
class OpResult:
    verdict: str  # present/absent, packing/cover, decomposition/odd-minor, colored/odd-minor
    certificate: Optional[str]  # serialized certificate text, if one was produced
    seconds: float
    failure: Optional[str] = None  # deadline, guard, exception, wrong-verdict, rejected-certificate
    detail: str = ""
    trace: list = field(default_factory=list)


def _rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}")


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------


def random_bipartite(a: int, b: int, p: float, seed: int) -> okit.Graph:
    rng = random.Random(seed)
    return okit.Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)
                              if rng.random() < p])


def one_subdivision(G: okit.Graph) -> okit.Graph:
    edges = []
    nxt = G.n
    for u, v in G.edges():
        edges += [(u, nxt), (nxt, v)]
        nxt += 1
    return okit.Graph(nxt, edges)


def _detect_round(seed: int, rnd: int) -> list[Instance]:
    """4 searches x n x p in 0.2..0.6 and 6 fixed ops: 51 ops, both verdicts.

    The K_3 searches use n in 8..10, the odd K_4 search n in 8..9 and the
    signed K_4 search n = 8: beyond these sizes single searches take 1-8 s or
    more now and then, and a run cannot average such a tail (README.md).
    """
    rng = _rng("detect", seed, rnd)
    out = []
    for kind, t, sizes in (("odd-clique", 3, range(8, 11)), ("odd-clique", 4, (8, 9)),
                           ("signed", 3, range(8, 11)), ("signed", 4, (8,))):
        for n in sizes:
            for p in (0.2, 0.3, 0.4, 0.5, 0.6):
                s = rng.randrange(2**31)
                G = okit.random_graph(n, p, s)
                task = {"kind": kind, "t": t}
                expected, why = None, ""
                if kind == "signed":
                    task["sigma"] = [list(e) for e in okit.complete(t).edges()
                                     if rng.random() < 0.5]
                elif t == 3:
                    # criterion 01: odd K_3 minor iff not bipartite
                    expected = "absent" if okit.bipartition(G) is not None else "present"
                    why = "odd K_3 iff non-bipartite"
                out.append(Instance("detect", rnd, len(out), "random_graph",
                                    {"n": n, "p": p}, s, G, task, expected, why))
    # Acceptance criterion 02's instance, an exhaustive search of a fixed
    # graph: a tenth of the round, slower than all but ~5 % of the seeded ops,
    # so op_p90_s falls on it and not on whichever seeded op lands there.
    K = okit.complete_bipartite(3, 4)
    for _ in range(6):
        out.append(Instance("detect", rnd, len(out), "complete_bipartite", {"a": 3, "b": 4},
                            0, K, {"kind": "odd-clique", "t": 3}, "absent",
                            "K_{m,n} has no odd K_3"))
    return out


def _decompose_round(seed: int, rnd: int) -> list[Instance]:
    """31 structure_theorem ops on chorded subdivisions and 270 odd S-path
    dichotomies. The one t=3, c=1 instance takes most of the round's time;
    the 24 t=3, c=2 ones are most of the rest of its slowest tenth."""
    rng = _rng("decompose", seed, rnd)
    out = []
    for t, c in [(2, 0), (2, 1), (3, 0)] * 2 + [(3, 2)] * 24 + [(3, 1)]:
        s = rng.randrange(2**31)
        G, _, _ = okit.chorded_subdivision(2 * t - 2, t, c, s)
        while (t, c) == (3, 1) and G.n != HEAVY_N:
            s = rng.randrange(2**31)
            G, _, _ = okit.chorded_subdivision(2 * t - 2, t, c, s)
        # the generator fixes the answer: t-1 chords give an odd K_t minor
        expected = "odd-minor" if c == t - 1 else "decomposition"
        out.append(Instance("decompose", rnd, len(out), "chorded_subdivision",
                            {"s": 2 * t - 2, "t": t, "chords": c}, s, G,
                            {"kind": "structure", "t": t}, expected, "chord count"))
    # shaped like acceptance criterion 03, three ops per (n, p, l), without its
    # p = 0.5 graphs: at n = 11-12 about one in a hundred of those takes 1-16 s
    for n in range(3, 13):
        for p in (0.15, 0.25, 0.35):
            for l in (1, 2, 3) * 3:
                s = rng.randrange(2**31)
                S = sorted(rng.sample(range(n), rng.randint(2, min(6, n))))
                out.append(Instance("decompose", rnd, len(out), "random_graph",
                                    {"n": n, "p": p}, s, okit.random_graph(n, p, s),
                                    {"kind": "ep", "S": S, "l": l}))
    return out


def _color_hosts(rng: random.Random, t: int) -> list[tuple[str, dict, int, okit.Graph, bool]]:
    """(generator, params, seed, G, bipartite) for one (t, mode) cell: 38 hosts."""
    hosts = []

    def add(gen, params, s, G, bip):
        hosts.append((gen, params, s, G, bip))

    # Hosts with n <= 10 get the default odd-K_t precheck, which exhausts on
    # bipartite graphs; the denser ones stay small so it takes < ~1 s.
    for a, b, p in ((3, 5, 0.25), (4, 6, 0.25), (5, 6, 0.25), (6, 6, 0.25),
                    (3, 4, 0.5), (3, 5, 0.5), (4, 4, 0.5), (4, 5, 0.5),
                    (3, 4, 0.8), (3, 5, 0.8)):
        s = rng.randrange(2**31)
        add("random_bipartite", {"a": a, "b": b, "p": p}, s,
            random_bipartite(a, b, p, s), True)
    # the dense end of the bipartite range; at t=3 its subdivision search
    # does not finish, which the benchmark reports as deadline failures
    add("complete_bipartite", {"a": 6, "b": 6}, 0, okit.complete_bipartite(6, 6), True)
    for k in (3, 4, 5, 6):
        s = rng.randrange(2**31)
        add("one_subdivision(random_graph)", {"n": k, "p": 0.6}, s,
            one_subdivision(okit.random_graph(k, 0.6, s)), True)
    for n, p in ((11, 0.2), (12, 0.15), (13, 0.1), (14, 0.2),
                 (15, 0.15), (16, 0.1), (12, 0.2), (15, 0.1)):
        s = rng.randrange(2**31)
        add("random_graph", {"n": n, "p": p}, s, okit.random_graph(n, p, s), False)
    G, _ = okit.join_subdivision(2 * t - 2, t, 1)
    add("join_subdivision", {"s": 2 * t - 2, "t": t, "count": 1}, 0, G, True)
    # Fixed hosts anchor the percentiles, so that op_p50_s and op_p90_s fall
    # on ops whose input does not change with the seed: the even cycle (about
    # as slow as the seeded hosts' median) is a quarter of the round, and the
    # ~130-vertex host that builds thousands of induced Graphs is, with the
    # two K_{6,6} ops, the round's slowest eighth.
    for _ in range(9):
        add("cycle", {"n": 12}, 0, okit.cycle(12), True)
    G, _ = okit.join_subdivision(6, 4, 3)
    for _ in range(4):
        add("join_subdivision", {"s": 6, "t": 4, "count": 3}, 0, G, True)
    s = rng.randrange(2**31)
    G, _, _ = okit.chorded_subdivision(2 * t - 2, t, 1, s)
    add("chorded_subdivision", {"s": 2 * t - 2, "t": t, "chords": 1}, s, G, False)
    return hosts


def _color_round(seed: int, rnd: int) -> list[Instance]:
    """t in {3, 4} x {defective, clustered} x 38 hosts: 152 ops."""
    rng = _rng("color", seed, rnd)
    out = []
    for t in (3, 4):
        for mode in ("defective", "clustered"):
            for gen, params, s, G, bip in _color_hosts(rng, t):
                # a bipartite host has no odd K_3 minor, hence no odd K_t minor
                expected = "colored" if bip else None
                out.append(Instance("color", rnd, len(out), gen, params, s, G,
                                    {"kind": mode, "t": t}, expected,
                                    "bipartite host" if bip else ""))
    return out


_ROUNDS = {"detect": _detect_round, "decompose": _decompose_round, "color": _color_round}


def build_round(workload: str, seed: int, rnd: int) -> list[Instance]:
    return _ROUNDS[workload](seed, rnd)


# ---------------------------------------------------------------------------
# The op
# ---------------------------------------------------------------------------


def _certify(inst: Instance):
    """Solve one instance; return (verdict, certificate or None, trace)."""
    G, task, kind = inst.G, inst.task, inst.task["kind"]
    trace: list = []
    if kind == "odd-clique":
        model = okit.find_odd_clique_minor(G, task["t"])
        if model is None:
            return "absent", None, trace
        return "present", okit.certify_odd_minor_model(G, okit.complete(task["t"]), model), trace
    if kind == "signed":
        H = okit.complete(task["t"])
        sigma = [tuple(e) for e in task["sigma"]]
        model = okit.find_signed_minor(G, H, sigma)
        if model is None:
            return "absent", None, trace
        return "present", okit.certify_signed_minor_model(G, H, sigma, model), trace
    if kind == "structure":
        # `oddminor decompose --limit N` with the guard raised to the host's order
        out = okit.structure_theorem(G, task["t"], limit=G.n)
        if isinstance(out, okit.Decomposition):
            return "decomposition", okit.certify_decomposition(G, task["t"], out), trace
        return "odd-minor", okit.certify_odd_minor_model(G, okit.complete(task["t"]), out), trace
    if kind == "ep":
        res = okit.odd_s_paths_dichotomy(G, task["S"], task["l"])
        if res.is_packing:
            return "packing", okit.certify_packing(G, task["S"], task["l"], res.packing), trace
        return "cover", okit.certify_cover(G, task["S"], task["l"], res.cover), trace
    t = task["t"]
    try:
        if kind == "defective":
            a, value = okit.color_defective(G, t, trace=trace)
            bound = 6 * t - 9
        else:
            a, value = okit.color_clustered(G, t, trace=trace)
            bound = 10 * t - 13
    except okit.OddMinorFoundError as e:
        return "odd-minor", okit.certify_odd_minor_model(G, okit.complete(t), e.model), trace
    return "colored", okit.certify_coloring(G, a, kind, t, bound, value), trace


def _on_alarm(signum, frame):
    raise OpDeadline()


def run_op(inst: Instance, deadline: Optional[float] = None) -> OpResult:
    """Time one op to a verified verdict, abandoning it after `deadline` s
    (default: the workload's DEADLINE_S)."""
    if deadline is None:
        deadline = DEADLINE_S[inst.workload]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            verdict, cert, trace = _certify(inst)
            text = None
            if cert is not None:
                text = okit.serialize_certificate(cert)
                ok, reason = okit.verify_certificate(inst.G, okit.parse_certificate(text))
            else:
                ok, reason = True, ""
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpDeadline:
        return OpResult("none", None, time.perf_counter() - t0, "deadline",
                        f"passed {deadline:g} s")
    except okit.SizeLimitError as e:
        return OpResult("none", None, time.perf_counter() - t0, "guard", str(e))
    except Exception as e:  # an op that errors is a failed op, never a crash
        return OpResult("none", None, time.perf_counter() - t0, "exception",
                        f"{type(e).__name__}: {e}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - t0
    if not ok:
        return OpResult(verdict, text, seconds, "rejected-certificate", reason, trace)
    return OpResult(verdict, text, seconds, None, "", trace)


# ---------------------------------------------------------------------------
# Correctness gate (outside the timed region)
# ---------------------------------------------------------------------------


def load_recorded() -> dict:
    with open(VERDICTS_FILE) as fh:
        return json.load(fh)


def recorded_verdict(recorded: dict, inst: Instance, seed: int) -> Optional[str]:
    if seed != VERDICT_SEED:
        return None
    rounds = recorded.get(inst.workload, [])
    if inst.round >= len(rounds):
        return None
    return rounds[inst.round][inst.index]


def judge(inst: Instance, res: OpResult, recorded: dict, seed: int) -> str:
    """Mark a wrong verdict as a failure; return how the verdict was checked
    ("structural", "recorded", "certificate" or "unchecked")."""
    if res.failure is not None:
        return "failed"
    if inst.expected is not None:
        want, how = inst.expected, "structural"
    else:
        want, how = recorded_verdict(recorded, inst, seed), "recorded"
    if want is None:
        # a present verdict is proved by its verified certificate
        return "unchecked" if res.certificate is None else "certificate"
    if res.verdict != want:
        res.failure = "wrong-verdict"
        res.detail = f"got {res.verdict}, expected {want} ({inst.expected_why or how})"
        return "failed"
    return how
