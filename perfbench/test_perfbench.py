"""Self-tests for the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oddminorkit as okit  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402


def _fingerprint(ops):
    return [(i.generator, i.params, i.seed, i.G.n, i.G.edges(), i.task, i.expected)
            for i in ops]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = _fingerprint(wl.build_round(workload, 7, 1))
    assert a == _fingerprint(wl.build_round(workload, 7, 1))
    assert a != _fingerprint(wl.build_round(workload, 8, 1))


def test_rounds_share_their_composition():
    for workload in wl.WORKLOADS:
        shape = [(i.generator, i.task.get("kind"), i.task.get("t"))
                 for i in wl.build_round(workload, 1, 0)]
        assert shape == [(i.generator, i.task.get("kind"), i.task.get("t"))
                         for i in wl.build_round(workload, 2, 5)]


def _first(workload, pred, seed=0):
    for rnd in range(20):
        for inst in wl.build_round(workload, seed, rnd):
            if pred(inst):
                return inst
    raise AssertionError("no such instance")


def test_verified_op_passes_the_gate():
    inst = _first("detect", lambda i: i.expected == "present")
    res = wl.run_op(inst)
    assert res.failure is None and res.certificate is not None
    assert wl.judge(inst, res, {}, 1) == "structural"


def test_injected_wrong_verdict_is_a_failure(monkeypatch):
    inst = _first("detect", lambda i: i.expected == "present")
    monkeypatch.setattr(okit, "find_odd_clique_minor", lambda G, t: None)
    res = wl.run_op(inst)
    assert wl.judge(inst, res, {}, 1) == "failed"
    assert res.failure == "wrong-verdict"
    assert not run._correct({"rows": [{"failure": res.failure}]})


def test_wrong_recorded_verdict_is_a_failure():
    inst = _first("decompose", lambda i: i.task["kind"] == "ep")
    res = wl.run_op(inst)
    other = "cover" if res.verdict == "packing" else "packing"
    recorded = {"decompose": [[other] * (inst.index + 1)]}
    assert wl.judge(inst, res, recorded, wl.VERDICT_SEED) == "failed"
    assert res.failure == "wrong-verdict"


def test_injected_rejected_certificate_is_a_failure(monkeypatch):
    inst = _first("color", lambda i: i.expected == "colored" and i.G.n <= 8)
    real = okit.certify_coloring

    def over_palette(G, a, mode, t, bound, value):
        cert = real(G, a, mode, t, bound, value)
        return okit.Certificate(cert.kind, dict(cert.payload, palette=bound + 1), cert.graph_hash)

    monkeypatch.setattr(okit, "certify_coloring", over_palette)
    res = wl.run_op(inst)
    assert res.failure == "rejected-certificate"
    assert res.detail == "palette-exceeds-bound"
    assert wl.judge(inst, res, {}, 1) == "failed"
    assert not run._correct({"rows": [{"failure": res.failure}]})


def test_op_past_its_deadline_is_abandoned():
    inst = _first("color", lambda i: i.generator == "complete_bipartite"
                  and i.task == {"kind": "defective", "t": 3})
    res = wl.run_op(inst, deadline=0.3)
    assert res.failure == "deadline"
    assert 0.3 <= res.seconds < 5


def test_tracer_wraps_every_binding_and_restores_them():
    import oddminorkit.certificates as certificates
    import oddminorkit.erdosposa as erdosposa
    import oddminorkit.structure as structure

    before = structure.parity_breaking_dichotomy
    tracer = Tracer()
    tracer.install()
    try:
        assert structure.parity_breaking_dichotomy is erdosposa.parity_breaking_dichotomy
        assert structure.parity_breaking_dichotomy is not before
        assert certificates.find_odd_s_path is erdosposa.find_odd_s_path
        assert okit.find_odd_s_path is erdosposa.find_odd_s_path
    finally:
        tracer.uninstall()
    assert structure.parity_breaking_dichotomy is before
    assert len({span for _, _, span, _ in LAYERS}) == 21


def test_self_times_are_nonnegative_and_fit_in_the_traced_wall():
    import time

    ops = [i for i in wl.build_round("color", 0, 0) if i.G.n <= 30
           and i.generator != "complete_bipartite"][:12]
    ops += wl.build_round("detect", 0, 0)[:20]
    ops += [i for i in wl.build_round("decompose", 0, 0) if i.G.n <= 20][:10]
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for inst in ops:
            tracer.op = inst.op_id
            wl.run_op(inst)
            tracer.op = None
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    own = self_times(tracer.spans)
    assert tracer.spans and min(own) >= 0.0
    assert sum(own) <= wall
    m = layer_metrics(tracer.spans, tracer.graphs_built, {})
    assert m["graph.graphs_built"] > 0
    assert all(v >= 0 for v in m.values())
    assert all(0 <= m[k] <= 1 for k in m if k.endswith("ratio"))


def test_recorded_verdicts_cover_every_workload():
    with open(wl.VERDICTS_FILE) as fh:
        recorded = json.load(fh)
    for workload in wl.WORKLOADS:
        rounds = recorded[workload]
        assert rounds and all(len(r) == len(wl.build_round(workload, wl.VERDICT_SEED, 0))
                              for r in rounds)
