"""Block-or-packing dichotomy, odd clique construction, structure theorem."""

import gc
import itertools
import random
import types

import pytest
from hypothesis import given, strategies as st

from oddminorkit import (
    Decomposition,
    Graph,
    HypothesisUnmetError,
    bipartition,
    block_or_packing,
    blocks,
    build_odd_clique_model,
    chorded_subdivision,
    complete,
    join_subdivision,
    odd_s_paths_dichotomy,
    random_graph,
    structure_theorem,
    verify_odd_minor_model,
)
from oddminorkit import erdosposa, structure, subdivision
from oddminorkit.graph import TwoColoring

import oracles


def Kt(t):
    return complete(t)


@given(st.integers(0, 60))
def test_build_odd_clique_model_on_generated_instances(seed):
    t = 2 + seed % 2
    G, emb, chords = chorded_subdivision(2 * t - 2, t, t - 1, seed)
    model = build_odd_clique_model(G, emb, chords)
    ok, reason = verify_odd_minor_model(G, Kt(t), model)
    assert ok, reason


@given(st.integers(0, 300))
def test_breaking_c_paths_match_networkx(seed):
    # the odd K_t's candidates: every path a...b (a < b in C) with its
    # interior outside C and |E| + lab(a) + lab(b) odd, lab(c) = [beta(c) = 1]
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.4])
    C = frozenset(rng.sample(range(n), rng.randint(2, min(5, n))))
    beta = TwoColoring({c: rng.choice((1, 2)) for c in C})
    expected = sorted(
        tuple(p)
        for a, b in itertools.combinations(sorted(C), 2)
        for p in oracles.all_simple_paths_between(G, a, b)
        if not set(p[1:-1]) & C
        and (len(p) - 1 + (beta(a) == 1) + (beta(b) == 1)) % 2 == 1
    )
    got = structure._breaking_c_paths(G, C, beta)
    assert [p.vertices for p in got] == expected


def test_build_rejects_bad_path_families():
    G, emb, chords = chorded_subdivision(4, 3, 2, seed=11)
    with pytest.raises(ValueError):
        build_odd_clique_model(G, emb, chords[:1])  # needs t-1 paths
    # an even union segment is not parity-breaking
    seg = emb.linking_path(0, 1)
    with pytest.raises(ValueError):
        build_odd_clique_model(G, emb, (chords[0], seg))
    with pytest.raises(ValueError):
        build_odd_clique_model(G, emb, (chords[0], chords[0]))


@given(st.integers(0, 30))
def test_block_or_packing_branches(seed):
    rng = random.Random(seed)
    t = 2 + seed % 2
    l = t - 1
    num_chords = rng.randint(0, l)
    G, emb, chords = chorded_subdivision(2 * t - 2, t, num_chords, seed)
    out = block_or_packing(G, emb, l, limit=G.n + 4 * G.m)
    if num_chords >= l:
        assert isinstance(out, tuple) and len(out) == l
    else:
        assert isinstance(out, Decomposition)
        assert len(out.X) <= 2 * l - 2
        assert bipartition(G.subgraph_on(out.U)) is not None
        assert out.reduced is not None
        assert out.reduced.s >= emb.s - len(out.X)
        assert out.retained_branch == out.reduced.C
        assert out.reduced.union_vertices() <= out.U


def test_block_or_packing_validates_input():
    G, emb = join_subdivision(2, 1, 1)
    with pytest.raises(ValueError):
        block_or_packing(G, emb, 2)  # pattern too small for l=2


@given(st.integers(0, 20))
def test_structure_theorem_dichotomy(seed):
    t = 2 + seed % 2
    num_chords = seed % t  # 0..t-1, so both branches occur
    G, emb, chords = chorded_subdivision(2 * t - 2, t, num_chords, seed)
    out = structure_theorem(G, t, emb=emb, limit=G.n + 4 * G.m)
    if num_chords >= t - 1:
        ok, reason = verify_odd_minor_model(G, Kt(t), out)
        assert ok, reason
    else:
        assert isinstance(out, Decomposition)
        assert len(out.X) <= 2 * t - 4
        assert len(out.U) >= t + 3
        assert len(out.retained_branch) >= (3 * t - 2) - len(out.X)


@given(st.integers(0, 20))
def test_isolated_vertices_leave_the_structure_theorem_unchanged(seed):
    # the host renumbered v -> 2v, the odd ids isolated: the decomposition or
    # odd K_2 model is the one returned before, renumbered
    G, _, _ = chorded_subdivision(2, 2, seed % 2, seed)
    want = structure_theorem(G, 2, limit=G.n)
    got = structure_theorem(oracles.spread(G), 2, limit=2 * G.n)
    assert got == oracles.spread_output(want)


def test_structure_theorem_on_the_45_vertex_one_chord_instance():
    # t = 3 with one chord: no 2 disjoint parity-breaking paths, but one
    # vertex meets them all, which rules out a packing of 2
    G, emb, chords = chorded_subdivision(4, 3, 1, seed=2)
    assert G.n == 45
    out = structure_theorem(G, 3, limit=G.n)
    assert isinstance(out, Decomposition)
    assert out.X == frozenset({2})
    Gx = G.subgraph_on(set(G.vertices()) - out.X)
    assert (out.U, True) in blocks(Gx)
    assert bipartition(G.subgraph_on(out.U)) is not None
    assert len(out.U) >= 3 + 3
    assert len(out.retained_branch) >= (3 * 3 - 2) - len(out.X)
    assert out.reduced.union_vertices() <= out.U


def test_structure_theorem_detects_embedding_itself():
    G, emb, chords = chorded_subdivision(2, 2, 1, seed=3)
    out = structure_theorem(G, 2, limit=G.n + 4 * G.m)
    ok, reason = verify_odd_minor_model(G, Kt(2), out)
    assert ok, reason


@pytest.mark.parametrize("chords, kind", [(2, "odd-minor"), (1, "decomposition")])
def test_structure_theorem_colors_its_union_once(monkeypatch, chords, kind):
    # the search verifies its embedding, then the dichotomy and the odd K_t
    # construction verify it again and read its coloring: one 2-coloring
    G, _, _ = chorded_subdivision(4, 3, chords, 7)
    calls = []

    def spy(H, alive=None):
        calls.append(alive)
        return bipartition(H, alive)

    monkeypatch.setattr(subdivision, "bipartition", spy)
    out = structure_theorem(G, 3, limit=G.n)
    assert isinstance(out, Decomposition) == (kind == "decomposition")
    assert len(calls) == 1


def test_structure_theorem_builds_one_path_engine(monkeypatch):
    # the packing runs on the path engine; the odd K_t's path family is
    # re-chosen from the router's pair enumerator, not from a second engine
    G, _, _ = chorded_subdivision(4, 3, 2, 7)
    init = erdosposa._PathEngine.__init__
    calls = []

    def spy(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(erdosposa._PathEngine, "__init__", spy)
    out = structure_theorem(G, 3, limit=G.n)
    assert not isinstance(out, Decomposition)
    assert len(calls) == 1


def test_structure_theorem_hypothesis_unmet():
    C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(HypothesisUnmetError):
        structure_theorem(C5, 2)
    with pytest.raises(ValueError):
        structure_theorem(C5, 1)


def test_search_closures_leave_no_reference_cycles():
    # each recursive closure drops its own name when its search ends, also
    # when _PathEngine.first abandons the path generator after one path, so
    # none of them waits in a cycle for the cyclic GC
    names = {"_PathEngine._paths_from.<locals>.extend",
             "find_bipartite_join_subdivision.<locals>.route",
             "_minimize_family.<locals>.rec"}
    G, _, _ = chorded_subdivision(4, 3, 2, seed=0)
    H = random_graph(10, 0.3, seed=1)
    gc.collect()
    flags, before = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        # routing and the odd clique's path family (both from the router's
        # pair enumerator) and the packing's paths
        assert not isinstance(structure_theorem(G, 3, limit=G.n + 4 * G.m), Decomposition)
        odd_s_paths_dichotomy(H, range(0, 10, 2), 2)
        gc.collect()
        cycles = {f.__qualname__ for f in gc.garbage[before:]
                  if isinstance(f, types.FunctionType)}
    finally:
        gc.set_debug(flags)
        del gc.garbage[before:]
    assert not cycles & names
