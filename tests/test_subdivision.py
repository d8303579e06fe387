"""Bipartite join-subdivision detection and restriction."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from oddminorkit import (
    Graph,
    SubdivisionEmbedding,
    chorded_subdivision,
    complete_bipartite,
    find_bipartite_join_subdivision,
    join_pattern_edges,
    join_subdivision,
    restrict_subdivision,
    verify_subdivision,
)
from oddminorkit.graph import SizeLimitError
from oddminorkit.subdivision import _paths_between

import oracles


def brute_has_bipartite_subdivision(G, s, t) -> bool:
    """Independent exhaustive search over branch injections and path systems."""
    pattern = join_pattern_edges(s, t)
    H = oracles.nxg(G)
    verts = list(G.vertices())

    def extend(branch, idx, interior, edges):
        if idx == len(pattern):
            union = nx.Graph(list(edges))
            return nx.is_bipartite(union)
        u, v = pattern[idx]
        a, b = branch[u], branch[v]
        for p in nx.all_simple_paths(H, a, b):
            inner = set(p[1:-1])
            if inner & interior or inner & set(branch.values()):
                continue
            if extend(branch, idx + 1, interior | inner,
                      edges | {tuple(sorted(e)) for e in zip(p, p[1:])}):
                return True
        return False

    for combo in itertools.permutations(verts, s + t):
        branch = dict(enumerate(combo))
        # stable-set branch vertices are interchangeable; cut duplicates
        if t > 1 and list(combo[s:]) != sorted(combo[s:]):
            continue
        if extend(branch, 0, set(), frozenset()):
            return True
    return False


def test_pattern_edges():
    assert set(join_pattern_edges(2, 1)) == {(0, 1), (0, 2), (1, 2)}
    assert len(join_pattern_edges(4, 3)) == 6 + 12
    assert join_pattern_edges(1, 0) == []


def test_generated_subdivisions_round_trip():
    for s, t in [(2, 1), (2, 2), (3, 2), (4, 3)]:
        G, emb = join_subdivision(s, t, 1)
        ok, reason = verify_subdivision(G, emb, require_bipartite=True)
        assert ok, reason
        found = find_bipartite_join_subdivision(G, s, t)
        assert found is not None
        ok, reason = verify_subdivision(G, found, require_bipartite=True)
        assert ok, reason


def test_known_positives():
    C6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    emb = find_bipartite_join_subdivision(C6, 2, 1)
    assert emb is not None
    K33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    emb = find_bipartite_join_subdivision(K33, 2, 2)
    assert emb is not None
    ok, reason = verify_subdivision(K33, emb, require_bipartite=True)
    assert ok, reason


def test_known_negatives():
    C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert find_bipartite_join_subdivision(C5, 2, 1) is None
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert find_bipartite_join_subdivision(star, 2, 1) is None
    # every branch choice needs at least 6 interior vertices; 5 are left
    assert find_bipartite_join_subdivision(complete_bipartite(6, 6), 4, 3) is None


@given(st.integers(0, 60))
def test_detector_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.35]
    G = Graph(n, edges)
    s, t = rng.choice([(2, 1), (2, 2)])
    got = find_bipartite_join_subdivision(G, s, t)
    assert (got is not None) == brute_has_bipartite_subdivision(G, s, t)
    if got is not None:
        ok, reason = verify_subdivision(G, got, require_bipartite=True)
        assert ok, reason


@given(st.integers(0, 200))
def test_paths_between_yields_the_simple_paths_shortest_first(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.45])
    a, b = rng.sample(range(n), 2)
    # ends may be forbidden too, as the branch vertices are when routing
    forbidden = sum(1 << v for v in range(n) if rng.random() < 0.25)
    parity = rng.choice([None, 0, 1])
    got = [p.vertices for p in _paths_between(G, a, b, forbidden, parity)]
    want = [tuple(p) for p in oracles.all_simple_paths_between(G, a, b)
            if not any(forbidden >> v & 1 for v in p[1:-1])
            and (parity is None or (len(p) - 1) % 2 == parity)]
    assert sorted(got) == sorted(want)
    lengths = [len(p) - 1 for p in got]
    assert lengths == sorted(lengths)


def test_interior_bound_keeps_the_search_exact():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(4, 9)
        p = rng.uniform(0.25, 0.6)
        G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < p])
        s, t = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2)])
        got = find_bipartite_join_subdivision(G, s, t)
        if got is not None:
            ok, reason = verify_subdivision(G, got, require_bipartite=True)
            assert ok, reason
        elif n <= 7:  # from n = 8 on the brute-force oracle is too slow
            assert not brute_has_bipartite_subdivision(G, s, t)


@given(st.integers(0, 200))
def test_isolated_vertices_leave_the_search_unchanged(seed):
    # the host renumbered v -> 2v, the odd ids isolated: the embedding found
    # is the one found before, renumbered
    rng = random.Random(seed)
    n = rng.randint(0, 10)
    G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.45])
    s, t = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2)])
    want = find_bipartite_join_subdivision(G, s, t, limit=n)
    got = find_bipartite_join_subdivision(oracles.spread(G), s, t, limit=2 * n)
    assert got == oracles.spread_output(want)


@given(st.integers(0, 80))
def test_restrict_then_verify(seed):
    rng = random.Random(seed)
    s, t = rng.choice([(2, 2), (3, 2), (4, 3)])
    counts = {tuple(e): rng.choice((1, 3))
              for e in map(tuple, map(sorted, join_pattern_edges(s, t)))}
    G, emb = join_subdivision(s, t, counts)
    X = set(rng.sample(range(G.n), rng.randint(0, 4)))
    red = restrict_subdivision(emb, X)
    assert red.s >= emb.s - len(X)
    assert red.s + red.t >= emb.s + emb.t - len(X)
    assert not red.union_vertices() & X
    ok, reason = verify_subdivision(G, red, require_bipartite=True)
    assert ok, reason


@given(st.integers(0, 300))
def test_host_coloring_matches_networkx(seed):
    # per-edge counts 0-3 give bipartite and non-bipartite unions; restricting
    # one may split it into several components
    rng = random.Random(seed)
    s, t = rng.randint(1, 4), rng.randint(0, 3)
    counts = {tuple(sorted(e)): rng.randint(0, 3) for e in join_pattern_edges(s, t)}
    _, joined = join_subdivision(s, t, counts)
    _, chorded, _ = chorded_subdivision(s, t, rng.randint(0, (s + t) // 2), seed)
    embs = [joined, chorded]
    for emb in (joined, chorded):
        union = sorted(emb.union_vertices())
        X = rng.sample(union, min(len(union), rng.randint(0, 3)))
        embs.append(restrict_subdivision(emb, X))
    for emb in embs:
        want = oracles.union_two_coloring(emb)
        assert emb.host_coloring == want
        # cached: the same object, not a second search
        assert emb.host_coloring is emb.__dict__["host_coloring"]
    assert chorded.host_coloring is not None


def test_verify_rejects_a_union_with_an_odd_cycle():
    # every linking path of K_3 + I_1 with 2 subdivision vertices has length
    # 3, so the clique's triangle becomes a 9-cycle
    G, emb = join_subdivision(3, 1, 2)
    assert verify_subdivision(G, emb, require_bipartite=False) == (True, "ok")
    assert verify_subdivision(G, emb, require_bipartite=True) == (False, "union-not-bipartite")


def test_verify_reads_no_coloring_of_an_embedding_it_refuses():
    # a branch id far out of range is refused before the union is 2-colored,
    # so no Graph is sized by it
    G, emb = join_subdivision(2, 1, 1)
    bad = SubdivisionEmbedding(2, 1, {**emb.branch, 2: 10**9}, emb.linking)
    assert verify_subdivision(G, bad, require_bipartite=True) == (False, "branch-out-of-range")
    assert "host_coloring" not in bad.__dict__


def test_restrict_with_empty_x_is_identity():
    G, emb = join_subdivision(3, 2, 1)
    red = restrict_subdivision(emb, set())
    assert red == emb


def test_size_guard():
    G = Graph(31, [])
    with pytest.raises(SizeLimitError):
        find_bipartite_join_subdivision(G, 2, 1)
    assert find_bipartite_join_subdivision(G, 2, 1, limit=31) is None


def test_size_guard_message_names_layer_size_and_limit(monkeypatch):
    monkeypatch.delenv("ODDMINOR_LIMIT", raising=False)
    with pytest.raises(SizeLimitError) as e:
        find_bipartite_join_subdivision(Graph(31), 2, 1)
    assert str(e.value) == "find_bipartite_join_subdivision: graph has 31 > 30 vertices"
