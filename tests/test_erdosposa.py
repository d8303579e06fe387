"""Odd S-path and parity-breaking C-path packing/covering dichotomies."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from oddminorkit import (
    Graph,
    PackingCoverResult,
    Path,
    chorded_subdivision,
    complete,
    find_odd_s_path,
    is_parity_breaking,
    join_subdivision,
    odd_s_paths_dichotomy,
    parity_breaking_dichotomy,
)
from oddminorkit.erdosposa import _PathEngine
from oddminorkit.graph import SizeLimitError

import oracles


def test_result_type_is_exclusive():
    with pytest.raises(ValueError):
        PackingCoverResult()
    with pytest.raises(ValueError):
        PackingCoverResult(packing=(), cover=frozenset())
    assert PackingCoverResult(packing=(Path((0, 1)),)).is_packing
    assert not PackingCoverResult(cover=frozenset({3})).is_packing


@given(st.integers(0, 250))
def test_find_odd_s_path_matches_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.35])
    S = set(rng.sample(range(n), rng.randint(2, min(4, n))))
    got = find_odd_s_path(G, S)
    expected = oracles.all_odd_s_paths(G, S)
    assert (got is not None) == bool(expected)
    if got is not None:
        a, b = got.ends
        assert got.is_path_of(G) and a != b
        assert a in S and b in S and got.length % 2 == 1


@given(st.integers(0, 200))
def test_dichotomy_both_branches_reverify(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 11)
    G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.35])
    S = set(rng.sample(range(n), rng.randint(2, min(5, n))))
    l = rng.randint(1, 3)
    res = odd_s_paths_dichotomy(G, S, l)
    best = oracles.max_odd_path_packing(G, S)
    if res.is_packing:
        assert len(res.packing) == l <= best
        used: set = set()
        for p in res.packing:
            assert p.is_path_of(G) and p.length % 2 == 1
            a, b = p.ends
            assert a in S and b in S and a != b
            assert not used & set(p.vertices)
            used |= set(p.vertices)
    else:
        assert best < l
        assert len(res.cover) <= 2 * l - 2
        assert oracles.cover_kills_all(G, S, res.cover)


@given(st.integers(0, 400))
def test_labelled_engine_matches_brute_force(seed):
    """Every path u...v (u < v in S) with |E| + lab(u) + lab(v) odd, its
    internal vertices anywhere, against networkx path enumeration."""
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.4])
    S = set(rng.sample(range(n), rng.randint(2, min(5, n))))
    ones = {v for v in S if rng.random() < 0.5}
    expected = sorted(
        tuple(p)
        for a, b in itertools.combinations(sorted(S), 2)
        for p in oracles.all_simple_paths_between(G, a, b)
        if (len(p) - 1 + (a in ones) + (b in ones)) % 2 == 1
    )
    got = sorted(p.vertices for p in _PathEngine(G, S, ones).paths(0))
    assert got == expected


@given(st.integers(0, 150))
def test_cover_is_the_first_in_size_then_lex_order(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.45])
    S = set(rng.sample(range(n), rng.randint(2, min(5, n))))
    l = rng.randint(1, 3)
    res = odd_s_paths_dichotomy(G, S, l)
    if res.is_packing:
        return
    first = next(
        frozenset(X)
        for size in range(2 * l - 1)
        for X in itertools.combinations(range(n), size)
        if oracles.cover_kills_all(G, S, X)
    )
    assert res.cover == first


@given(st.integers(0, 200))
def test_isolated_vertices_leave_the_dichotomy_unchanged(seed):
    # the host renumbered v -> 2v, the odd ids isolated: the packing or cover
    # found is the one found before, renumbered
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    G = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.35])
    S = rng.sample(range(n), rng.randint(2, min(5, n)))
    l = rng.randint(1, 3)
    want = odd_s_paths_dichotomy(G, S, l, limit=n)
    got = odd_s_paths_dichotomy(oracles.spread(G), [2 * v for v in S], l, limit=2 * n)
    assert got == oracles.spread_output(want)


@pytest.mark.parametrize("bad", [-1, -5, 4])
def test_s_out_of_range_is_rejected(bad):
    with pytest.raises(ValueError):
        odd_s_paths_dichotomy(complete(4), {0, 1, bad}, 1)


def test_dichotomy_is_deterministic():
    G = Graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)
                  if (i + j) % 3])
    runs = [odd_s_paths_dichotomy(G, {0, 1, 2, 3}, 2) for _ in range(3)]
    assert all(r.packing == runs[0].packing and r.cover == runs[0].cover
               for r in runs)


def test_size_guard(monkeypatch):
    monkeypatch.delenv("ODDMINOR_LIMIT", raising=False)
    G = Graph(21, [])
    with pytest.raises(SizeLimitError):
        odd_s_paths_dichotomy(G, {0, 1}, 1)
    res = odd_s_paths_dichotomy(G, {0, 1}, 1, limit=21)
    assert not res.is_packing and res.cover == frozenset()
    # the search that checks a cover has the dichotomy's guard, so a cover
    # written under a guard verifies under the same guard
    assert find_odd_s_path(Graph(20, []), {0, 1}) is None
    with pytest.raises(SizeLimitError) as e:
        find_odd_s_path(G, {0, 1})
    assert str(e.value) == "find_odd_s_path: graph has 21 > 20 vertices"
    monkeypatch.setenv("ODDMINOR_LIMIT", "21")
    assert find_odd_s_path(G, {0, 1}) is None


def all_parity_breaking_c_paths(G, emb):
    beta = emb.host_coloring
    C = sorted(emb.C)
    out = []
    for i in range(len(C)):
        for j in range(i + 1, len(C)):
            for p in oracles.all_simple_paths_between(G, C[i], C[j]):
                q = Path(tuple(p))
                if is_parity_breaking(q, beta):
                    out.append(q)
    return out


@given(st.integers(0, 40))
def test_parity_breaking_dichotomy_on_chorded_instances(seed):
    rng = random.Random(seed)
    num_chords = rng.randint(0, 1)
    G, emb, chords = chorded_subdivision(2, 1, num_chords, seed)
    l = rng.randint(1, 2)
    res = parity_breaking_dichotomy(G, emb, l, limit=G.n)
    beta = emb.host_coloring
    if res.is_packing:
        assert len(res.packing) == l
        used: set = set()
        for p in res.packing:
            assert p.is_path_of(G)
            assert is_parity_breaking(p, beta)
            assert p.ends[0] in emb.C and p.ends[1] in emb.C
            assert not used & set(p.vertices)
            used |= set(p.vertices)
    else:
        assert len(res.cover) <= 2 * l - 2
        X = set(res.cover)
        survivors = [
            p for p in all_parity_breaking_c_paths(G, emb)
            if not set(p.vertices) & X
        ]
        assert not survivors
        # and the packing side was genuinely infeasible
        assert num_chords < l


def test_plain_subdivision_has_no_parity_breaking_paths():
    G, emb = join_subdivision(2, 2, 1)
    res = parity_breaking_dichotomy(G, emb, 1, limit=G.n)
    assert not res.is_packing and res.cover == frozenset()


def test_one_subdivided_join_needs_explicit_limit():
    G, emb = join_subdivision(4, 3, 1)  # 25 vertices
    with pytest.raises(SizeLimitError):
        parity_breaking_dichotomy(G, emb, 2)
    res = parity_breaking_dichotomy(G, emb, 2, limit=40)
    assert not res.is_packing and res.cover == frozenset()


def test_size_guard_message_names_layer_size_and_limit(monkeypatch):
    monkeypatch.delenv("ODDMINOR_LIMIT", raising=False)
    with pytest.raises(SizeLimitError) as e:
        odd_s_paths_dichotomy(Graph(21), {0, 1}, 1)
    assert str(e.value) == "odd_s_paths_dichotomy: graph has 21 > 20 vertices"
    G, emb = join_subdivision(4, 3, 1)  # 25 vertices
    with pytest.raises(SizeLimitError) as e:
        parity_breaking_dichotomy(G, emb, 2)
    assert str(e.value) == "parity_breaking_dichotomy: graph has 25 > 20 vertices"
