"""Instance generators: shapes, determinism, chord parity guarantees."""

import pytest
from hypothesis import given, strategies as st

from oddminorkit import (
    chorded_subdivision,
    complete,
    complete_bipartite,
    cycle,
    is_parity_breaking,
    join_subdivision,
    random_graph,
    verify_subdivision,
)


def test_basic_families():
    assert complete(5).m == 10
    assert complete_bipartite(3, 4).m == 12
    assert cycle(6).m == 6
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete(-1)


def test_random_graph_deterministic():
    a = random_graph(12, 0.5, seed=42)
    b = random_graph(12, 0.5, seed=42)
    c = random_graph(12, 0.5, seed=43)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        random_graph(5, 1.5, 0)


def test_join_subdivision_counts():
    G, emb = join_subdivision(4, 3, 1)
    assert G.n == 7 + 18  # 6 clique + 12 join edges, one new vertex each
    ok, reason = verify_subdivision(G, emb, require_bipartite=True)
    assert ok, reason
    G2, emb2 = join_subdivision(2, 1, 0)
    assert G2.n == 3  # zero counts leave the pattern as-is
    ok, _ = verify_subdivision(G2, emb2, require_bipartite=False)
    assert ok
    with pytest.raises(ValueError):
        join_subdivision(2, 1, {(0, 1): 1})  # counts must cover all edges


@given(st.integers(0, 100))
def test_chorded_subdivision_contract(seed):
    t = 2 + seed % 2
    s = 2 * t - 2
    G, emb, chords = chorded_subdivision(s, t, t - 1, seed)
    ok, reason = verify_subdivision(G, emb, require_bipartite=True)
    assert ok, reason
    beta = emb.host_coloring
    used: set = set()
    assert len(chords) == t - 1
    for p in chords:
        assert p.is_path_of(G)
        assert p.ends[0] in emb.C and p.ends[1] in emb.C
        assert is_parity_breaking(p, beta)
        assert not used & set(p.vertices)
        used |= set(p.vertices)


def test_chorded_subdivision_deterministic():
    a = chorded_subdivision(4, 3, 2, seed=9)
    b = chorded_subdivision(4, 3, 2, seed=9)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
    with pytest.raises(ValueError):
        chorded_subdivision(2, 1, 2, seed=0)  # 2 chords need 4 branch vertices
