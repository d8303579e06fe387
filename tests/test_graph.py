"""Core graph structure: formats, bipartiteness, blocks, separations, paths."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from oddminorkit import (
    Graph,
    GraphError,
    Path,
    bipartition,
    blocks,
    disjoint_paths,
    find_odd_cycle,
    find_small_separation,
    parse_graph,
    to_dimacs,
    to_edgelist,
    to_graph6,
)
from oddminorkit.graph import block_cut_tree_is_tree

import oracles


@st.composite
def graphs(draw, max_n=9, min_n=0):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    return Graph(n, edges)


def test_basic_accessors():
    G = Graph(4, [(1, 0), (1, 2), (2, 3)])
    assert G.n == 4 and G.m == 3
    assert G.has_edge(0, 1) and G.has_edge(1, 0)
    assert not G.has_edge(0, 3)
    assert G.degree(1) == 2
    assert G.neighbors(2) == {1, 3}
    assert sorted(G.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_has_edge_range_checks_both_ends():
    G = Graph(3, [(1, 2)])
    # -1 must not alias vertex 2, and 3 must not raise
    assert not G.has_edge(-1, 1) and not G.has_edge(1, -1)
    assert not G.has_edge(3, 0) and not G.has_edge(0, 3)
    assert not Path((-1, 1)).is_path_of(G)
    assert Path((1, 2)).is_path_of(G)


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])


@given(graphs())
def test_graph6_round_trip_matches_networkx(G):
    s = to_graph6(G)
    back = parse_graph(s.encode(), "graph6")
    assert back == G
    H = nx.from_graph6_bytes(s.encode())
    assert set(H.nodes) == set(G.vertices())
    assert {tuple(sorted(e)) for e in H.edges} == set(G.edges())


@given(graphs())
def test_dimacs_and_edgelist_round_trip(G):
    assert parse_graph(to_dimacs(G).encode(), "dimacs") == G
    assert parse_graph(to_edgelist(G).encode(), "edgelist") == G


def test_graph6_long_form_rejected():
    big = nx.to_graph6_bytes(nx.empty_graph(80), header=False).strip()
    with pytest.raises(GraphError):
        parse_graph(big, "graph6")


@given(graphs())
def test_bipartition_agrees_with_networkx(G):
    beta = bipartition(G)
    assert (beta is not None) == oracles.bipartite_nx(G)
    if beta is not None:
        for u, v in G.edges():
            assert beta(u) != beta(v)


@given(graphs())
def test_odd_cycle_iff_not_bipartite(G):
    cyc = find_odd_cycle(G)
    assert (cyc is None) == oracles.bipartite_nx(G)
    if cyc is not None:
        vs = cyc.vertices
        assert len(vs) % 2 == 1 and len(vs) >= 3
        assert cyc.is_path_of(G) and G.has_edge(vs[-1], vs[0])


@given(graphs())
def test_blocks_match_networkx(G):
    assert set(blocks(G)) == oracles.blocks_nx(G)
    assert block_cut_tree_is_tree(G)


@given(graphs(max_n=7))
def test_components_partition(G):
    comps = G.components()
    seen = sorted(v for c in comps for v in c)
    assert seen == list(G.vertices())
    for c in comps:
        assert G.is_connected_subset(c)
        # maximality: no edge leaves the component
        for v in c:
            assert G.neighbors(v) <= set(c)


@given(graphs(max_n=7))
def test_induced_and_subgraph(G):
    vs = [v for v in G.vertices() if v % 2 == 0]
    sub, old_ids = G.induced(vs)
    assert sub.n == len(vs)
    for i, j in itertools.combinations(range(sub.n), 2):
        assert sub.has_edge(i, j) == G.has_edge(old_ids[i], old_ids[j])
    keep = G.subgraph_on(vs)
    assert keep.n == G.n
    for u, v in G.edges():
        assert keep.has_edge(u, v) == (u in vs and v in vs)


@given(graphs(max_n=8), st.data())
def test_disjoint_paths_match_menger_oracle(G, data):
    if G.n < 2:
        return
    A = data.draw(st.sets(st.sampled_from(range(G.n)), min_size=1, max_size=3))
    rest = sorted(set(G.vertices()) - A)
    if not rest:
        return
    B = data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=3))
    kmax = oracles.vertex_connectivity_between(G, A, B)
    for k in range(1, min(kmax, 3) + 1):
        paths = disjoint_paths(G, A, B, k)
        assert paths is not None and len(paths) >= k
        interior: set = set()
        for p in paths:
            assert p.is_path_of(G)
            assert p.vertices[0] in A and p.vertices[-1] in B
            inner = set(p.vertices) - set(A) - set(B)
            assert not inner & interior
            interior |= inner
    assert disjoint_paths(G, A, B, kmax + 1) is None


def test_disjoint_paths_cycle_arcs():
    C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    paths = disjoint_paths(C4, {0}, {2}, 2)
    assert paths is not None
    assert {p.vertices for p in paths} == {(0, 1, 2), (0, 3, 2)}


def test_disjoint_paths_star_blocked():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert disjoint_paths(star, {1}, {2}, 2) is None


def test_disjoint_paths_shared_terminals_become_trivial():
    G = Graph(4, [(0, 1), (0, 3)])
    paths = disjoint_paths(G, {0, 1}, {0, 3}, 1)
    assert paths == [Path((0,))]
    assert disjoint_paths(G, {0, 1}, {0, 3}, 2) is None


@given(graphs(max_n=7), st.data())
def test_small_separation_contract(G, data):
    if G.n == 0:
        return
    Z = data.draw(st.sets(st.sampled_from(range(G.n)), max_size=3))
    sep = find_small_separation(G, Z, 2)
    if sep is not None:
        assert sep.is_valid(G)
        assert sep.order <= 2
        assert any(v not in Z for v in sep.A - sep.B)
        assert any(v not in Z for v in sep.B - sep.A)
    else:
        # brute force: no cut of size <= 2 splits two non-Z vertices apart
        for cut in itertools.chain.from_iterable(
            itertools.combinations(range(G.n), k) for k in range(3)
        ):
            rest = G.subgraph_on(set(G.vertices()) - set(cut))
            comps = [
                c for c in rest.components()
                if any(v not in set(cut) and v not in Z for v in c)
            ]
            assert len(comps) < 2


@given(graphs(max_n=9), st.data())
def test_small_separation_matches_oracle(G, data):
    """Same minimum order and the same lexicographic tie-break as the
    one-Graph-per-cut enumeration."""
    Z = data.draw(st.sets(st.integers(0, max(G.n - 1, 0)), max_size=4))
    max_order = data.draw(st.integers(0, 3))
    sep = find_small_separation(G, Z, max_order)
    want = oracles.first_small_separation(G, Z, max_order)
    assert (None if sep is None else (sep.A, sep.B)) == want


def test_path_parity_and_edges():
    p = Path((3, 1, 0, 2))
    assert p.length == 3 and p.parity == 1
    assert p.ends == (3, 2)
    assert p.edge_set() == {(1, 3), (0, 1), (0, 2)}
    with pytest.raises(Exception):
        Path((0, 1, 0))
