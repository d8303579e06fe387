"""Core graph structure: formats, bipartiteness, blocks, separations, paths."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from oddminorkit import (
    MAX_VERTICES,
    Graph,
    GraphError,
    Path,
    SizeLimitError,
    bipartition,
    blocks,
    find_odd_cycle,
    find_small_separation,
    parse_graph,
    random_graph,
    to_dimacs,
    to_edgelist,
    to_graph6,
)
from oddminorkit.graph import _two_color, bits, check_size

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
    assert G.adj_mask(2) == 0b1010
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


def test_rejects_a_bool_vertex_id():
    # False and True equal 0 and 1, so the graph would equal Graph(3, [(0, 1)])
    # and share its hash(), while graph_hash spells the edge "False-True"
    with pytest.raises(GraphError, match="by a bool"):
        Graph(3, [(False, True)])
    with pytest.raises(GraphError, match="by a bool"):
        Graph(3, [(0, True)])
    with pytest.raises(GraphError, match="not a bool"):
        Graph(True)


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


@pytest.mark.parametrize("text, format", [
    (b"p edge x 0\n", "dimacs"),
    (b"p edge 3 0\ne 1 y\n", "dimacs"),
    (b"n x\n", "edgelist"),
    (b"n 3\n0 z\n", "edgelist"),
])
def test_non_integer_fields_are_graph_errors(text, format):
    with pytest.raises(GraphError):
        parse_graph(text, format)


@pytest.mark.parametrize("format", ["graph6", "dimacs", "edgelist"])
def test_non_ascii_text_is_a_graph_error(format):
    with pytest.raises(GraphError):
        parse_graph("n 2\n0 1 \u00e9\n", format)


def test_second_dimacs_header_is_rejected():
    with pytest.raises(GraphError):
        parse_graph(b"p edge 3 1\ne 1 2\np edge 5 0\n", "dimacs")


@pytest.mark.parametrize("n", [MAX_VERTICES + 1, 10_000_000])
def test_vertex_count_is_capped(n):
    with pytest.raises(GraphError):
        parse_graph(f"p edge {n} 0\n".encode(), "dimacs")
    with pytest.raises(GraphError):
        parse_graph(f"n {n}\n".encode(), "edgelist")
    # the cap sits above the largest generator and benchmark host
    assert MAX_VERTICES >= 127
    assert parse_graph(f"n {MAX_VERTICES}\n".encode(), "edgelist").n == MAX_VERTICES
    assert parse_graph(f"p edge {MAX_VERTICES} 0\n".encode(), "dimacs").n == MAX_VERTICES


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


@given(graphs(), st.data())
def test_two_color_keeps_same_pairs_and_splits_the_rest(G, data):
    """_two_color on a random piece with random symmetric same masks against
    every coloring of the piece: the rule is that the ends of an edge vw get
    one color iff w is in same[v]."""
    alive = data.draw(st.integers(0, (1 << G.n) - 1))
    same = [0] * G.n
    for u, v in itertools.combinations(range(G.n), 2):
        if data.draw(st.booleans()):
            same[u] |= 1 << v
            same[v] |= 1 << u
    piece = bits(alive)
    edges = [(u, v) for u, v in G.edges() if alive >> u & alive >> v & 1]

    def obeys(color):
        return all((color[u] == color[v]) == bool(same[u] >> v & 1) for u, v in edges)

    want = any(obeys(dict(zip(piece, cs)))
               for cs in itertools.product((1, 2), repeat=len(piece)))
    color, parent, bad = _two_color(G, alive, same)
    assert (bad is None) == want
    if bad is None:
        assert set(color) == set(piece) and obeys(color)
        for v in piece:
            if not G.reach(1 << v, alive) & ((1 << v) - 1):
                assert color[v] == 1 and v not in parent
    else:
        v, w = bad
        assert G.has_edge(v, w) and alive >> v & alive >> w & 1
        assert (color[v] == color[w]) != bool(same[v] >> w & 1)


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
    assert {B for B, _ in blocks(G)} == oracles.blocks_nx(G)


@pytest.mark.parametrize("seed", range(60))
def test_blocks_with_bipartiteness_match_networkx(seed):
    # each block with whether it is bipartite, in the order blocks(G) keeps
    rng = random.Random(seed)
    G = random_graph(rng.randint(0, 12), rng.choice((0.1, 0.2, 0.3, 0.5, 0.8)), seed)
    H = nx.Graph()
    H.add_nodes_from(G.vertices())
    H.add_edges_from(G.edges())
    want = {(frozenset(b), nx.is_bipartite(H.subgraph(b)))
            for b in nx.biconnected_components(H)}
    want |= {(frozenset([v]), True) for v in G.vertices() if H.degree(v) == 0}
    got = blocks(G)
    assert set(got) == want
    assert [B for B, _ in got] == sorted((B for B, _ in want),
                                         key=lambda b: (min(b), len(b), sorted(b)))


@given(graphs(), st.data())
def test_reach_is_the_components_meeting_seed(G, data):
    vertex_sets = st.sets(st.integers(0, max(G.n - 1, 0)), max_size=G.n)
    within = set(data.draw(vertex_sets))
    seed = set(data.draw(vertex_sets))
    H = oracles.nxg(G).subgraph(within)
    want = set().union(*(c for c in nx.connected_components(H) if c & seed))
    to_mask = lambda vs: sum(1 << v for v in vs)
    assert set(bits(G.reach(to_mask(seed), to_mask(within)))) == want


@given(st.integers(0, 2**70))
def test_bits_lists_set_bits_ascending(mask):
    vs = bits(mask)
    assert vs == sorted(vs) and sum(1 << v for v in vs) == mask
    assert len(vs) == mask.bit_count()


@given(graphs(max_n=7))
def test_subgraph_on_keeps_ids(G):
    vs = [v for v in G.vertices() if v % 2 == 0]
    keep = G.subgraph_on(vs)
    assert keep.n == G.n
    for u, v in G.edges():
        assert keep.has_edge(u, v) == (u in vs and v in vs)


@given(graphs(max_n=7), st.data())
def test_small_separation_contract(G, data):
    if G.n == 0:
        return
    Z = data.draw(st.sets(st.sampled_from(range(G.n)), max_size=3))
    sep = find_small_separation(G, Z, 2)
    if sep is not None:
        assert oracles.is_separation(G, sep.A, sep.B)
        assert sep.order <= 2
        assert any(v not in Z for v in sep.A - sep.B)
        assert any(v not in Z for v in sep.B - sep.A)
    else:
        # brute force: no cut of size <= 2 splits two non-Z vertices apart
        for cut in itertools.chain.from_iterable(
            itertools.combinations(range(G.n), k) for k in range(3)
        ):
            rest = oracles.nxg(G).subgraph(set(G.vertices()) - set(cut))
            comps = [
                c for c in nx.connected_components(rest)
                if any(v not in Z for v in c)
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


@given(graphs(max_n=10), st.data())
def test_small_separation_inside_a_mask_is_the_induced_pieces(G, data):
    """On the piece G[alive] the separation is the oracle's on the induced,
    renumbered piece, read back in G's ids."""
    alive = data.draw(st.integers(0, (1 << G.n) - 1))
    Z = data.draw(st.sets(st.sampled_from(bits(alive)), max_size=4)) if alive else set()
    max_order = data.draw(st.integers(0, 3))
    sep = find_small_separation(G, Z, max_order, alive)
    H, old_ids = oracles.induced(G, bits(alive))
    want = oracles.first_small_separation(H, [old_ids.index(z) for z in Z], max_order)
    if want is not None:
        want = tuple(frozenset(old_ids[v] for v in side) for side in want)
    assert (None if sep is None else (sep.A, sep.B)) == want


def test_path_parity_and_edges():
    p = Path((3, 1, 0, 2))
    assert p.length == 3 and p.parity == 1
    assert p.ends == (3, 2)
    assert p.edge_set() == {(1, 3), (0, 1), (0, 2)}
    with pytest.raises(Exception):
        Path((0, 1, 0))


def test_check_size_reads_the_limit_then_the_env_then_the_fallback(monkeypatch):
    monkeypatch.delenv("ODDMINOR_LIMIT", raising=False)
    assert check_size(Graph(14), None, "layer") == 14
    assert check_size(Graph(30), None, "layer", fallback=30) == 30
    assert check_size(Graph(40), 40, "layer") == 40
    monkeypatch.setenv("ODDMINOR_LIMIT", "not-a-number")
    assert check_size(Graph(14), None, "layer") == 14
    monkeypatch.setenv("ODDMINOR_LIMIT", "3")
    assert check_size(Graph(9), 9, "layer") == 9
    with pytest.raises(SizeLimitError) as e:
        check_size(Graph(4), None, "layer", fallback=30)
    assert str(e.value) == "layer: graph has 4 > 3 vertices"
