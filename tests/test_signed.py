"""Signed graphs: re-signing algebra, balance, equivalence, signed minors."""

import hashlib
import itertools
import random
from dataclasses import fields, is_dataclass

import networkx as nx
import pytest
from hypothesis import example, given, strategies as st

from oddminorkit import (
    Graph,
    Path,
    SignedGraph,
    SignedMinorModel,
    certify_signed_minor_model,
    complete,
    complete_bipartite,
    cut_edges,
    cycle,
    find_odd_clique_minor,
    find_signed_minor,
    is_balanced,
    parse_graph,
    random_graph,
    resign,
    signatures_equivalent,
    verify_signed_minor_model,
)
from oddminorkit import signed
from oddminorkit.graph import SizeLimitError, bits, blocks
from oddminorkit.signed import (
    _connected_subsets, _disagreement_tree, _valid_colorings,
)

import oracles

K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])


@st.composite
def signed_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if draw(st.booleans())]
    sigma = [e for e in edges if draw(st.booleans())]
    return SignedGraph(Graph(n, edges), frozenset(sigma))


def fundamental_cycles(G):
    """One cycle per non-tree edge of a DFS forest, as vertex tuples."""
    parent = {}
    depth = {}
    for root in G.vertices():
        if root in parent:
            continue
        parent[root] = root
        depth[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in bits(G.adj_mask(v)):
                if w not in parent:
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    stack.append(w)
    for u, v in G.edges():
        if parent[u] == v or parent[v] == u:
            continue
        # walk both ends up to the meeting point
        pu, pv = [u], [v]
        a, b = u, v
        while a != b:
            if depth[a] >= depth[b]:
                a = parent[a]
                pu.append(a)
            else:
                b = parent[b]
                pv.append(b)
        if pu[-1] == pv[-1]:
            pv.pop()
        yield tuple(pu + list(reversed(pv)))


@given(signed_graphs(), st.data())
def test_resign_preserves_balance_on_fundamental_cycles(SG, data):
    X = data.draw(st.sets(st.sampled_from(range(SG.graph.n))))
    SG2 = resign(SG, X)
    for cyc in fundamental_cycles(SG.graph):
        if len(cyc) < 3:
            continue
        p = Path(cyc)
        assert is_balanced(SG, p) == is_balanced(SG2, p)


@given(signed_graphs(), st.data())
def test_resign_is_a_group_action(SG, data):
    X = data.draw(st.sets(st.sampled_from(range(SG.graph.n))))
    Y = data.draw(st.sets(st.sampled_from(range(SG.graph.n))))
    assert resign(resign(SG, X), X) == SG
    assert resign(resign(SG, X), Y) == resign(SG, set(X) ^ set(Y))


@given(signed_graphs(), st.data())
def test_signatures_equivalent_round_trips_resign(SG, data):
    X = data.draw(st.sets(st.sampled_from(range(SG.graph.n))))
    target = resign(SG, X).signature
    W = signatures_equivalent(SG, target)
    assert W is not None
    assert SG.signature ^ cut_edges(SG.graph, W) == target


def test_signatures_inequivalent_on_odd_cycle():
    C3 = SignedGraph(K3, frozenset())
    # flipping one edge flips the triangle's balance: no re-signing does that
    assert signatures_equivalent(C3, [(0, 1)]) is None


def test_cut_edges_basic():
    G = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert cut_edges(G, {0}) == {(0, 1), (0, 3)}
    assert cut_edges(G, {0, 1}) == {(1, 2), (0, 3)}
    assert cut_edges(G, set(G.vertices())) == frozenset()


def test_is_balanced_validates_input():
    C3 = SignedGraph(K3, frozenset({(0, 1)}))
    assert not is_balanced(C3, Path((0, 1, 2)))
    assert is_balanced(SignedGraph(K3, frozenset({(0, 1), (1, 2)})), Path((0, 1, 2)))
    with pytest.raises(ValueError):
        is_balanced(C3, Path((0, 1)))
    with pytest.raises(ValueError):
        is_balanced(C3, Path((0, 2)))  # needs length >= 3


def test_k6_contains_all_positive_triangle():
    K6 = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    model = find_signed_minor(K6, K3, [])
    assert model is not None
    ok, reason = verify_signed_minor_model(K6, K3, [], model)
    assert ok, reason


def test_single_edge_hosts_bichromatic_edge_pattern():
    # regression: the two singleton trees need opposite colors, so the
    # search must not pin every singleton to one color
    K2 = Graph(2, [(0, 1)])
    model = find_signed_minor(K2, K2, [])
    assert model is not None
    ok, reason = verify_signed_minor_model(K2, K2, [], model)
    assert ok, reason


def test_triangle_lacks_all_positive_triangle():
    # K_3 itself hosts only the unbalanced triangle: every one-vertex-per-tree
    # model forces three witness edges whose colorings cannot all agree
    assert find_signed_minor(K3, K3, []) is None


@given(st.integers(0, 400))
def test_all_negative_triangle_agrees_with_odd_minor_detector(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(3, 7)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    ]
    G = Graph(n, edges)
    sigma = [(0, 1), (0, 2), (1, 2)]
    signed = find_signed_minor(G, K3, sigma)
    odd = find_odd_clique_minor(G, 3)
    assert (signed is None) == (odd is None)
    if signed is not None:
        ok, reason = verify_signed_minor_model(G, K3, sigma, signed)
        assert ok, reason


def test_verifier_rejects_tampering():
    K6 = Graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
    model = find_signed_minor(K6, K3, [])
    bad = type(model)(
        trees=model.trees,
        tree_edges=model.tree_edges,
        tree_colorings={
            u: {v: 3 - c for v, c in col.items()} if u == 0 else col
            for u, col in model.tree_colorings.items()
        },
        edge_witness=model.edge_witness,
    )
    ok, reason = verify_signed_minor_model(K6, K3, [], bad)
    # flipping one tree's coloring breaks witness parity (or, for a larger
    # tree, propriety stays intact, so the reason must be witness-parity)
    assert not ok and reason == "witness-parity"

    overlapping = type(model)(
        trees={**model.trees, 1: model.trees[0]},
        tree_edges={**model.tree_edges, 1: model.tree_edges[0]},
        tree_colorings={**model.tree_colorings, 1: model.tree_colorings[0]},
        edge_witness=model.edge_witness,
    )
    ok, reason = verify_signed_minor_model(K6, K3, [], overlapping)
    assert not ok and reason == "overlapping-trees"


PATTERNS = {
    "K2": Graph(2, [(0, 1)]),
    "P3": Graph(3, [(0, 1), (1, 2)]),
    "K3": K3,
    "C4": Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "K4": Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
    # two triangles, 0 1 2 and 0 2 3: 2-connected, not complete
    "K4-e": Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
}


@st.composite
def signed_minor_instances(draw):
    n = draw(st.integers(1, 6))
    pairs = list(itertools.combinations(range(n), 2))
    G = Graph(n, [e for e in pairs if draw(st.booleans())])
    name = draw(st.sampled_from(sorted(PATTERNS)))
    sigma = [e for e in PATTERNS[name].edges() if draw(st.booleans())]
    return G, name, sigma


ODD_K3 = [(0, 1), (0, 2), (1, 2)]


# Pinned: the unsigned K_h pretest must not run for a non-complete H (P_3 in
# a path), branch sets of a mixed-sign clique may not be taken in increasing
# minimum vertex, and a model found outside the size order is not smallest.
# The next four name each way the search can end: a model of size h (odd K_3
# in K_3); size h fails and the branch-and-bound pass finds a larger model
# (odd K_3 in C_5, total size 5); the unsigned pretest passes but no block
# may hold the pattern, so no pass has a set to try (odd K_3 in K_{3,4}, one
# bipartite block); a non-complete H is absent (C_4 in a path). On FdD^g the
# branch-and-bound pass meets a 7-vertex odd K_4 before a 6-vertex one, so a
# pass that stops at its first model returns one too large. The last three
# have balanced triangles, so L = h + tau exceeds h: all-positive K_3 in C_5
# with the chord 0 2 (L = 4 of 5 vertices), all-positive K_4 in the
# octahedron (L = 6, every vertex), and K_4 with the cut of vertex 0
# negative, balanced, in FdD^g (L = 6 of 7 vertices). All-positive K_3 has
# L = 4: in C_4 the least model has L vertices, so the pass capped at L
# answers; in C_6 it has 6, so that pass fails and the branch-and-bound pass
# answers.
@example((Graph(3, [(0, 2), (1, 2)]), "P3", []))
@example((Graph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (3, 4)]),
          "K4", [(0, 3), (1, 3)]))
@example((Graph(6, [(0, 4), (0, 5), (2, 3), (2, 5), (3, 4), (3, 5)]), "K3", [(0, 1)]))
@example((K3, "K3", ODD_K3))
@example((cycle(5), "K3", ODD_K3))
@example((complete_bipartite(3, 4), "K3", ODD_K3))
@example((Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), "C4", []))
@example((parse_graph(b"FdD^g", "graph6"), "K4", PATTERNS["K4"].edges()))
@example((Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)]), "K3", []))
@example((Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3]),
          "K4", []))
@example((parse_graph(b"FdD^g", "graph6"), "K4", [(0, 1), (0, 2), (0, 3)]))
@example((cycle(4), "K3", []))
@example((cycle(6), "K3", []))
@given(signed_minor_instances())
def test_signed_minor_search_matches_brute_force_oracle(instance):
    _assert_a_smallest_model(*instance)


def _assert_a_smallest_model(G, name, sigma):
    """find_signed_minor's verdict is the oracle's, and its model verifies
    and has the oracle's least total size."""
    H = PATTERNS[name]
    model = find_signed_minor(G, H, sigma)
    want = oracles.smallest_signed_minor_size(G, H, sigma)
    if want is None:
        assert model is None
    else:
        assert model is not None
        ok, reason = verify_signed_minor_model(G, H, sigma, model)
        assert ok, reason
        # branch sets come by increasing total size: a smallest model
        assert sum(len(vs) for vs in model.trees.values()) == want


# blocks for glued hosts: bipartite (C_4), too small for K_4 (K_2, K_3), or
# neither (K_4 minus an edge, K_4)
BLOCKS = [Graph(2, [(0, 1)]), K3, PATTERNS["C4"], PATTERNS["K4-e"], PATTERNS["K4"]]


@st.composite
def glued_instances(draw):
    """A host of two or three BLOCKS, each glued at its vertex 0 onto a
    vertex of the ones before, so that every glue vertex is a cut vertex (at
    most 6 vertices, for the oracle), with K_3 or K_4 under a random
    signature."""
    n, edges = 1, []
    for _ in range(draw(st.integers(2, 3))):
        B = draw(st.sampled_from(BLOCKS))
        if n + B.n - 1 > 6:
            break
        ids = [draw(st.integers(0, n - 1))] + list(range(n, n + B.n - 1))
        edges += [(ids[u], ids[v]) for u, v in B.edges()]
        n += B.n - 1
    name = draw(st.sampled_from(["K3", "K4"]))
    sigma = draw(st.lists(st.sampled_from(PATTERNS[name].edges()), unique=True))
    return Graph(n, edges), name, sigma


# The block rule at its edges: K_4 beside a triangle (odd K_4 inside one
# block, none across the cut vertex), C_4 beside a triangle (the triangle
# holds odd K_3, the bipartite block none), and C_4 with a pendant edge (no
# eligible block for the unbalanced all-negative K_3).
@example((Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (0, 5),
                    (4, 5)]), "K4", ODD_K3 + [(0, 3), (1, 3), (2, 3)]))
@example((Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (3, 5), (4, 5)]), "K3", ODD_K3))
@example((Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)]), "K3", ODD_K3))
@given(glued_instances())
def test_the_block_rule_keeps_a_smallest_model(instance):
    _assert_a_smallest_model(*instance)


@pytest.mark.parametrize("graph6, t, block", [
    # blocks {0,6}, {2,5}, {5,6} and the non-bipartite {0,1,3,4,7}
    ("GeOcKo", 4, [0, 1, 3, 4, 7]),
    # K_{5,6} with a triangle at vertex 0: a bipartite block and a small one
    ("L?B~vrw}FoO?_@", 4, None),
], ids=["GeOcKo", "K56-and-triangle"])
def test_the_deciding_pass_searches_the_eligible_blocks_only(monkeypatch, graph6, t, block):
    # GeOcKo passes the unsigned K_4 pretest and has no K_4 subgraph, so the
    # size-h pass fails and the branch-and-bound pass colors sets of two or
    # more vertices, all inside the one eligible block; K_{5,6} plus a
    # triangle has no eligible block, so no set is colored at all
    G = parse_graph(graph6.encode(), "graph6")
    colored = []

    def recording(G, mask):
        colored.append(mask)
        return _valid_colorings(G, mask)

    monkeypatch.setattr(signed, "_valid_colorings", recording)
    assert find_odd_clique_minor(G, t) is None
    larger = [m for m in colored if m.bit_count() > 1]
    if block is None:
        assert colored == []
    else:
        assert larger and all(set(bits(m)) <= set(block) for m in larger)


def _no_subset_table(*args):
    raise AssertionError("subset table built")


def _no_witness(*args):
    raise AssertionError("witness edge tested")


@pytest.mark.parametrize("G, h, sigma, limit", [
    (complete(20), 5, complete(5).edges(), 20),
    # random_graph(9, 0.4, 0) has 8 edges and the triangle 2, 3, 8
    (random_graph(9, 0.4, 0), 3, complete(3).edges(), None),
    (complete(4), 3, [(0, 1)], None),
], ids=["odd-K5-in-K20", "odd-K3-in-a-seeded-host", "signed-K3-in-K4"])
def test_a_size_h_answer_builds_no_subset_table(monkeypatch, G, h, sigma, limit):
    # the size-h pass reads one-vertex sets only, so it runs before the table
    # is built and before the blocks of G are read: every size-h model lies
    # inside one eligible block, so reading every vertex of G meets the model
    # the search over the eligible blocks' table returned
    want = find_signed_minor(G, complete(h), sigma, limit=limit)
    assert want is not None and all(len(vs) == 1 for vs in want.trees.values())
    monkeypatch.setattr(signed, "_connected_subsets", _no_subset_table)
    monkeypatch.setattr(signed, "blocks", _no_blocks)
    assert find_signed_minor(G, complete(h), sigma, limit=limit) == want


def _no_blocks(*args):
    raise AssertionError("blocks read")


def test_a_bipartite_host_is_absent_after_one_blocks_call(monkeypatch):
    # K_{3,4} has no triangle, so the size-h pass finds no odd K_3 and colors
    # nothing; its one block is bipartite, so no set is colored after it
    calls = []

    def counting(G, alive=None):
        calls.append(G)
        return blocks(G, alive)

    def no_coloring(*args):
        raise AssertionError("a set was colored")

    monkeypatch.setattr(signed, "blocks", counting)
    monkeypatch.setattr(signed, "_valid_colorings", no_coloring)
    assert find_odd_clique_minor(complete_bipartite(3, 4), 3) is None
    assert len(calls) == 1


# one-vertex patterns: those of the search, and P_3 with its middle vertex
# last, whose vertex 1 has no earlier neighbour
ONE_VERTEX_PATTERNS = {name: PATTERNS[name] for name in ("K3", "K4", "C4", "K4-e", "P3")}
ONE_VERTEX_PATTERNS["P3-middle-last"] = Graph(3, [(0, 2), (1, 2)])


@st.composite
def one_vertex_instances(draw):
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    G = Graph(n, [e for e in pairs if draw(st.booleans())])
    name = draw(st.sampled_from(sorted(ONE_VERTEX_PATTERNS)))
    H = ONE_VERTEX_PATTERNS[name]
    sigma = [e for e in H.edges() if draw(st.booleans())]
    return G, name, sigma


# K_4 with the triangle 1 2 3 negative is not symmetric: vertex 0 alone gets
# color 1; C_4 with one negative edge has an odd number of positive edges on
# its cycle, so it has no size-h model
@example((complete(6), "K4", [(1, 2), (1, 3), (2, 3)]))
@example((complete(5), "C4", [(0, 1)]))
@given(one_vertex_instances())
def test_the_size_h_pass_returns_the_first_one_vertex_model(instance):
    G, name, sigma = instance
    H = ONE_VERTEX_PATTERNS[name]
    want = oracles.first_one_vertex_model(G, H, sigma)
    model = find_signed_minor(G, H, sigma)
    if want is None:
        assert model is None or sum(len(vs) for vs in model.trees.values()) > H.n
    else:
        assert model is not None
        got = [(model.trees[i][0], model.tree_colorings[i][model.trees[i][0]])
               for i in H.vertices()]
        assert all(len(vs) == 1 for vs in model.trees.values()) and got == want


@pytest.mark.parametrize("sigma", [[(True, 2)], [(0, 1), (2, False)]],
                         ids=["true", "false"])
def test_a_signature_vertex_is_never_a_bool(sigma):
    # True equals 1, so it would be read as vertex 1; the certificate would
    # then name a vertex by a bool, which its verifier refuses
    K5, K3 = complete(5), complete(3)
    with pytest.raises(ValueError, match="by a bool"):
        find_signed_minor(K5, K3, sigma)
    model = find_signed_minor(K5, K3, [(1, 2)])
    with pytest.raises(ValueError, match="by a bool"):
        certify_signed_minor_model(K5, K3, sigma, model)
    assert verify_signed_minor_model(K5, K3, sigma, model) == (False, "signature-bool-vertex")
    # a signed graph with (True, 2) was built, and re-signing it at 0 gave
    # {(0, 1), (0, 2), (True, 2)}
    with pytest.raises(ValueError, match="by a bool"):
        resign(SignedGraph(complete(3), frozenset(sigma)), [0])
    with pytest.raises(ValueError, match="by a bool"):
        signatures_equivalent(SignedGraph(complete(3), frozenset()), sigma)


@pytest.mark.parametrize("G, h, sigma", [
    (complete(6), 3, []),
    (complete(6), 3, [(0, 1), (0, 2)]),
    (complete(8), 4, [(0, 1), (0, 2), (0, 3)]),
], ids=["positive-K3-in-K6", "even-K3-in-K6", "balanced-K4-in-K8"])
def test_a_balanced_triangle_skips_the_size_h_pass(monkeypatch, G, h, sigma):
    # one-vertex branch sets of a triangle with an even number of negative
    # edges form a triangle of G, which is odd; so no model has size h, and
    # no witness edge is tested before the subset table is built
    built = []
    mono_edge = signed._mono_edge

    def table(G, most=None):
        built.append(True)
        return _connected_subsets(G, most)

    def witness(*args):
        assert built, "witness edge tested before the subset table was built"
        return mono_edge(*args)

    want = find_signed_minor(G, complete(h), sigma)
    monkeypatch.setattr(signed, "_connected_subsets", table)
    monkeypatch.setattr(signed, "_mono_edge", witness)
    model = find_signed_minor(G, complete(h), sigma)
    assert built and model == want
    assert verify_signed_minor_model(G, complete(h), sigma, model) == (True, "ok")


def test_a_model_at_the_lower_bound_colors_no_larger_set(monkeypatch):
    # every triangle of K_5 with the cut of vertex 0 negative is balanced, so
    # L = 5 + 3 = 8; the pass capped at L reads sets of at most L - h + 1 = 4
    # vertices and finds an 8-vertex model, so no larger set is colored
    G, H, sigma = random_graph(11, 0.6, 2), complete(5), [(0, 1), (0, 2), (0, 3), (0, 4)]
    largest = []

    def recording(G, mask):
        largest.append(mask.bit_count())
        return _valid_colorings(G, mask)

    monkeypatch.setattr(signed, "_valid_colorings", recording)
    model = find_signed_minor(G, H, sigma)
    assert model is not None
    assert sum(len(vs) for vs in model.trees.values()) == 8
    assert verify_signed_minor_model(G, H, sigma, model) == (True, "ok")
    assert max(largest) <= 4


def _no_pretest(*args):
    raise AssertionError("unsigned pretest run")


@pytest.mark.parametrize("G, size", [(complete(6), 4), (cycle(6), 6)], ids=["K6", "C6"])
def test_no_pretest_for_a_triangle(monkeypatch, G, size):
    # every eligible block of a K_3 search has a cycle, a K_3 minor, so the
    # unsigned pretest could only say yes; all-positive K_3 has L = 4, met in
    # K_6 by the pass capped at L and in C_6 by the branch-and-bound pass
    monkeypatch.setattr(signed, "has_clique_minor", _no_pretest)
    model = find_signed_minor(G, complete(3), [])
    assert sum(len(vs) for vs in model.trees.values()) == size


# vertex 0 joined to the path 1, 2, .., 13
FAN14 = Graph(14, [(0, i) for i in range(1, 14)] + [(i, i + 1) for i in range(1, 13)])


def test_the_pretest_answers_odd_k4_before_a_larger_set_is_colored(monkeypatch):
    # each host is one non-bipartite block with no K_4 minor, so its core is
    # empty: odd K_4 (after a size-h pass that builds no table) and signed
    # K_4 with sigma = {01} (L = 5) are absent before any subset table is
    # built; the fan's table took about 50 s
    monkeypatch.setattr(signed, "_connected_subsets", _no_subset_table)
    for G in (cycle(5), FAN14):
        assert find_odd_clique_minor(G, 4) is None
        assert find_signed_minor(G, complete(4), [(0, 1)]) is None


def test_all_positive_k7_in_k10_is_absent_without_a_table(monkeypatch):
    # every triangle of all-positive K_7 is balanced, so a model has at least
    # 7 + 5 = 12 vertices, more than K_10 has
    monkeypatch.setattr(signed, "_connected_subsets", _no_subset_table)
    assert find_signed_minor(complete(10), complete(7), []) is None


def test_the_triangle_cover_goes_no_deeper_than_the_host_allows(monkeypatch):
    # K_14 with a Hamiltonian path negative has a triangle cover of 10
    # vertices, found by branching about 3^10 times; K_14 has room for none
    # of them (G.n - h = 0), so the branching stops at depth 1 and the
    # answer is None before any table or witness edge
    depths = []

    def meets(tris, cover, k):
        depths.append(k)
        return meets_before(tris, cover, k)

    meets_before = signed._meets
    monkeypatch.setattr(signed, "_meets", meets)
    monkeypatch.setattr(signed, "_connected_subsets", _no_subset_table)
    monkeypatch.setattr(signed, "_mono_edge", _no_witness)
    assert find_signed_minor(complete(14), complete(14), [(i, i + 1) for i in range(13)]) is None
    assert depths and max(depths) <= 1


@pytest.mark.parametrize("H", [complete(3), complete(4), complete(5), PATTERNS["K4-e"]],
                         ids=["K3", "K4", "K5", "K4-e"])
def test_least_size_is_h_plus_the_fewest_vertices_meeting_balanced_triangles(H):
    # every signature of H (1 024 of them on K_5)
    E = H.edges()
    for chosen in range(1 << len(E)):
        sigma = frozenset(e for k, e in enumerate(E) if chosen >> k & 1)
        want = H.n + oracles.fewest_vertices_meeting_balanced_triangles(H, sigma)
        assert signed._least_size(H, sigma, H.n) == want, sorted(sigma)


@pytest.mark.parametrize("H", [
    complete(3), complete(4), complete(5), cycle(4), cycle(5),
    complete_bipartite(2, 3), Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    Graph(3, [(0, 1), (1, 2)]), Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]),
], ids=["K3", "K4", "K5", "C4", "C5", "K23", "K4-e", "P3", "K2+K3"])
def test_the_tree_side_test_decides_balance(H):
    # every signature of H (1 024 of them on K_5) against the cuts of all
    # 2^h vertex sets
    E = H.edges()
    for chosen in range(1 << len(E)):
        sigma = frozenset(e for k, e in enumerate(E) if chosen >> k & 1)
        want = oracles.balanced_by_subsets(H, sigma)
        side = signed._sides(H, sigma)
        assert (side is not None) == want, sorted(sigma)
        if side is not None:
            # exactly the edges of sigma cross, and each component's lowest
            # vertex is on side 0
            assert all((side[u] != side[v]) == ((u, v) in sigma) for u, v in E)
            full = (1 << H.n) - 1
            assert all(side[v] == 0 for v in range(H.n)
                       if not H.reach(1 << v, full) & ((1 << v) - 1))


@pytest.mark.parametrize("seed", range(40))
def test_connected_subset_table_matches_brute_force(seed):
    rng = random.Random(seed)
    G = random_graph(rng.randint(0, 9), rng.choice((0.2, 0.35, 0.5, 0.8)), seed)
    # every mask whose flood-fill from its lowest vertex is itself
    want = sorted((m for m in range(1, 1 << G.n) if G.reach(m & -m, m) == m),
                  key=lambda m: (m.bit_count(), m))
    table = _connected_subsets(G)
    assert [m for m, _ in table] == want
    for m, nb in table:
        union = 0
        for v in bits(m):
            union |= G.adj_mask(v)
        assert nb == union & ~m


@pytest.mark.parametrize("seed", range(12))
def test_a_cut_subset_table_is_the_prefix_of_the_full_one(seed):
    rng = random.Random(seed)
    G = random_graph(rng.randint(1, 9), rng.choice((0.2, 0.35, 0.5, 0.8)), seed)
    full = _connected_subsets(G)
    for most in range(1, G.n + 2):
        assert _connected_subsets(G, most) == [p for p in full if p[0].bit_count() <= most]


@pytest.mark.parametrize("seed", range(24))
def test_coloring_step_matches_a_networkx_oracle(seed):
    rng = random.Random(seed)
    G = random_graph(rng.randint(1, 8), rng.choice((0.3, 0.5, 0.8)), seed)
    for mask, _ in _connected_subsets(G):
        vs = bits(mask)
        inside = [(a, b) for a, b in G.edges() if a in vs and b in vs]
        free = mask & (mask - 1)  # the lowest vertex keeps color 1
        want = []
        for c in range(free + 1):
            if c & ~free:
                continue
            bichromatic = {(a, b) for a, b in inside if (c >> a & 1) != (c >> b & 1)}
            D = nx.Graph(bichromatic)
            D.add_nodes_from(vs)
            tree = _disagreement_tree(G, mask, c)
            if not nx.is_connected(D):
                assert tree is None
                continue
            want.append(c)
            T = nx.Graph(tree)
            T.add_nodes_from(vs)
            assert len(tree) == len(vs) - 1
            assert {(min(e), max(e)) for e in tree} <= bichromatic
            assert nx.is_tree(T)
        assert _valid_colorings(G, mask) == want


def _canonical(x):
    """A model as nested lists with every dict sorted by key."""
    if is_dataclass(x):
        return [_canonical(getattr(x, f.name)) for f in fields(x)]
    if isinstance(x, dict):
        return sorted((k, _canonical(v)) for k, v in x.items())
    return x


# sha256 over the models (or None) of 480 seeded searches, recorded before the
# connected-subset table carried neighbourhoods; a change to the engine that
# keeps its witnesses keeps this hash
WITNESS_PIN = "95846408e1aa1ae1ef94fd5df7b79de91d13e78246107ae8f7c98c140dcb8660"


def test_seeded_witnesses_are_pinned():
    rng = random.Random(20161014)
    out = []
    for i in range(480):
        G = random_graph(rng.randint(1, 8), rng.choice((0.3, 0.5, 0.7)),
                         rng.randrange(10**6))
        h = rng.randint(1, 4)
        if i % 2:
            model = find_odd_clique_minor(G, h)
        else:
            pairs = itertools.combinations(range(h), 2)
            H = Graph(h, [e for e in pairs if rng.random() < 0.7])
            sigma = [e for e in H.edges() if rng.random() < 0.5]
            model = find_signed_minor(G, H, sigma)
        out.append(repr(_canonical(model)))
    assert sum(m != "None" for m in out) == 311
    digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
    assert digest == WITNESS_PIN


def test_the_first_smallest_model_is_kept_over_a_later_one_of_its_size():
    # Ey]w has no K_4 subgraph; the branch-and-bound pass records this 6-vertex
    # odd K_4, then meets another on the same sets, with only vertex 3 colored
    # 2, in the loop over the last mask's colorings and forms, which does not
    # read the lowered cap; the leaf refuses it, so the first one is kept
    G = parse_graph(b"Ey]w", "graph6")
    assert (G.n, G.m) == (6, 11)
    model = find_odd_clique_minor(G, 4)
    assert model.trees == {0: (0,), 1: (1,), 2: (2,), 3: (3, 4, 5)}
    assert model.alpha.color == {v: 2 if v == 4 else 1 for v in range(6)}


def test_size_guard_message_names_layer_size_and_limit(monkeypatch):
    monkeypatch.delenv("ODDMINOR_LIMIT", raising=False)
    with pytest.raises(SizeLimitError) as e:
        find_signed_minor(Graph(15), complete(2), [])
    assert str(e.value) == "find_signed_minor: graph has 15 > 14 vertices"


@pytest.mark.parametrize("edges", [((0, 1), (0, 1)), ((0, 1), (1, 0))])
def test_verifier_rejects_a_repeated_tree_edge(edges):
    # two copies of one edge have the |V| - 1 count of a tree on {0, 1, 2}
    model = SignedMinorModel(
        trees={0: (0, 1, 2), 1: (3,)},
        tree_edges={0: edges, 1: ()},
        tree_colorings={0: {0: 1, 1: 2, 2: 2}, 1: {3: 2}},
        edge_witness={(0, 1): (2, 3)},
    )
    ok, reason = verify_signed_minor_model(complete(4), complete(2), [(0, 1)], model)
    assert (ok, reason) == (False, "tree-not-acyclic")


def test_verifier_rejects_a_cycle_with_the_edge_count_of_a_tree():
    # a triangle on {0, 1, 2} has the 3 edges of a tree on {0, 1, 2, 3}
    model = SignedMinorModel(
        trees={0: (0, 1, 2, 3), 1: (4,)},
        tree_edges={0: ((0, 1), (1, 2), (0, 2)), 1: ()},
        tree_colorings={0: {0: 1, 1: 2, 2: 2, 3: 1}, 1: {4: 2}},
        edge_witness={(0, 1): (3, 4)},
    )
    ok, reason = verify_signed_minor_model(complete(5), complete(2), [(0, 1)], model)
    assert (ok, reason) == (False, "tree-not-connected")
