"""Odd-minor models: parity predicate, verifier, exhaustive detector."""

import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from oddminorkit import (
    Graph,
    OddMinorModel,
    Path,
    TwoColoring,
    bipartition,
    complete,
    complete_bipartite,
    cycle,
    find_odd_clique_minor,
    find_signed_minor,
    has_clique_minor,
    is_parity_breaking,
    verify_odd_minor_model,
)
from oddminorkit import oddminor
from oddminorkit.graph import SizeLimitError
from oddminorkit.signed import _core

import oracles


def Kt(t):
    return complete(t)


# ---------------------------------------------------------------------------
# parity predicate
# ---------------------------------------------------------------------------


def test_parity_breaking_against_coloring():
    alpha = TwoColoring({0: 1, 3: 1, 5: 2})
    # equal colors: breaking iff odd length
    assert is_parity_breaking(Path((0, 1, 2, 3)), alpha)
    assert not is_parity_breaking(Path((0, 1, 3)), alpha)
    # unequal colors: breaking iff even length
    assert is_parity_breaking(Path((0, 1, 5)), alpha)
    assert not is_parity_breaking(Path((0, 5)), alpha)


def test_parity_breaking_against_bipartite_graph():
    P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    # same side of the bipartition: an odd path breaks parity
    beta = bipartition(P4)
    assert is_parity_breaking(Path((0, 4, 2)), beta) is False
    assert is_parity_breaking(Path((0, 4, 5, 6, 2)), beta) is False
    assert is_parity_breaking(Path((0, 4, 5, 2)), beta)


def test_no_path_inside_a_bipartite_graph_breaks_its_parity():
    # any path of a connected bipartite graph agrees with the 2-coloring
    G = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    beta = bipartition(G)
    for a, b in itertools.combinations(range(6), 2):
        for p in oracles.all_simple_paths_between(G, a, b):
            assert not is_parity_breaking(Path(tuple(p)), beta)


def test_parity_query_concatenation_xor():
    alpha = TwoColoring({0: 1, 2: 2, 5: 1})
    p1 = Path((0, 1, 2))
    p2 = Path((2, 3, 4, 5))
    whole = Path((0, 1, 2, 3, 4, 5))
    b1 = is_parity_breaking(p1, alpha)
    b2 = is_parity_breaking(p2, alpha)
    assert is_parity_breaking(whole, alpha) == (b1 ^ b2)


def test_parity_predicate_rejects_bad_references():
    with pytest.raises(ValueError):
        is_parity_breaking(Path((0, 9)), TwoColoring({0: 1}))


# ---------------------------------------------------------------------------
# unsigned clique minors (pruning layer)
# ---------------------------------------------------------------------------


def test_clique_minor_knowns():
    assert has_clique_minor(Kt(5), 5)
    assert not has_clique_minor(Kt(4), 5)
    grid = Graph(9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
                 + [(r * 3 + c, (r + 1) * 3 + c) for r in range(2) for c in range(3)])
    assert has_clique_minor(grid, 4)
    assert not has_clique_minor(grid, 5)  # planar
    petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                     + [(i, i + 5) for i in range(5)]
                     + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])
    # contracting a perfect matching of spokes yields K_5; K_6 is impossible
    # by edge counting (15 cross pairs + 4 tree edges > 15 edges)
    assert has_clique_minor(petersen, 5)
    assert not has_clique_minor(petersen, 6)


def fan(n):
    """Vertex 0 joined to the path 1, 2, .., n - 1."""
    return Graph(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])


def wheel(k):
    """A hub, vertex 0, joined to the k-cycle 1, 2, .., k."""
    return Graph(k + 1, list(fan(k + 1).edges()) + [(1, k)])


OCTAHEDRON = Graph(6, [e for e in itertools.combinations(range(6), 2) if e not in
                       ((0, 1), (2, 3), (4, 5))])
# K_4 on 0..3 with the edges at vertex 0 and the edge 12 subdivided once,
# by 4..7
SUBDIVIDED_K4 = Graph(8, [(0, 4), (4, 1), (0, 5), (5, 2), (0, 6), (6, 3), (1, 7), (7, 2),
                          (1, 3), (2, 3)])


@st.composite
def graphs_of_at_most_8_vertices(draw):
    n = draw(st.integers(0, 8))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, [e for e in pairs if draw(st.booleans())])


@given(graphs_of_at_most_8_vertices(), st.sampled_from([4, 5]))
@example(fan(8), 4)
@example(fan(8), 5)
@example(wheel(7), 4)
@example(wheel(7), 5)
@example(complete_bipartite(3, 3), 4)
@example(complete_bipartite(3, 3), 5)
@example(OCTAHEDRON, 4)
@example(OCTAHEDRON, 5)
@example(SUBDIVIDED_K4, 4)
@example(SUBDIVIDED_K4, 5)
def test_clique_minor_against_every_labelling(G, t):
    # at t = 4 the core decides alone; at t = 5 the table search runs on it
    assert has_clique_minor(G, t) == oracles.has_clique_minor_by_partition(G, t)


def _random_tree(n, seed):
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


@pytest.mark.parametrize("G", [
    Graph(0), Graph(1), _random_tree(2, 0), _random_tree(9, 1), _random_tree(14, 2),
    cycle(3), cycle(9), fan(4), fan(14), complete_bipartite(2, 1), complete_bipartite(2, 7),
    SUBDIVIDED_K4.without_edges([(0, 4)]),
], ids=["empty", "K1", "K2", "tree9", "tree14", "C3", "C9", "F4", "F14", "K21", "K27",
        "subdivided-K4-less-an-edge"])
def test_a_graph_with_no_k4_minor_has_an_empty_core(G):
    assert _core(G).m == 0


@given(graphs_of_at_most_8_vertices())
@example(wheel(7))
@example(SUBDIVIDED_K4)
def test_the_core_is_empty_or_of_minimum_degree_three(G):
    core = _core(G)
    assert core.n == 0 or min(map(core.degree, core.vertices())) >= 3


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------


@given(st.integers(0, 300))
def test_odd_k3_iff_nonbipartite_random(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 8)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    G = Graph(n, edges)
    model = find_odd_clique_minor(G, 3)
    assert (model is not None) == (not oracles.bipartite_nx(G))
    if model is not None:
        ok, reason = verify_odd_minor_model(G, Kt(3), model)
        assert ok, reason


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_complete_graph_hosts_odd_clique(t):
    model = find_odd_clique_minor(Kt(t), t)
    assert model is not None
    ok, reason = verify_odd_minor_model(Kt(t), Kt(t), model)
    assert ok, reason


def test_complete_bipartite_has_no_odd_triangle():
    for m in range(1, 5):
        for n in range(1, 5):
            G = Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])
            assert find_odd_clique_minor(G, 3) is None
            assert find_signed_minor(G, Kt(3), Kt(3).edges()) is None


@pytest.mark.parametrize("t", [3, 4])
@pytest.mark.parametrize("G", [complete_bipartite(3, 4), complete_bipartite(4, 4), cycle(8)],
                         ids=["K34", "K44", "C8"])
def test_bipartite_hosts_are_absent_after_the_deciding_pass(G, t):
    # bipartite, so no odd K_3 and no odd K_4: each host is one bipartite
    # block and the pattern is unbalanced, so the engine finds no block it
    # may search and answers before it builds any subset table, for the
    # detector too. test_signed.py has hosts that reach the branch-and-bound
    # pass.
    assert find_odd_clique_minor(G, t) is None
    assert find_signed_minor(G, Kt(t), Kt(t).edges()) is None


def _seeded_host(seed, bipartite):
    """A seeded graph on 1..8 vertices; if bipartite, edges only across a
    random split of the vertices."""
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 8)
    side = [rng.randint(0, 1) for _ in range(n)]
    p = rng.choice((0.3, 0.5, 0.8))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (side[u] != side[v] or not bipartite) and rng.random() < p])


def _no_subset_table(G):
    raise AssertionError("subset table built for a host with no eligible block")


@pytest.mark.parametrize("t", [3, 4])
def test_bipartite_hosts_never_reach_the_engine(monkeypatch, t):
    # the exhaustive engine, the search over connected subsets, never starts:
    # a bipartite host has only bipartite blocks, and odd K_t is unbalanced
    monkeypatch.setattr("oddminorkit.signed._connected_subsets", _no_subset_table)
    hosts = [complete_bipartite(3, 4), complete_bipartite(4, 4), cycle(8)]
    hosts += [_seeded_host(seed, True) for seed in range(40)]
    for G in hosts:
        assert bipartition(G) is not None
        assert find_odd_clique_minor(G, t) is None


# K_{5,6} on 0..10 with a triangle on 0, 11, 12: a bipartite block and one
# too small for K_4
K56_AND_TRIANGLE = Graph(13, [(i, 5 + j) for i in range(5) for j in range(6)]
                         + [(0, 11), (0, 12), (11, 12)])


@pytest.mark.parametrize("G,t", [(complete_bipartite(6, 7), 3), (K56_AND_TRIANGLE, 4)],
                         ids=["K67-K3", "K56-and-triangle-K4"])
def test_signed_search_without_an_eligible_block_builds_no_subset_table(monkeypatch, G, t):
    # sigma = {01} makes K_t unbalanced (the triangle 012 has one negative
    # edge), so no bipartite block, and no block under t vertices, may hold it
    monkeypatch.setattr("oddminorkit.signed._connected_subsets", _no_subset_table)
    assert find_signed_minor(G, Kt(t), [(0, 1)]) is None


@pytest.mark.parametrize("G,t", [(complete_bipartite(3, 4), 2), (cycle(5), 3)],
                         ids=["K34-t2", "C5-t3"])
def test_other_hosts_still_reach_the_engine(monkeypatch, G, t):
    calls = []

    def engine(*args, **kwargs):
        calls.append(args)
        return find_signed_minor(*args, **kwargs)

    monkeypatch.setattr(oddminor, "find_signed_minor", engine)
    model = find_odd_clique_minor(G, t)
    assert len(calls) == 1
    ok, reason = verify_odd_minor_model(G, Kt(t), model)
    assert ok, reason


def test_detector_agrees_with_the_engine_on_seeded_hosts():
    # the detector's verdict, and its model when present, are the engine's
    searches = on_bipartite = present = 0
    for seed in range(300):
        for G in (_seeded_host(seed, True), _seeded_host(seed, False)):
            for t in (3, 4):
                model = find_odd_clique_minor(G, t)
                signed = find_signed_minor(G, Kt(t), Kt(t).edges())
                assert (model is None) == (signed is None), (seed, G, t)
                if model is not None:
                    assert model.trees == signed.trees
                    assert model.tree_edges == signed.tree_edges
                    assert model.connectors == signed.edge_witness
                    present += 1
                searches += 1
                on_bipartite += bipartition(G) is not None
    # 1 200 searches on 600 hosts, bipartite and not, with both verdicts
    assert searches == 1200 and on_bipartite >= 500 and present >= 100


def test_even_cycle_absent_odd_cycle_present():
    C6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert find_odd_clique_minor(C6, 3) is None
    model = find_odd_clique_minor(C5, 3)
    # smallest witness, deterministic: two singletons plus the far arc
    assert model.trees == {0: (0,), 1: (1,), 2: (2, 3, 4)}


def test_size_guard():
    G = Graph(15, [])
    with pytest.raises(SizeLimitError):
        find_odd_clique_minor(G, 2)
    with pytest.raises(SizeLimitError):  # before the engine reads the blocks
        find_odd_clique_minor(G, 3)
    assert find_odd_clique_minor(G, 2, limit=15) is None


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("ODDMINOR_LIMIT", "15")
    G = Graph(15, [])
    assert find_odd_clique_minor(G, 2) is None


def test_env_guard_covers_both_minor_searches(monkeypatch):
    monkeypatch.setenv("ODDMINOR_LIMIT", "8")
    G = Graph(9, [])
    with pytest.raises(SizeLimitError):
        find_odd_clique_minor(G, 2)
    with pytest.raises(SizeLimitError):
        find_signed_minor(G, Kt(2), [(0, 1)])
    assert find_odd_clique_minor(G, 2, limit=9) is None
    assert find_signed_minor(G, Kt(2), [(0, 1)], limit=9) is None


# ---------------------------------------------------------------------------
# verifier soundness (mutation tests)
# ---------------------------------------------------------------------------


def c5_model():
    C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    return C5, find_odd_clique_minor(C5, 3)


def test_verifier_reason_bichromatic_violation():
    G, model = c5_model()
    flipped = dict(model.alpha.color)
    tree = next(vs for vs in model.trees.values() if len(vs) > 1)
    flipped[tree[0]] = 3 - flipped[tree[0]]
    bad = OddMinorModel(model.trees, model.tree_edges, TwoColoring(flipped),
                        model.connectors)
    ok, reason = verify_odd_minor_model(G, Kt(3), bad)
    assert not ok and reason == "bichromatic-violation"


def test_verifier_reason_overlapping_trees():
    G, model = c5_model()
    trees = dict(model.trees)
    trees[1] = trees[0]  # both singletons: sizes stay consistent
    bad = OddMinorModel(trees, model.tree_edges, model.alpha, model.connectors)
    ok, reason = verify_odd_minor_model(G, Kt(3), bad)
    assert not ok and reason == "overlapping-trees"


def test_verifier_reason_connector_parity():
    # path-form connector of the wrong parity is rejected
    G = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    alpha = TwoColoring({0: 1, 2: 1})
    good = OddMinorModel({0: (0,), 1: (2,)}, {0: (), 1: ()}, alpha,
                         {(0, 1): Path((0, 1, 2, 3))})
    # the 3-edge route 0-1-2-3 does not even end in the second tree
    ok, reason = verify_odd_minor_model(G, Kt(2), good)
    assert not ok and reason == "connector-endpoints"
    even = OddMinorModel({0: (0,), 1: (2,)}, {0: (), 1: ()}, alpha,
                         {(0, 1): Path((0, 1, 2))})
    ok, reason = verify_odd_minor_model(G, Kt(2), even)
    assert not ok and reason == "connector-parity"


def test_verifier_reason_connector_disjointness():
    # two path connectors sharing the internal vertex 3 are rejected
    G = Graph(4, [(0, 3), (3, 1), (3, 2), (1, 2)])
    alpha = TwoColoring({0: 1, 1: 2, 2: 2})
    model = OddMinorModel(
        {0: (0,), 1: (1,), 2: (2,)}, {0: (), 1: (), 2: ()}, alpha,
        {(0, 1): Path((0, 3, 1)), (0, 2): Path((0, 3, 2)), (1, 2): (1, 2)},
    )
    ok, reason = verify_odd_minor_model(G, Kt(3), model)
    assert not ok and reason == "connector-disjointness"


def test_verifier_accepts_path_form_connectors():
    G = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    alpha = TwoColoring({0: 1, 2: 1})
    model = OddMinorModel({0: (0,), 1: (2,)}, {0: (), 1: ()}, alpha,
                          {(0, 1): Path((0, 4, 3, 2))})
    ok, reason = verify_odd_minor_model(G, Kt(2), model)
    assert ok, reason
    # reversed orientation must verify too
    rev = OddMinorModel({0: (0,), 1: (2,)}, {0: (), 1: ()}, alpha,
                        {(0, 1): Path((2, 3, 4, 0))})
    ok, reason = verify_odd_minor_model(G, Kt(2), rev)
    assert ok, reason


def test_size_guard_message_names_layer_size_and_limit(monkeypatch):
    monkeypatch.delenv("ODDMINOR_LIMIT", raising=False)
    with pytest.raises(SizeLimitError) as e:
        find_odd_clique_minor(Graph(18), 2)
    assert str(e.value) == "find_odd_clique_minor: graph has 18 > 14 vertices"


@pytest.mark.parametrize("edges", [((0, 1), (0, 1)), ((0, 1), (1, 0))])
def test_verifier_rejects_a_repeated_tree_edge(edges):
    # two copies of one edge have the |V| - 1 count of a tree on {0, 1, 2}
    model = OddMinorModel(
        trees={0: (0, 1, 2), 1: (3,)},
        tree_edges={0: edges, 1: ()},
        alpha=TwoColoring({0: 1, 1: 2, 2: 2, 3: 2}),
        connectors={(0, 1): (2, 3)},
    )
    assert verify_odd_minor_model(Kt(4), Kt(2), model) == (False, "tree-not-acyclic")


def test_verifier_rejects_a_cycle_with_the_edge_count_of_a_tree():
    # a triangle on {0, 1, 2} has the 3 edges of a tree on {0, 1, 2, 3}
    model = OddMinorModel(
        trees={0: (0, 1, 2, 3), 1: (4,)},
        tree_edges={0: ((0, 1), (1, 2), (0, 2)), 1: ()},
        alpha=TwoColoring({0: 1, 1: 2, 2: 2, 3: 1, 4: 2}),
        connectors={(0, 1): (3, 4)},
    )
    assert verify_odd_minor_model(Kt(5), Kt(2), model) == (False, "tree-not-connected")
