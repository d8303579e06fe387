"""Quality measures and their verifier, base colorers, precoloring
extension, entry points, bounds."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from oddminorkit import (
    ColoringAssignment,
    Graph,
    OddMinorFoundError,
    SizeLimitError,
    bound_M,
    bound_N,
    color_clustered,
    color_defective,
    complete,
    complete_bipartite,
    cycle,
    find_odd_clique_minor,
    find_signed_minor,
    precolor_extend,
    random_graph,
    verify_coloring,
    verify_odd_minor_model,
)
from oddminorkit.graph import bipartition, bits, blocks
from oddminorkit.coloring import (
    _achieved_cluster,
    _achieved_defect,
    _palette_fault,
    base_clustered_coloring,
    base_defective_coloring,
)

import oracles


def Kt(t):
    return complete(t)


# ---------------------------------------------------------------------------
# quality measures and the verifier
# ---------------------------------------------------------------------------


def test_verify_coloring():
    C4 = cycle(4)
    good = ColoringAssignment({0: 1, 1: 2, 2: 1, 3: 2}, 2)
    assert verify_coloring(C4, good, "defective", 0)
    assert verify_coloring(C4, good, "clustered", 1)
    allsame = ColoringAssignment({v: 1 for v in range(4)}, 2)
    assert verify_coloring(C4, allsame, "defective", 2)
    assert not verify_coloring(C4, allsame, "defective", 1)
    assert verify_coloring(C4, allsame, "clustered", 4)
    assert not verify_coloring(C4, allsame, "clustered", 3)
    assert not verify_coloring(C4, ColoringAssignment({0: 1}, 2), "defective", 2)
    out_of_palette = ColoringAssignment({0: 1, 1: 2, 2: 3, 3: 1}, 2)
    assert not verify_coloring(C4, out_of_palette, "defective", 2)
    with pytest.raises(ValueError):
        verify_coloring(C4, good, "bogus", 4)


def test_verify_coloring_refuses_colors_that_are_not_integers():
    K6 = complete(6)
    # colors 1.0, 1.2, ..., 2.0 lie in 1..2 but make six classes of a palette of two
    frac = ColoringAssignment({v: 1 + v / 5 for v in range(6)}, 2)
    assert _palette_fault(frac) == "color-not-an-integer"
    assert not verify_coloring(K6, frac, "defective", 0)
    assert not verify_coloring(K6, frac, "clustered", 1)
    ones = {v: 1 for v in range(6)}
    assert verify_coloring(K6, ColoringAssignment(ones, 1), "defective", 5)
    flags = ColoringAssignment({v: True for v in range(6)}, 1)
    assert _palette_fault(flags) == "color-not-an-integer"
    assert not verify_coloring(K6, flags, "defective", 5)
    for palette in (1.0, True, 1.5):
        c = ColoringAssignment(ones, palette)
        assert _palette_fault(c) == "color-out-of-palette"
        assert not verify_coloring(K6, c, "clustered", 6)


def random_coloring(seed):
    rng = random.Random(seed)
    G = random_graph(rng.randint(0, 12), rng.choice((0.2, 0.4, 0.7)), seed)
    k = rng.randint(1, 4)
    return G, ColoringAssignment({v: rng.randint(1, k) for v in G.vertices()}, k)


@given(st.integers(0, 10_000), st.integers(0, 12))
def test_verify_coloring_matches_the_networkx_measures(seed, value):
    G, c = random_coloring(seed)
    defect = oracles.max_class_degree(G, c.colors)
    cluster = oracles.largest_class_component(G, c.colors)
    assert _achieved_defect(G, c.colors) == defect
    assert _achieved_cluster(G, c.colors) == cluster
    assert verify_coloring(G, c, "defective", value) == (defect <= value)
    assert verify_coloring(G, c, "clustered", value) == (cluster <= value)


# ---------------------------------------------------------------------------
# base colorers
# ---------------------------------------------------------------------------


@given(st.integers(0, 120))
def test_base_defective_measures_truthfully(seed):
    rng = random.Random(seed)
    G = random_graph(rng.randint(1, 10), 0.4, seed)
    s = rng.randint(1, 4)
    c, defect = base_defective_coloring(G, s)
    assert c.palette_size <= s
    assert defect == oracles.max_class_degree(G, c.colors)
    assert verify_coloring(G, c, "defective", defect)


@given(st.integers(0, 120))
def test_base_clustered_measures_truthfully(seed):
    rng = random.Random(seed)
    G = random_graph(rng.randint(1, 10), 0.3, seed)
    c, cluster = base_clustered_coloring(G)
    assert cluster == oracles.largest_class_component(G, c.colors)
    assert verify_coloring(G, c, "clustered", cluster)


def test_base_colorers_on_easy_shapes():
    tree = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    _, defect = base_defective_coloring(tree, 2)
    assert defect == 0  # trees are properly 2-colorable greedily
    _, cluster = base_clustered_coloring(cycle(6))
    assert cluster <= 2


@given(st.integers(0, 10**6), st.data())
def test_routines_on_a_mask_answer_as_on_the_induced_piece(seed, data):
    """blocks, bipartition and both base colorers on the piece G[alive] give
    the answer on the induced, renumbered piece, read back in G's ids."""
    rng = random.Random(seed)
    G = random_graph(rng.randint(0, 10), rng.choice((0.2, 0.4, 0.7)), seed)
    alive = data.draw(st.integers(0, (1 << G.n) - 1))
    H, old_ids = oracles.induced(G, bits(alive))

    def back(c):
        return ColoringAssignment({old_ids[v]: col for v, col in c.colors.items()},
                                  c.palette_size)

    assert blocks(G, alive) == [(frozenset(old_ids[v] for v in B), bip)
                                for B, bip in blocks(H)]
    beta = bipartition(H)
    want = None if beta is None else {old_ids[v]: c for v, c in beta.color.items()}
    got = bipartition(G, alive)
    assert (None if got is None else got.color) == want
    s = data.draw(st.integers(1, 4))
    c, defect = base_defective_coloring(H, s)
    assert base_defective_coloring(G, s, alive) == (back(c), defect)
    c, cluster = base_clustered_coloring(H)
    assert base_clustered_coloring(G, alive) == (back(c), cluster)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def test_defective_palette_and_verification():
    # K_{6,6} holds no bipartite K_4 + I_3 subdivision, so it reaches the
    # base colorer; an unbounded subdivision search used to hang on it
    for G in (complete_bipartite(3, 3), complete_bipartite(4, 4), cycle(6),
              complete_bipartite(6, 6)):
        c, defect = color_defective(G, 3)
        assert c.palette_size == 9
        assert defect == oracles.max_class_degree(G, c.colors)
        assert verify_coloring(G, c, "defective", defect)


def test_clustered_palette_and_verification():
    for G in (complete_bipartite(4, 4), cycle(8), complete_bipartite(6, 6)):
        c, cluster = color_clustered(G, 3)
        assert c.palette_size == 17
        assert cluster == oracles.largest_class_component(G, c.colors)
        assert verify_coloring(G, c, "clustered", cluster)


def test_odd_cycle_surfaces_certificate():
    # non-bipartite hosts still reach the exhaustive search at t = 3, and a
    # bipartite one does at t = 2, where any edge is an odd K_2
    seeded = next(G for G in (random_graph(9, 0.4, s) for s in range(100))
                  if bipartition(G) is None)
    for G, t in ((cycle(5), 3), (seeded, 3), (cycle(4), 2)):
        for color in (color_defective, color_clustered):
            with pytest.raises(OddMinorFoundError) as exc:
                color(G, t)
            ok, reason = verify_odd_minor_model(G, Kt(t), exc.value.model)
            assert ok, reason


def test_precheck_finds_the_odd_minor_of_a_small_host():
    with pytest.raises(OddMinorFoundError):
        color_defective(cycle(5), 3)


def random_bipartite_host(seed):
    """A seeded bipartite graph on at most 10 vertices, sides interleaved."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    side = [rng.randint(0, 1) for _ in range(n)]
    p = rng.choice((0.3, 0.5, 0.8))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if side[u] != side[v] and rng.random() < p])


BIPARTITE_HOSTS = [complete_bipartite(3, 3), complete_bipartite(4, 5), cycle(8)] + [
    random_bipartite_host(seed) for seed in range(3)
]


def test_bipartite_hosts_skip_the_exhaustive_precheck(monkeypatch):
    # the precheck's detector finds no block that may hold odd K_t, so it
    # answers before the exhaustive search builds its subset table
    def no_table(G):
        raise AssertionError("exhaustive odd-clique search on a bipartite host")

    monkeypatch.setattr("oddminorkit.signed._connected_subsets", no_table)
    for t in (3, 4):
        for G in BIPARTITE_HOSTS:
            c, defect = color_defective(G, t)
            assert verify_coloring(G, c, "defective", defect)
            c, cluster = color_clustered(G, t)
            assert verify_coloring(G, c, "clustered", cluster)


def test_bipartite_shortcut_matches_the_exhaustive_oracle():
    for seed in range(30):
        G = random_bipartite_host(seed)
        assert bipartition(G) is not None
        for t in (3, 4):
            assert find_odd_clique_minor(G, t) is None
            assert find_signed_minor(G, complete(t), complete(t).edges()) is None


def test_precheck_obeys_the_size_guard(monkeypatch):
    # a non-bipartite 5-vertex host under a guard of 4: the search is refused
    monkeypatch.setenv("ODDMINOR_LIMIT", "4")
    with pytest.raises(SizeLimitError) as e:
        color_defective(cycle(5), 3)
    assert str(e.value) == "find_odd_clique_minor: graph has 5 > 4 vertices"
    # a bipartite host too: the precheck is the detector, guard first
    with pytest.raises(SizeLimitError) as e:
        color_defective(cycle(6), 3)
    assert str(e.value) == "find_odd_clique_minor: graph has 6 > 4 vertices"


def test_trace_reports_recursion_cases():
    trace: list = []
    color_defective(complete_bipartite(3, 3), 3, trace=trace)
    assert trace and all(isinstance(x, str) for x in trace)


# K_{4,9} at t = 3 has no separation of order <= 3 and holds a bipartite
# K_4 + I_3 subdivision, so the recursion reaches the decompose step at once;
# the edges (4,5) and (6,7) inside the 9-side make that step find an odd K_3
K49 = complete_bipartite(4, 9)
K49_ODD = Graph(13, list(K49.edges()) + [(4, 5), (6, 7)])


@pytest.mark.parametrize("mode", ["defective", "clustered"])
def test_decompose_step_colors_a_complete_bipartite_host(mode):
    color = color_defective if mode == "defective" else color_clustered
    trace: list = []
    g, value = color(K49, 3, trace=trace)
    assert trace == ["decompose"]
    assert verify_coloring(K49, g, mode, value)


@pytest.mark.parametrize("color", [color_defective, color_clustered])
def test_decompose_step_raises_a_verified_odd_minor(color):
    trace: list = []
    with pytest.raises(OddMinorFoundError) as e:
        color(K49_ODD, 3, trace=trace)
    assert trace == ["decompose"]
    ok, reason = verify_odd_minor_model(K49_ODD, Kt(3), e.value.model)
    assert ok, reason


@pytest.mark.parametrize("color", [color_defective, color_clustered])
@pytest.mark.parametrize("shift, trace_head", [
    # pendant path 0-13-14: the odd K_3 surfaces on the first split side
    (0, ["split:order=1", "decompose"]),
    # the same host renumbered v -> v + 2 mod 15, so the path comes first and
    # the odd K_3 surfaces on the second split side, under nontrivial ids
    (2, ["split:order=1", "base:|V|=2", "decompose"]),
])
def test_split_maps_a_surfaced_model_back_to_the_host(color, shift, trace_head):
    # every piece keeps the host's ids, so the model found on the K_{4,9}
    # side of the split lies on that side and verifies on the whole host
    n = 15
    edges = list(K49_ODD.edges()) + [(0, 13), (13, 14)]
    G = Graph(n, [((u + shift) % n, (v + shift) % n) for u, v in edges])
    trace: list = []
    with pytest.raises(OddMinorFoundError) as e:
        color(G, 3, trace=trace)
    assert trace == trace_head
    model = e.value.model
    side = {(v + shift) % n for v in K49_ODD.vertices()}
    assert {v for vs in model.trees.values() for v in vs} <= side
    ok, reason = verify_odd_minor_model(G, Kt(3), model)
    assert ok, reason


@given(st.integers(0, 150))
def test_precoloring_contract(seed):
    rng = random.Random(seed)
    t = 3
    G = random_graph(rng.randint(1, 11), 0.3, seed)
    zs = rng.sample(range(G.n), min(G.n, rng.randint(0, 4 * t - 7)))
    d = 2 * t - 2
    k = d + 4 * t - 7
    f = {z: rng.randint(1, k) for z in zs}

    def base(H, alive):
        return base_defective_coloring(H, d, alive)[0]

    try:
        g = precolor_extend(G, frozenset(zs), f, t, d, base)
    except OddMinorFoundError as e:
        ok, reason = verify_odd_minor_model(G, Kt(t), e.model)
        assert ok, reason
        return
    assert g.palette_size == k
    for z in zs:
        assert g(z) == f[z]
        for w in bits(G.adj_mask(z)):
            if w not in set(zs):
                assert g(w) != g(z)
    assert set(g.colors) == set(G.vertices())
    assert all(1 <= col <= k for col in g.colors.values())


def test_precolor_extend_validates_input():
    G = cycle(4)

    def base(H, alive):
        return base_defective_coloring(H, 4, alive)[0]

    with pytest.raises(ValueError):
        precolor_extend(G, frozenset({0}), {}, 3, 4, base)
    with pytest.raises(ValueError):
        precolor_extend(G, frozenset({0}), {0: 99}, 3, 4, base)
    with pytest.raises(ValueError):
        precolor_extend(G, frozenset({0, 1, 2, 3, 4, 5}), {v: 1 for v in range(6)},
                        3, 4, base)
    with pytest.raises(ValueError):
        precolor_extend(G, frozenset(), {}, 1, 4, base)
    # precolored ids outside the graph
    for z in (99, -1):
        with pytest.raises(ValueError):
            precolor_extend(cycle(12), frozenset({z}), {z: 1}, 3, 4, base)


# ---------------------------------------------------------------------------
# bound calculators
# ---------------------------------------------------------------------------


def test_bound_m_frozen_values():
    assert bound_M(1, 7, 100.0, 50.0) == 6.0
    assert bound_M(2, 3, 4.0, 2.0) == 2.0 * 3 * (4.0 - 2) / 2 + 4.0 == 10.0
    expected = (5.0 - 3) * (math.comb(3, 2) * (3 - 1) + 3.0 / 2) + 5.0
    assert bound_M(3, 3, 5.0, 3.0) == expected == 20.0


def test_bound_m_validates():
    with pytest.raises(ValueError):
        bound_M(0, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        bound_M(2, 3, -1.0, 1.0)
    with pytest.raises(ValueError):
        bound_N(2, 3, c0=0.0)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 40), st.integers(0, 40))
def test_bound_m_matches_rederivation(s, t, a, b):
    d1, d2 = float(a), float(b)
    got = bound_M(s, t, d1, d2)
    if s == 1:
        assert got == t - 1
    elif s == 2:
        assert got == d2 * t * (d1 - 2) / 2 + d1
    else:
        assert got == (d1 - s) * (math.comb(int(d2), s - 1) * (t - 1) + d2 / 2) + d1


def test_bound_n_specializes_bound_m():
    for s, t in [(1, 5), (2, 3), (4, 3)]:
        p2 = (s + t) ** 2
        assert bound_N(s, t, 10.0) == bound_M(s, t, 20.0 * p2, 10.0 * p2)
