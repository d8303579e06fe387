"""End-to-end acceptance suite: one test per shipped guarantee.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure) of the form ``criterion N: PASS (<workload>; <elapsed>s < <budget>s)``
and asserts both exactness (zero tolerance everywhere) and the runtime budget.
"""

import itertools
import math
import random
import time

from oddminorkit import (
    Decomposition,
    Graph,
    OddMinorFoundError,
    SignedGraph,
    bipartition,
    bound_M,
    build_odd_clique_model,
    chorded_subdivision,
    color_clustered,
    color_defective,
    complete,
    complete_bipartite,
    cut_edges,
    find_odd_clique_minor,
    find_signed_minor,
    odd_s_paths_dichotomy,
    precolor_extend,
    random_graph,
    resign,
    serialize_certificate,
    signatures_equivalent,
    structure_theorem,
    verify_certificate,
    verify_coloring,
    verify_odd_minor_model,
)
from oddminorkit.coloring import base_defective_coloring
from oddminorkit.certificates import parse_certificate
from oddminorkit.graph import bits

import oracles
from test_certificates import all_kinds
from test_signed import fundamental_cycles


def Kt(t):
    return complete(t)


def all_graphs(n):
    """Every labeled simple graph on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def report(num, workload, t0, budget):
    elapsed = time.time() - t0
    print(f"criterion {num}: PASS ({workload}; {elapsed:.1f}s < {budget}s)")
    assert elapsed < budget


# ---------------------------------------------------------------------------
# 1. odd-K_3 presence is exactly non-bipartiteness
# ---------------------------------------------------------------------------


def test_criterion_01_odd_k3_iff_non_bipartite():
    t0 = time.time()
    K3 = Kt(3)

    def agrees(G):
        # every model found is checked, so the detector's renaming of the
        # signed model is verified on every host; a bipartite host has no
        # block that may hold odd K_3, so the engine answers it before any
        # subset table is built, and its verdict is asserted directly too
        model = find_odd_clique_minor(G, 3)
        bipartite = bipartition(G) is not None
        assert (model is None) == bipartite, G
        if bipartite:
            assert find_signed_minor(G, K3, K3.edges()) is None, G
        if model is not None:
            ok, reason = verify_odd_minor_model(G, K3, model)
            assert ok, (G, reason)

    checked = 0
    for n in range(1, 7):
        for G in all_graphs(n):
            agrees(G)
            checked += 1
    rng = random.Random(1)
    for i in range(10_000):
        agrees(random_graph(8, rng.choice((0.2, 0.35, 0.5, 0.7)), seed=i))
    report(1, f"{checked} exhaustive n<=6 + 10000 random n=8, 0 disagreements",
           t0, 600)


# ---------------------------------------------------------------------------
# 2. complete bipartite graphs never contain an odd K_3 minor
# ---------------------------------------------------------------------------


def test_criterion_02_complete_bipartite_has_no_odd_k3():
    t0 = time.time()
    K3 = Kt(3)
    for m in range(1, 5):
        for n in range(1, 5):
            G = complete_bipartite(m, n)
            assert find_odd_clique_minor(G, 3) is None
            assert find_signed_minor(G, K3, K3.edges()) is None
    report(2, "K_{m,n} for 1<=m,n<=4 all absent", t0, 60)


# ---------------------------------------------------------------------------
# 3. packing/cover dichotomy for odd S-paths, independently re-verified
# ---------------------------------------------------------------------------


def test_criterion_03_odd_s_path_dichotomy():
    t0 = time.time()
    rng = random.Random(3)
    packings = covers = 0
    for i in range(1_000):
        n = rng.randint(3, 12)
        G = random_graph(n, rng.choice((0.15, 0.25, 0.35, 0.5)), seed=10_000 + i)
        S = frozenset(rng.sample(range(n), rng.randint(2, min(6, n))))
        l = rng.randint(1, 3)
        res = odd_s_paths_dichotomy(G, S, l, limit=12)
        if res.is_packing:
            packings += 1
            assert len(res.packing) == l
            used = set()
            for p in res.packing:
                assert p.is_path_of(G)
                assert p.length % 2 == 1
                ends = set(p.ends)
                assert len(ends) == 2 and ends <= S
                assert not used & set(p.vertices)
                used |= set(p.vertices)
        else:
            covers += 1
            X = res.cover
            assert len(X) <= 2 * l - 2
            G2 = G.subgraph_on(set(G.vertices()) - set(X))
            assert oracles.all_odd_s_paths(G2, S - set(X)) == []
    report(3, f"1000 random instances ({packings} packings, {covers} covers)",
           t0, 900)


# ---------------------------------------------------------------------------
# 4. odd clique construction from a chorded bipartite subdivision
# ---------------------------------------------------------------------------


def test_criterion_04_odd_clique_constructor():
    t0 = time.time()
    for t in (2, 3):
        for seed in range(100):
            G, emb, chords = chorded_subdivision(2 * t - 2, t, t - 1, seed)
            model = build_odd_clique_model(G, emb, chords)
            ok, reason = verify_odd_minor_model(G, Kt(t), model)
            assert ok, (t, seed, reason)
    report(4, "200 chorded instances (t=2,3), 100% verified", t0, 600)


# ---------------------------------------------------------------------------
# 5. decomposition contract of the structure theorem
# ---------------------------------------------------------------------------


def test_criterion_05_decomposition_contract():
    t0 = time.time()
    count = 0
    for t in (2, 3):
        for num_chords in range(t - 1):
            for seed in range(10):
                G, emb, _ = chorded_subdivision(2 * t - 2, t, num_chords, seed)
                out = structure_theorem(G, t, emb=emb, limit=G.n + 4 * G.m)
                assert isinstance(out, Decomposition), (t, num_chords, seed)
                assert len(out.X) <= 2 * t - 4
                assert bipartition(G.subgraph_on(out.U)) is not None
                assert len(out.U) >= t + 3
                assert len(out.retained_branch) >= (3 * t - 2) - len(out.X)
                count += 1
    report(5, f"{count} decompositions (t=2,3), contract exact", t0, 600)


# ---------------------------------------------------------------------------
# 6. coloring palette bounds on an odd-K_3-free corpus
# ---------------------------------------------------------------------------


def random_bipartite(m, n, p, seed):
    rng = random.Random(seed)
    return Graph(m + n, [(a, m + b) for a in range(m) for b in range(n)
                         if rng.random() < p])


def one_subdivision(G):
    edges = []
    nxt = G.n
    for u, v in G.edges():
        edges += [(u, nxt), (nxt, v)]
        nxt += 1
    return Graph(nxt, edges)


def test_criterion_06_coloring_bounds_on_corpus():
    t0 = time.time()
    corpus = []
    for seed in range(15):
        m = 3 + seed % 5
        n = 14 - m if seed % 3 == 0 else 3 + (seed * 7) % 5
        corpus.append(random_bipartite(m, n, 0.5, seed))
    subdivided = 0
    for seed in range(60):
        G0 = random_graph(3 + seed % 4, 0.6, seed=600 + seed)
        if G0.n + G0.m > 14:
            continue
        corpus.append(one_subdivision(G0))
        subdivided += 1
        if subdivided == 15:
            break
    assert subdivided == 15
    certified = 0
    for seed in range(40):
        n = 8 + seed % 5
        G = random_graph(n, 0.15, seed=6_000 + seed)
        if find_odd_clique_minor(G, 3, limit=14) is None:
            corpus.append(G)
            certified += 1
        if certified == 10:
            break
    assert certified >= 8
    for G in corpus:
        c, defect = color_defective(G, 3)
        assert c.palette_size <= 9
        assert defect == oracles.max_class_degree(G, c.colors)
        assert verify_coloring(G, c, "defective", defect)
        c, cluster = color_clustered(G, 3)
        assert c.palette_size <= 17
        assert cluster == oracles.largest_class_component(G, c.colors)
        assert verify_coloring(G, c, "clustered", cluster)
    report(6, f"{len(corpus)} corpus graphs ({certified} detector-certified), "
           "palettes <=9 / <=17", t0, 1200)


# ---------------------------------------------------------------------------
# 7. precoloring extension contract
# ---------------------------------------------------------------------------


def test_criterion_07_precoloring_contract():
    t0 = time.time()
    t = 3
    d = 2 * t - 2
    k = d + 4 * t - 7
    extended = surfaced = 0
    for seed in range(500):
        rng = random.Random(seed)
        G = random_graph(rng.randint(1, 11), 0.3, seed)
        zs = rng.sample(range(G.n), min(G.n, rng.randint(0, 4 * t - 7)))
        f = {z: rng.randint(1, k) for z in zs}
        try:
            g = precolor_extend(G, frozenset(zs), f, t, d,
                                lambda H, alive: base_defective_coloring(H, d, alive)[0])
        except OddMinorFoundError as e:
            ok, reason = verify_odd_minor_model(G, Kt(t), e.model)
            assert ok, (seed, reason)
            surfaced += 1
            continue
        for z in zs:
            assert g(z) == f[z]  # condition (a)
            for w in bits(G.adj_mask(z)):
                if w not in set(zs):
                    assert g(w) != g(z)  # condition (b)
        assert set(g.colors) == set(G.vertices())  # total
        assert all(1 <= col <= k for col in g.colors.values())  # in the palette
        extended += 1
    report(7, f"500 instances: {extended} extended, {surfaced} odd minors, "
           "100% contract", t0, 600)


# ---------------------------------------------------------------------------
# 8. re-signing algebra, exhaustively over all graphs with n <= 7
# ---------------------------------------------------------------------------


def test_criterion_08_resign_preserves_balance_exhaustively():
    t0 = time.time()
    rng = random.Random(8)
    checked = 0
    for n in range(1, 8):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            G = Graph(n, edges)
            sigma = frozenset(e for e in edges if rng.getrandbits(1))
            X = [v for v in range(n) if rng.getrandbits(1)]
            sigma2 = resign(SignedGraph(G, sigma), X).signature
            for cyc in fundamental_cycles(G):
                ce = {tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)])))
                      for i in range(len(cyc))}
                # balance before and after, computed independently of resign
                assert len(ce & sigma) % 2 == len(ce & sigma2) % 2, (G, X)
            checked += 1
    for i in range(1_000):
        r = random.Random(800 + i)
        n = r.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if r.getrandbits(1)]
        SG = SignedGraph(Graph(n, edges),
                         frozenset(e for e in edges if r.getrandbits(1)))
        X = {v for v in range(n) if r.getrandbits(1)}
        target = resign(SG, X).signature
        W = signatures_equivalent(SG, target)
        assert W is not None
        assert SG.signature ^ cut_edges(SG.graph, W) == target
    report(8, f"{checked} graphs exhaustive n<=7 + 1000 round-trips", t0, 300)


# ---------------------------------------------------------------------------
# 9. palette-size bound calculator
# ---------------------------------------------------------------------------


def test_criterion_09_bound_calculator():
    t0 = time.time()
    for t in range(1, 101):
        assert bound_M(1, t, 5.0, 3.0) == t - 1
    rng = random.Random(9)
    for _ in range(50):
        s = rng.randint(2, 8)
        t = rng.randint(1, 20)
        d1 = round(rng.uniform(0, 50), 3)
        d2 = float(rng.randint(0, 40))
        got = bound_M(s, t, d1, d2)
        if s == 2:
            assert got == d2 * t * (d1 - 2) / 2 + d1
        else:
            assert got == (d1 - s) * (
                math.comb(int(d2), s - 1) * (t - 1) + d2 / 2) + d1
    report(9, "bound_M(1,t)=t-1 for t<=100 + 50 random tuples re-derived",
           t0, 1)


# ---------------------------------------------------------------------------
# 10. certificate round-trip for every kind
# ---------------------------------------------------------------------------


def test_criterion_10_certificate_round_trip():
    t0 = time.time()
    kinds = set()
    for G, cert in all_kinds():
        text = serialize_certificate(cert)
        again = parse_certificate(text)
        assert serialize_certificate(again) == text  # byte-identical
        ok, reason = verify_certificate(G, again)
        assert ok, (cert.kind, reason)
        kinds.add(cert.kind)
    assert len(kinds) == 7
    report(10, "7 certificate kinds, byte-identical round-trips", t0, 60)
