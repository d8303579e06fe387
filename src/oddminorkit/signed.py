"""Signed graphs: re-signing, balance, signature equivalence, signed minors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import Graph, Path, bits, blocks, check_size, _norm_edge, _two_color

Edge = tuple[int, int]


def _edge_set(edges: Iterable[Edge]) -> frozenset[Edge]:
    """The edges, normalised, as a set; ValueError when one names a vertex
    by a bool, an int equal to 0 or 1 that would be read as that vertex."""
    edges = list(edges)
    if any(type(u) is bool or type(v) is bool for u, v in edges):
        raise ValueError(f"signature {edges} names a vertex by a bool")
    return frozenset(_norm_edge(u, v) for u, v in edges)


@dataclass(frozen=True)
class SignedGraph:
    """A graph with a signature: the set of negative edges."""

    graph: Graph
    signature: frozenset[Edge]

    def __post_init__(self):
        sig = _edge_set(self.signature)
        object.__setattr__(self, "signature", sig)
        for e in sig:
            if not self.graph.has_edge(*e):
                raise ValueError(f"signature edge {e} not in graph")

    def is_negative(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.signature


def cut_edges(G: Graph, X: Iterable[int]) -> frozenset[Edge]:
    """The edge cut delta(X): edges with exactly one end in X."""
    Xs = set(X)
    return frozenset(e for e in G.edges() if (e[0] in Xs) != (e[1] in Xs))


def resign(SG: SignedGraph, X: Iterable[int]) -> SignedGraph:
    """Replace the signature by its symmetric difference with the cut of X."""
    Xs = set(X)
    for v in Xs:
        if not 0 <= v < SG.graph.n:
            raise ValueError(f"unknown vertex id {v}")
    return SignedGraph(SG.graph, SG.signature ^ cut_edges(SG.graph, Xs))


def is_balanced(SG: SignedGraph, cycle: Path) -> bool:
    """True iff the cycle carries an even number of negative edges.

    The cycle is given by its vertex sequence; the closing edge back to the
    first vertex is implied and must exist.
    """
    vs = cycle.vertices
    if len(vs) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if not cycle.is_path_of(SG.graph) or not SG.graph.has_edge(vs[-1], vs[0]):
        raise ValueError("input is not a cycle of the graph")
    edges = list(zip(vs, vs[1:])) + [(vs[-1], vs[0])]
    neg = sum(1 for u, v in edges if SG.is_negative(u, v))
    return neg % 2 == 0


def signatures_equivalent(
    SG: SignedGraph, sigma2: Iterable[Edge]
) -> Optional[frozenset[int]]:
    """A re-signing set X with sigma2 = signature ^ delta(X), or None: the
    vertices on side 1 of `_sides` for the edges where the two differ."""
    G = SG.graph
    target = _edge_set(sigma2)
    for e in target:
        if not G.has_edge(*e):
            raise ValueError(f"signature edge {e} not in graph")
    side = _sides(G, SG.signature ^ target)
    if side is None:
        return None
    return frozenset(v for v in G.vertices() if side[v])


def _sides(G: Graph, odd: frozenset[Edge]) -> Optional[list[int]]:
    """A side, 0 or 1, per vertex of G such that exactly the edges in odd
    join the two sides, or None if there is none: `_two_color` with the
    even edges keeping their ends' color, each component's lowest vertex on
    side 0. (G, odd) is balanced iff the sides exist."""
    same = [G.adj_mask(v) for v in range(G.n)]
    for u, v in odd:
        same[u] &= ~(1 << v)
        same[v] &= ~(1 << u)
    color, _, bad = _two_color(G, same=same)
    return None if bad else [color[v] - 1 for v in range(G.n)]


# ---------------------------------------------------------------------------
# Signed minor models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedMinorModel:
    """Witness that (G, E(G)) contains (H, Sigma_H) as a minor.

    trees: pattern vertex -> ordered vertex list of a subtree of G
    tree_edges: pattern vertex -> edges of that subtree
    tree_colorings: pattern vertex -> {G-vertex: 1|2}, proper on the subtree
    edge_witness: pattern edge -> G edge joining the two subtrees
    """

    trees: dict[int, tuple[int, ...]]
    tree_edges: dict[int, tuple[Edge, ...]]
    tree_colorings: dict[int, dict[int, int]]
    edge_witness: dict[Edge, Edge]


def _root(parent: dict[int, int], v: int) -> int:
    """Union-find root of v, halving the path on the way up."""
    while parent[v] != v:
        parent[v] = parent[parent[v]]
        v = parent[v]
    return v


def _tree_fault(
    G: Graph, H: Graph, trees: dict[int, tuple[int, ...]],
    tree_edges: dict[int, tuple[Edge, ...]],
) -> Optional[str]:
    """Why trees/tree_edges are not pairwise disjoint subtrees of G, one per
    vertex of H, or None when they are. Shared by both model verifiers."""
    if set(trees) != set(H.vertices()):
        return "tree-map-domain"
    seen: set[int] = set()
    for u in H.vertices():
        vs = trees[u]
        if not vs:
            return "empty-tree"
        vset = set(vs)
        if len(vset) != len(vs):
            return "repeated-tree-vertex"
        if vset & seen:
            return "overlapping-trees"
        seen |= vset
        if any(not 0 <= v < G.n for v in vs):
            return "tree-vertex-out-of-range"
        te = tree_edges.get(u, ())
        if len(te) != len(vs) - 1:
            return "tree-not-acyclic"
        for a, b in te:
            if a not in vset or b not in vset or not G.has_edge(a, b):
                return "tree-edge-invalid"
        # a repeated edge meets the |V| - 1 count but spans no tree
        if len({_norm_edge(a, b) for a, b in te}) != len(te):
            return "tree-not-acyclic"
        # |V| - 1 distinct edges span a tree iff none closes a cycle
        root = {v: v for v in vs}
        for a, b in te:
            a, b = _root(root, a), _root(root, b)
            if a == b:
                return "tree-not-connected"
            root[a] = b
    return None


def verify_signed_minor_model(
    G: Graph, H: Graph, sigma_h: Iterable[Edge], model: SignedMinorModel
) -> tuple[bool, str]:
    """Check all conditions; returns (ok, reason)."""
    try:
        sigma = _edge_set(sigma_h)
    except ValueError:
        return False, "signature-bool-vertex"
    for e in sigma:
        if not H.has_edge(*e):
            return False, "signature-not-in-H"
    fault = _tree_fault(G, H, model.trees, model.tree_edges)
    if fault is not None:
        return False, fault
    for u in H.vertices():
        vs = model.trees[u]
        c = model.tree_colorings[u]
        if set(c) != set(vs) or any(c[v] not in (1, 2) for v in vs):
            return False, "coloring-domain"
        if any(c[a] == c[b] for a, b in model.tree_edges.get(u, ())):
            return False, "coloring-not-proper"
    if set(model.edge_witness) != set(_edge_set(H.edges())):
        return False, "witness-map-domain"
    for he, ge in model.edge_witness.items():
        u, v = he
        a, b = ge
        if not G.has_edge(a, b):
            return False, "witness-not-an-edge"
        if a in set(model.trees[v]) and b in set(model.trees[u]):
            a, b = b, a
        if a not in set(model.trees[u]) or b not in set(model.trees[v]):
            return False, "witness-endpoints"
        mono = model.tree_colorings[u][a] == model.tree_colorings[v][b]
        if mono != (he in sigma):
            return False, "witness-parity"
    return True, "ok"


def _connected_subsets(G: Graph, most: Optional[int] = None) -> list[tuple[int, int]]:
    """All connected vertex subsets, or those of at most `most` vertices, as
    (mask, neighbourhood) pairs, ordered by size then mask; the neighbourhood
    is the vertices outside the mask that are adjacent to it.

    Built one size layer at a time: layer k + 1 is every m | b with m in
    layer k and b in N(m), and N(m | b) = (N(m) | N(b)) - (m | b) is
    computed once, when that set is first made.
    """
    adj = [G.adj_mask(v) for v in range(G.n)]
    layer = {1 << v: adj[v] for v in range(G.n)}
    out: list[tuple[int, int]] = []
    size = 1
    while layer:
        out += sorted(layer.items())
        if size == most:
            break
        size += 1
        grown: dict[int, int] = {}
        for m, nb in layer.items():
            rest = nb
            while rest:
                b = rest & -rest
                rest ^= b
                cand = m | b
                if cand not in grown:
                    grown[cand] = (nb | adj[b.bit_length() - 1]) & ~cand
        layer = grown
    return out


def _disagreement_tree(G: Graph, mask: int, c: int) -> Optional[list[Edge]]:
    """The DFS tree, from the lowest vertex of mask, of the edges of G[mask]
    whose ends get different colors under c (bit set = color 2), or None when
    it does not span mask. It spans mask exactly when c is proper on some
    spanning tree of G[mask]. Each edge is (parent, child), not normalised."""
    low = mask & -mask
    seen = low
    stack = [low.bit_length() - 1]
    edges: list[Edge] = []
    while stack:
        v = stack.pop()
        other = mask & ~c if (c >> v) & 1 else c
        for w in bits(G.adj_mask(v) & other & ~seen):
            seen |= 1 << w
            edges.append((v, w))
            stack.append(w)
    return edges if seen == mask else None


def _valid_colorings(G: Graph, mask: int) -> list[int]:
    """Color masks c (bit set = color 2), ascending, that have a disagreement
    tree: exactly the colorings proper on some spanning tree of G[mask].

    The lowest vertex is pinned to color 1; flipping colors is symmetric for
    odd-minor use but NOT for general signed patterns, so callers must try
    both c and its complement.
    """
    free = mask & (mask - 1)
    out = []
    c = 0
    while True:  # every submask of free, ascending
        if _disagreement_tree(G, mask, c) is not None:
            out.append(c)
        if c == free:
            return out
        c = (c - free) & free


def _mono_edge(G: Graph, m1: int, c1: int, m2: int, c2: int) -> Optional[Edge]:
    """A G-edge between the two colored subsets whose ends get equal colors;
    with c2 complemented, one whose ends get different colors."""
    ones1, zeros1 = m1 & c1, m1 & ~c1
    ones2, zeros2 = m2 & c2, m2 & ~c2
    for (a_side, b_side) in ((ones1, ones2), (zeros1, zeros2)):
        for v in bits(a_side):
            hit = G.adj_mask(v) & b_side
            if hit:
                return _norm_edge(v, (hit & -hit).bit_length() - 1)
    return None


def _eligible_block_masks(G: Graph, least: int, balanced: bool) -> list[int]:
    """Vertex masks of the blocks of G that can hold a smallest model of a
    2-connected pattern whose models have at least `least` vertices: at least
    that many vertices, and not bipartite unless the pattern is balanced
    (find_signed_minor says why)."""
    return [sum(1 << v for v in B) for B, bipartite in blocks(G)
            if len(B) >= least and (balanced or not bipartite)]


def _least_size(H: Graph, sigma: frozenset[Edge], most: int) -> int:
    """h + tau, a lower bound on the total size of every model of (H, sigma)
    (find_signed_minor says why), where tau is the fewest pattern vertices
    that meet every balanced triangle: one with an even number of negative
    edges. A tau above most is not searched for: the answer is then h +
    most + 1.

    tau comes by iterative deepening: a cover of k vertices holds a vertex
    of the first balanced triangle it does not yet meet, so each level
    branches on that triangle's three vertices."""
    tris = []
    for a in range(H.n):
        for b in bits(H.adj_mask(a) >> (a + 1) << (a + 1)):
            ab = (a, b) in sigma
            for c in bits(H.adj_mask(a) & H.adj_mask(b) >> (b + 1) << (b + 1)):
                if ab == ((a, c) in sigma) ^ ((b, c) in sigma):
                    tris.append(1 << a | 1 << b | 1 << c)

    tau = 0
    while tau <= most and not _meets(tris, 0, tau):
        tau += 1
    return H.n + tau


def _first_embedding(
    G: Graph, earlier: list[list[int]], increasing: bool
) -> Optional[list[int]]:
    """The first tuple (v_0, .., v_{h-1}) of distinct vertices of G, in
    lexicographic order, with v_i adjacent to v_j for each j in earlier[i];
    or None. Vertex i takes the lowest vertex left among the common
    neighbours of the v_j. With increasing, only increasing tuples are
    tried: for a complete pattern the first tuple is one, as reordering a
    clique's vertices gives a clique, so this only prunes. A vertex whose
    next depth has no candidate is not descended into, which skips only
    tuples that fail."""
    h = len(earlier)
    adj = list(map(G.adj_mask, range(G.n)))
    full = (1 << G.n) - 1
    vs = [0] * h
    cands = [full] + [0] * (h - 1)  # the vertices still to try at each depth
    used = 0  # vs[:i]
    i = 0
    while True:
        c = cands[i]
        if c:
            b = c & -c
            cands[i] = c ^ b
            vs[i] = b.bit_length() - 1
            if i + 1 == h:
                return vs
            m = full & -(b << 1) if increasing else full & ~(used | b)
            for j in earlier[i + 1]:
                m &= adj[vs[j]]
            if m:
                used |= b
                i += 1
                cands[i] = m
        elif i:
            i -= 1
            used ^= 1 << vs[i]
        else:
            return None


def _meets(tris: list[int], cover: int, k: int) -> bool:
    """Whether cover plus k more vertices meets every triangle mask in tris."""
    for tri in tris:
        if not tri & cover:
            return k > 0 and any(_meets(tris, cover | 1 << v, k - 1) for v in bits(tri))
    return True


def _core(G: Graph) -> Graph:
    """The series-parallel core of G, renumbered in vertex order: while one
    exists, a vertex of degree at most 1 is deleted, or one of degree 2 is
    replaced by an edge joining its two neighbours (a parallel edge merges).
    What is left is empty or has minimum degree at least 3.

    For t >= 4 the core has a K_t minor iff G has one. Each step leaves a
    minor of G, G - v or G / vu for a neighbour u of the degree-2 vertex v,
    so a model in the core is one in G. Back, take a K_t model in G: a
    one-vertex branch set needs t - 1 >= 3 neighbours, so either v is in a
    larger branch set, with a neighbour u in it, and contracting vu keeps
    the model, or v is in no branch set, and deleting it keeps the model.
    Both G / vu and G - v are subgraphs of the step's result. So the core
    has no edge iff G has no K_4 minor (Dirac 1952; Duffin 1965): a graph
    of minimum degree 3 has one."""
    adj = list(map(G.adj_mask, range(G.n)))
    alive = todo = (1 << G.n) - 1
    while todo:
        b = todo & -todo
        todo ^= b
        nb = adj[b.bit_length() - 1]
        if nb.bit_count() > 2:
            continue
        alive ^= b
        ends = bits(nb)
        for w in ends:
            adj[w] &= ~b
        if len(ends) == 2:
            u, w = ends
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        todo |= nb
    keep = bits(alive)
    new = {v: i for i, v in enumerate(keep)}
    return Graph(len(keep), [(new[v], new[w]) for v in keep for w in bits(adj[v]) if v < w])


def has_clique_minor(G: Graph, t: int) -> bool:
    """Unsigned K_t minor test. For t >= 4 it reads only the core of G
    (`_core`): at t = 4 the answer is whether the core has an edge, and at
    t >= 5 it searches the core for t disjoint, pairwise adjacent connected
    subsets, taken in increasing minimum vertex, over its own subset table.
    It shares no table with find_signed_minor."""
    if t <= 0:
        return True
    if t >= 4:
        G = _core(G)
        if t == 4:
            return G.m > 0
    if G.n < t:
        return False
    conn = _connected_subsets(G)

    parts: list[int] = []

    def rec(used: int, lowbound: int) -> bool:
        if len(parts) == t:
            return True
        for m, nb in conn:
            if m & used or (m & -m) < lowbound:
                continue
            if any(nb & p == 0 for p in parts):
                continue
            parts.append(m)
            if rec(used | m, m & -m):
                return True
            parts.pop()
        return False

    found = rec(0, 0)
    # rec's closure holds rec itself; dropping the name breaks that cycle, so
    # what rec holds is freed now and not at the cyclic GC's next full pass
    del rec
    return found


def find_signed_minor(
    G: Graph,
    H: Graph,
    sigma_h: Iterable[Edge],
    limit: Optional[int] = None,
) -> Optional[SignedMinorModel]:
    """Exhaustive search for a model of (H, sigma_h) inside (G, E(G)).

    Pattern vertex i gets a connected vertex subset of G with a 2-coloring
    proper on a spanning tree of it; each pattern edge ji needs a G-edge
    between the two subsets whose ends get equal colors if ji is negative
    and different colors if it is positive. The passes run in this order:
    the size guard; the lower bound L = h + tau on every model's size
    (below), with None as the answer when G has fewer than L vertices; at
    L = h, the size-h pass (below), a bitmask search over every vertex of G
    that answers with its first model and builds no table; and only when it
    finds none, or at L > h: for a 2-connected H, the eligible blocks of G
    (below), with None as the answer when there are none or, for a
    complete H with h >= 4, when G has no K_h minor (the pretest, below);
    at L > h the L pass, which caps the total size at L and so reads the
    table cut at L - h + 1 vertices, and answers with its first model; and
    only if no model of size L was found, the branch-and-bound pass over the table of
    every connected subset (`_connected_subsets`, kept to the eligible
    blocks), which at each model it meets records the model and lowers its
    cap on the total size to one less, and stops at a model of size L + 1,
    the least still possible. It is skipped when G has no more than L
    vertices. When H is complete and sigma_h is empty or E(H), every
    reordering of a model's branch sets is a model, so they are taken in
    increasing minimum vertex. An odd K_t minor is the case (K_t, E(K_t)).

    Both passes visit the models in one fixed order, and the cap only skips
    models larger than it. Let M be the first model of the least size s.
    Every model recorded before M is larger than s, so the cap is at least
    s when M is met; M is recorded, and the cap drops to s - 1, below every
    model left. So the model returned is M, the one a search by increasing
    size returns. A model met after the cap drops is refused at its leaf,
    since the loops over a mask's colorings and forms do not read the cap
    again.

    Every model has at least L = h + tau vertices (`_least_size`), where
    tau is the fewest pattern vertices that meet every balanced pattern
    triangle, one with an even number of negative edges. Three one-vertex
    branch sets of a pattern triangle are a triangle of G, whose three
    witness edges are the edges between them. Of those, the ones whose ends
    get different colors are an even number, so the positive pattern edges
    of the triangle are too, and its negative edges are odd: the triangle
    is unbalanced. So the pattern vertices whose branch sets have two or
    more vertices meet every balanced triangle: there are at least tau of
    them, and the model has at least h + tau vertices. Odd K_t has no
    balanced triangle, so L = h; in all-positive K_t every triangle is
    balanced, so L = 2t - 2 for t >= 2. The answer is None when G has fewer
    than L vertices, and tau is not searched past G.n - h.

    The L pass returns the model the branch-and-bound pass would. It visits
    the models in that pass's fixed order, skipping only those larger than
    L, and no model is smaller than L; so its first model is the first
    model of least size, M above. The search places a set of k vertices
    only while k plus one vertex for each pattern vertex still to place
    fits under the cap, so at cap L it never reads a set of more than
    L - h + 1 vertices: the cut table lists every set it reads, in the same
    order. If the L pass finds no model, none has size L, so the least size
    still possible is L + 1.

    When H is 2-connected (every complete H with h >= 3), the blocks of G
    are read before any subset is built. A block is eligible when it has at
    least L vertices and, if (H, sigma_h) is unbalanced, is not bipartite.
    With no eligible block the answer is None (so a bipartite host has no
    odd K_t for t >= 3); otherwise every pass after the size-h pass reads
    only the connected subsets that lie inside one eligible block. Every
    smallest model lies inside one eligible block. Let G' be the union of
    a model's spanning trees and witness edges, and x a cut vertex of G',
    in the tree of pattern vertex i. Every other tree misses x, and H - i
    is connected, so all of them lie in one component C of G' - x. A
    witness edge of i ends in C + x, so cutting i's tree down to its part
    in C + x (a subtree, with the coloring restricted) leaves a model, and
    a smaller one if G' - x has another component. So a smallest model has
    a 2-connected G', which lies inside one block of G, and that block has
    at least L vertices. If that block is bipartite with 2-coloring beta,
    each tree coloring is beta or its complement, and every witness edge
    joins two beta colors, so the negative pattern edges are the cut of
    the trees colored like beta's complement: (H, sigma_h) is balanced.
    Hence a smallest model's branch sets are all kept. The kept subsets are
    the old order filtered, and every model of size h, or of the least
    size, is kept, so both passes meet the old first model of least size at
    its place: the verdict and the model returned are those of a search
    over every connected subset.

    The pretest, for a complete H with h >= 4, is `has_clique_minor(G, h)`
    on the whole of G, beside the block rule and before any table: a model
    of a complete H is a K_h minor of G, so its "no" is final. It reads the
    core of G (`_core`), builds no table at h = 4 and its own at h >= 5,
    and shares none with the passes. At h = 3 it could only say yes (every
    eligible block has L >= 3 vertices, so it holds a cycle): it never runs.

    The size-h pass (`_first_embedding`) returns the model the L pass at
    L = h returns over the table. A set of two or more vertices leaves the
    rest of the pattern less than one vertex each, so a model of size h is
    one vertex v_i per pattern vertex i: distinct vertices with v_i v_j an
    edge of G, its witness, for each pattern edge ij, and colors with c(v_i)
    = c(v_j) exactly when ij is negative. Such colors exist iff only the
    positive edges of H join two sides, `_sides(H, E(H) - sigma_h)`,
    whatever the tuple: colors never change which tuple is feasible. So the
    pass takes the first tuple in the search's order, which is
    lexicographic: pattern vertex i takes the lowest vertex left among the
    common neighbours of the vertices of i's earlier neighbours. For a
    complete H that tuple is increasing (any reordering of a clique is
    one), so the pass tries increasing tuples only, whatever sigma_h, as
    the search does for a symmetric one. Only then does it
    ask for the sides; None there means no model of size h. The search over
    the table tries color 1 before color 2 at each vertex, and a coloring
    of the first vertices that no later colors complete fails for every
    tuple; so it too returns the first feasible tuple, with the lowest
    pattern vertex of each component of H colored 1 and the others forced,
    the colors `_sides` gives. At L = h every model of size h is a smallest
    model, so it lies inside one eligible block (above): the pass may read
    every vertex of G before the blocks are read, and meets the same first
    model. A size-h model of a complete H is h pairwise adjacent vertices,
    a K_h minor, so the pretest would have said yes to it: running the
    pretest after the size-h pass fails, and not before it, leaves every
    verdict as it was. For h <= 2 a size-h pass that fails leaves a host
    with no edge, whose table holds one-vertex sets only.
    """
    check_size(G, limit, "find_signed_minor")
    sigma = _edge_set(sigma_h)
    for e in sigma:
        if not H.has_edge(*e):
            raise ValueError(f"signature edge {e} not in H")
    h = H.n
    if h == 0:
        return SignedMinorModel({}, {}, {}, {})
    if G.n < h:
        return None
    least = _least_size(H, sigma, G.n - h)
    if G.n < least:
        return None
    complete = H.m == h * (h - 1) // 2
    # earlier[i]: the pattern vertices j < i with ji an edge, ascending
    earlier: list[list[int]] = [[] for _ in range(h)]
    for j, i in H.edges():
        earlier[i].append(j)
    best: list[tuple[int, int]] = []  # (mask, colormask) per pattern vertex
    if least == h:
        # the size-h pass: one vertex per branch set, over every vertex of G
        vs = _first_embedding(G, earlier, complete)
        side = None if vs is None else _sides(H, frozenset(H.edges()) - sigma)
        if side is not None:
            best = [(1 << v, s << v) for v, s in zip(vs, side)]
    if not best:
        best = _table_search(G, H, sigma, least, complete, earlier)
    if not best:
        return None

    trees = {}
    tree_edges = {}
    tree_colorings = {}
    for u, (mask, c) in enumerate(best):
        vs = bits(mask)
        trees[u] = tuple(vs)
        tree = _disagreement_tree(G, mask, c)
        tree_edges[u] = tuple(_norm_edge(v, w) for v, w in tree)
        tree_colorings[u] = {v: 2 if (c >> v) & 1 else 1 for v in vs}
    witness = {
        (j, i): _mono_edge(G, *best[j], mask, c if (j, i) in sigma else mask & ~c)
        for i, (mask, c) in enumerate(best) for j in earlier[i]
    }
    model = SignedMinorModel(trees, tree_edges, tree_colorings, witness)
    ok, reason = verify_signed_minor_model(G, H, sigma, model)
    assert ok, reason
    return model


def _table_search(
    G: Graph, H: Graph, sigma: frozenset[Edge], least: int, complete: bool,
    earlier: list[list[int]],
) -> list[tuple[int, int]]:
    """find_signed_minor's passes after the size-h pass: for a 2-connected H
    the block rule and, for a complete H with h >= 4, the pretest beside it;
    then, when L > h, the L pass, and the branch-and-bound pass, each over
    its own cut of the subset table. Returns the first model of least size,
    as (mask, colormask) per pattern vertex, or [] when there is none. At
    L = h it runs only when there is no model of size h."""
    h = H.n
    symmetric = complete and len(sigma) in (0, H.m)
    eligible: Optional[list[int]] = None
    if h >= 3 and (complete or [B for B, _ in blocks(H)] == [frozenset(range(h))]):
        eligible = _eligible_block_masks(G, least, _sides(H, sigma) is not None)
        if not eligible or complete and h >= 4 and not has_clique_minor(G, h):
            return []
    # links[i]: (j, negative) for each pattern edge ji with j < i
    links = [[(j, (j, i) in sigma) for j in js] for i, js in enumerate(earlier)]
    colorings: dict[int, list[int]] = {}

    # choice[i] = (mask, colormask); assign H vertices 0..h-1 in order.
    # best is the last model recorded, cap the largest total size still
    # wanted and stop the smallest one still possible
    choice: list[tuple[int, int]] = []
    best: list[tuple[int, int]] = []

    def rec(used: int, lowbound: int, size: int) -> bool:
        nonlocal cap
        i = len(choice)
        if i == h:
            # the loops over a mask's colorings and forms do not read cap
            # again after a model below lowers it
            if size > cap:
                return False
            best[:] = choice
            cap = size - 1
            return size == stop
        rest = size + h - i - 1  # a model through mask has size >= k + rest
        for mask, _ in conn:
            k = mask.bit_count()
            if k + rest > cap:
                break  # conn is sorted by size; all later masks too big
            if mask & used or (mask & -mask) < lowbound:
                continue
            if mask not in colorings:
                colorings[mask] = _valid_colorings(G, mask)
            for c0 in colorings[mask]:
                # flipping every tree at once is a symmetry, so the first
                # tree's coloring can be pinned; all others need both forms
                forms = (c0,) if i == 0 else (c0, mask & ~c0)
                for c in forms:
                    if all(_mono_edge(G, *choice[j], mask, c if neg else mask & ~c)
                           is not None for j, neg in links[i]):
                        choice.append((mask, c))
                        if rec(used | mask, mask & -mask if symmetric else 0,
                               size + k):
                            return True
                        choice.pop()
        return False

    def table(most: Optional[int] = None) -> list[tuple[int, int]]:
        """The connected subsets of at most `most` vertices, kept to the
        eligible blocks."""
        sets = _connected_subsets(G, most)
        if eligible is None:
            return sets
        return [(m, nb) for m, nb in sets if any(m & b == m for b in eligible)]

    # the L pass above size h, capped at L, then the branch-and-bound pass
    # over every larger size: each is (most, cap, stop), with most the
    # largest set the pass can read
    passes = [(None, G.n, least + 1)]
    if least > h:
        passes.insert(0, (least - h + 1, least, least))
    for most, cap, stop in passes:
        if best or G.n < stop:
            break
        conn = table(most)
        rec(0, 0, 0)
    del rec  # as in has_clique_minor: the table and colorings are freed now
    return best
