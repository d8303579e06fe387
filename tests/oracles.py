"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and, where possible, routed through
networkx rather than the package's own data structures.
"""

from __future__ import annotations

import itertools

import networkx as nx

from oddminorkit import (
    Decomposition,
    Graph,
    OddMinorModel,
    PackingCoverResult,
    Path,
    SubdivisionEmbedding,
    TwoColoring,
)


def nxg(G: Graph) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(G.vertices())
    H.add_edges_from(G.edges())
    return H


def induced(G: Graph, vertices) -> tuple[Graph, list[int]]:
    """(H, old_ids): the subgraph of G induced on vertices, renumbered by
    ascending id, with old_ids[new] = old; built from G.edges() alone."""
    old_ids = sorted(set(vertices))
    new_of = {v: i for i, v in enumerate(old_ids)}
    return Graph(len(old_ids), [(new_of[u], new_of[v]) for u, v in G.edges()
                                if u in new_of and v in new_of]), old_ids


def bipartite_nx(G: Graph) -> bool:
    return nx.is_bipartite(nxg(G))


def all_simple_paths_between(G: Graph, a: int, b: int):
    yield from nx.all_simple_paths(nxg(G), a, b)


def all_odd_s_paths(G: Graph, S) -> list[tuple[int, ...]]:
    """Every odd-length path with both (distinct) ends in S, as vertex tuples."""
    Ss = sorted(set(S))
    out = []
    for a, b in itertools.combinations(Ss, 2):
        for p in all_simple_paths_between(G, a, b):
            if (len(p) - 1) % 2 == 1:
                out.append(tuple(p))
    return out


def max_odd_path_packing(G: Graph, S) -> int:
    """Size of a largest set of vertex-disjoint odd S-paths, by brute force."""
    paths = all_odd_s_paths(G, S)

    def rec(i: int, used: frozenset) -> int:
        best = 0
        for j in range(i, len(paths)):
            vs = frozenset(paths[j])
            if vs & used:
                continue
            best = max(best, 1 + rec(j + 1, used | vs))
        return best

    return rec(0, frozenset())


def cover_kills_all(G: Graph, S, X) -> bool:
    Xs = set(X)
    H = nxg(G)
    H.remove_nodes_from(Xs)
    G2 = Graph(G.n, H.edges())
    return not all_odd_s_paths(G2, set(S) - Xs)


def blocks_nx(G: Graph) -> set[frozenset]:
    H = nxg(G)
    out = {frozenset(b) for b in nx.biconnected_components(H)}
    covered = set().union(*out) if out else set()
    out |= {frozenset({v}) for v in G.vertices() if v not in covered}
    return out


def _monochromatic(G: Graph, colors) -> nx.Graph:
    """The spanning subgraph of G keeping only edges whose ends share a color."""
    H = nx.Graph()
    H.add_nodes_from(G.vertices())
    H.add_edges_from((u, v) for u, v in G.edges() if colors[u] == colors[v])
    return H


def max_class_degree(G: Graph, colors) -> int:
    """Largest degree of a vertex inside the subgraph its color class induces."""
    return max((d for _, d in _monochromatic(G, colors).degree()), default=0)


def largest_class_component(G: Graph, colors) -> int:
    """Order of the largest connected monochromatic vertex set."""
    return max((len(c) for c in nx.connected_components(_monochromatic(G, colors))),
               default=0)


def is_separation(G: Graph, A, B) -> bool:
    """A and B cover V(G) and no edge joins A - B to B - A."""
    if set(A) | set(B) != set(G.vertices()):
        return False
    only_a, only_b = set(A) - set(B), set(B) - set(A)
    return not any(
        (u in only_a and v in only_b) or (u in only_b and v in only_a)
        for u, v in G.edges()
    )


def first_small_separation(G: Graph, Z, max_order: int):
    """(A, B) of the first cut, by order and then lexicographically, whose
    removal leaves two components that meet V - Z; A is the cut plus the
    first such component (by lowest vertex), B the rest.  Components come
    from networkx, one subgraph per cut."""
    Zs = set(Z)
    H = nxg(G)
    for k in range(max_order + 1):
        for cut in itertools.combinations(range(G.n), k):
            rest = H.subgraph(v for v in G.vertices() if v not in cut)
            comps = sorted(nx.connected_components(rest), key=min)
            good = [c for c in comps if any(v not in Zs for v in c)]
            if len(good) >= 2:
                A = frozenset(good[0]) | frozenset(cut)
                return A, frozenset(G.vertices()) - frozenset(good[0])
    return None


def smallest_signed_minor_size(G: Graph, H: Graph, sigma):
    """Least total branch-set size of a model of (H, sigma) in (G, E(G)),
    or None, by brute force over every labelling of V(G) with pattern
    vertices (or none).

    A model gives each pattern vertex a connected vertex set B_i with a
    2-coloring whose bichromatic edges connect B_i, and each pattern edge ij
    a G-edge between B_i and B_j whose ends get equal colors iff ij is in
    sigma.  Every coloring of every branch set is tried; connectivity is
    checked with networkx.
    """
    nx_G = nxg(G)
    negative = {tuple(sorted(e)) for e in sigma}
    hedges = [tuple(sorted(e)) for e in H.edges()]
    spanning: dict[frozenset, list[dict]] = {}

    def colorings(B: frozenset) -> list[dict]:
        """Colorings of B whose bichromatic edges form a connected graph."""
        if B not in spanning:
            vs = sorted(B)
            spanning[B] = []
            for bits in itertools.product((1, 2), repeat=len(vs)):
                col = dict(zip(vs, bits))
                D = nx.Graph()
                D.add_nodes_from(vs)
                D.add_edges_from((a, b) for a, b in nx_G.subgraph(vs).edges()
                                 if col[a] != col[b])
                if nx.is_connected(D):
                    spanning[B].append(col)
        return spanning[B]

    connected: dict[frozenset, bool] = {}

    def is_model(sets: list[frozenset]) -> bool:
        if any(not B for B in sets):
            return False
        between = {(i, j): [(a, b) for a in sets[i] for b in sets[j]
                            if nx_G.has_edge(a, b)] for i, j in hedges}
        if any(not es for es in between.values()):
            return False
        for B in sets:
            if B not in connected:
                connected[B] = nx.is_connected(nx_G.subgraph(B))
            if not connected[B]:
                return False
        for cols in itertools.product(*(colorings(B) for B in sets)):
            if all(any((cols[i][a] == cols[j][b]) == ((i, j) in negative)
                       for a, b in between[(i, j)]) for i, j in hedges):
                return True
        return False

    best = None
    for labels in itertools.product(range(-1, H.n), repeat=G.n):
        size = G.n - labels.count(-1)
        if best is not None and size >= best:
            continue
        sets = [frozenset(v for v, x in enumerate(labels) if x == i) for i in range(H.n)]
        if is_model(sets):
            best = size
    return best


def first_one_vertex_model(G: Graph, H: Graph, sigma):
    """The first model of (H, sigma) in (G, E(G)) with one vertex per branch
    set, as a list of (vertex, color) per pattern vertex, or None.

    Pattern vertices get (vertex, color) pairs in order, each tried by
    increasing vertex and then color 1 before color 2, the first pattern
    vertex color 1 only; when H is complete and sigma is empty or E(H),
    vertices increase. A prefix is kept while its vertices are distinct and
    every pattern edge among them joins adjacent vertices whose colors are
    equal iff the edge is in sigma.
    """
    nx_G = nxg(G)
    negative = {tuple(sorted(e)) for e in sigma}
    hedges = [tuple(sorted(e)) for e in H.edges()]
    increasing = H.m == H.n * (H.n - 1) // 2 and len(negative) in (0, H.m)

    def fits(prefix) -> bool:
        i = len(prefix) - 1
        v, c = prefix[i]
        if any(v == w for w, _ in prefix[:i]):
            return False
        if increasing and i and v < prefix[i - 1][0]:
            return False
        for a, b in hedges:
            if b == i:
                w, d = prefix[a]
                if not nx_G.has_edge(w, v) or (c == d) != ((a, b) in negative):
                    return False
        return True

    def extend(prefix):
        if len(prefix) == H.n:
            return prefix
        for v, c in itertools.product(G.vertices(), (1, 2) if prefix else (1,)):
            if fits(prefix + [(v, c)]):
                found = extend(prefix + [(v, c)])
                if found is not None:
                    return found
        return None

    return extend([])


def has_clique_minor_by_partition(G: Graph, t: int) -> bool:
    """Whether G, of at most 8 vertices, has a K_t minor: whether some
    labelling of its vertices by 0 (in no branch set) or 1..t (a branch
    set), labels 1..t first used in that order, gives t connected, pairwise
    adjacent branch sets. Connectivity is networkx's."""
    assert G.n <= 8, "every labelling is tried"
    nx_G = nxg(G)

    def is_model(labels) -> bool:
        sets = [[v for v, x in enumerate(labels) if x == i] for i in range(1, t + 1)]
        return (all(any(nx_G.has_edge(a, b) for a in A for b in B)
                    for A, B in itertools.combinations(sets, 2))
                and all(nx.is_connected(nx_G.subgraph(S)) for S in sets))

    def extend(labels, top) -> bool:
        if t - top > G.n - len(labels):
            return False  # too few vertices left for the unused labels
        if len(labels) == G.n:
            return is_model(labels)
        return any(extend(labels + [x], max(top, x)) for x in range(min(top + 1, t) + 1))

    return extend([], 0)


def balanced_by_subsets(H: Graph, sigma) -> bool:
    """Whether (H, sigma) is balanced: whether sigma is the edge cut of some
    vertex set X, every one of the 2^n sets tried."""
    negative = {tuple(sorted(e)) for e in sigma}
    for X in range(1 << H.n):
        cut = {(u, v) for u, v in H.edges() if (X >> u & 1) != (X >> v & 1)}
        if cut == negative:
            return True
    return False


def fewest_vertices_meeting_balanced_triangles(H: Graph, sigma) -> int:
    """The least size of a vertex set of H that meets every triangle with an
    even number of edges in sigma, every vertex set tried by size."""
    negative = {tuple(sorted(e)) for e in sigma}
    nx_H = nxg(H)
    balanced = [tri for tri in itertools.combinations(H.vertices(), 3)
                if all(nx_H.has_edge(u, v) for u, v in itertools.combinations(tri, 2))
                and sum(e in negative for e in itertools.combinations(tri, 2)) % 2 == 0]
    for k in range(H.n + 1):
        for X in itertools.combinations(H.vertices(), k):
            if all(set(tri) & set(X) for tri in balanced):
                return k
    raise AssertionError("the whole vertex set meets every triangle")


def spread(G: Graph) -> Graph:
    """G renumbered v -> 2v: the same graph with the odd ids isolated."""
    return Graph(2 * G.n, [(2 * u, 2 * v) for u, v in G.edges()])


def spread_output(x):
    """A search output with each vertex id v of its host read as 2v, as
    `spread` renumbers the host: None, an embedding, a packing or cover, a
    decomposition or an odd-minor model. Pattern ids are kept."""

    def vs(p):
        return tuple(2 * v for v in p)

    def path(p: Path) -> Path:
        return Path(vs(p.vertices))

    if x is None:
        return None
    if isinstance(x, SubdivisionEmbedding):
        return SubdivisionEmbedding(
            x.s, x.t, {p: 2 * v for p, v in x.branch.items()},
            {e: path(p) for e, p in x.linking.items()})
    if isinstance(x, PackingCoverResult):
        if x.is_packing:
            return PackingCoverResult(packing=tuple(map(path, x.packing)))
        return PackingCoverResult(cover=frozenset(vs(x.cover)))
    if isinstance(x, Decomposition):
        return Decomposition(frozenset(vs(x.X)), frozenset(vs(x.U)),
                             frozenset(vs(x.retained_branch)),
                             spread_output(x.reduced))
    assert isinstance(x, OddMinorModel)
    return OddMinorModel(
        trees={u: vs(t) for u, t in x.trees.items()},
        tree_edges={u: tuple(vs(e) for e in es) for u, es in x.tree_edges.items()},
        alpha=TwoColoring({2 * v: c for v, c in x.alpha.color.items()}),
        connectors={e: path(c) if isinstance(c, Path) else vs(c)
                    for e, c in x.connectors.items()})
