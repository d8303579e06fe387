"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive and, where possible, routed through
networkx rather than the package's own data structures.
"""

from __future__ import annotations

import itertools

import networkx as nx

from oddminorkit import Graph


def nxg(G: Graph) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(G.vertices())
    H.add_edges_from(G.edges())
    return H


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


def vertex_connectivity_between(G: Graph, A, B) -> int:
    """Maximum number of A-B paths disjoint outside A and B (Menger), brute
    via networkx max-flow on a split-vertex digraph."""
    As, Bs = set(A), set(B)
    shared = As & Bs
    D = nx.DiGraph()
    inf = G.n + 10
    for v in G.vertices():
        D.add_edge(("in", v), ("out", v),
                   capacity=inf if v in As | Bs else 1)
    for u, v in G.edges():
        D.add_edge(("out", u), ("in", v), capacity=1)
        D.add_edge(("out", v), ("in", u), capacity=1)
    D.add_node("s")
    D.add_node("t")
    for a in As - shared:
        D.add_edge("s", ("in", a), capacity=inf)
    for b in Bs - shared:
        D.add_edge(("out", b), "t", capacity=inf)
    flow = nx.maximum_flow_value(D, "s", "t") if (As - shared) and (Bs - shared) else 0
    return flow + len(shared)


def first_small_separation(G: Graph, Z, max_order: int):
    """(A, B) of the first cut, by order and then lexicographically, whose
    removal leaves two components that meet V - Z; A is the cut plus the
    first such component (by lowest vertex), B the rest.  One Graph per cut."""
    Zs = set(Z)
    for k in range(max_order + 1):
        for cut in itertools.combinations(range(G.n), k):
            rest, old_ids = G.without_vertices(cut)
            comps = [[old_ids[v] for v in c] for c in rest.components()]
            good = [c for c in comps if any(v not in Zs for v in c)]
            if len(good) >= 2:
                A = frozenset(good[0]) | frozenset(cut)
                return A, frozenset(G.vertices()) - frozenset(good[0])
    return None
