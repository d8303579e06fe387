"""Subdivisions of K_s + I_t: detection, verification and restriction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graph import Graph, Path, TwoColoring, bipartition, check_size, _norm_edge

Edge = tuple[int, int]

DEFAULT_SUBDIVISION_LIMIT = 30


def join_pattern_edges(s: int, t: int) -> list[Edge]:
    """Edges of K_s + I_t with clique vertices 0..s-1 and stable s..s+t-1."""
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    edges += [(i, s + j) for i in range(s) for j in range(t)]
    return edges


@dataclass(frozen=True)
class SubdivisionEmbedding:
    """An embedded subdivision of K_s + I_t inside a host graph.

    branch maps pattern vertices (clique 0..s-1, stable s..s+t-1) to host
    vertices; linking maps each pattern edge to the host path replacing it.
    """

    s: int
    t: int
    branch: dict[int, int]
    linking: dict[Edge, Path]

    @property
    def C(self) -> frozenset[int]:
        """Branch vertices in the host."""
        return frozenset(self.branch.values())

    def clique_branch(self) -> frozenset[int]:
        return frozenset(self.branch[i] for i in range(self.s))

    def union_vertices(self) -> frozenset[int]:
        out = set(self.branch.values())
        for p in self.linking.values():
            out.update(p.vertices)
        return frozenset(out)

    def union_edges(self) -> frozenset[Edge]:
        out: set[Edge] = set()
        for p in self.linking.values():
            out |= p.edge_set()
        return frozenset(out)

    def union_graph(self, n: int) -> Graph:
        return Graph(n, self.union_edges())

    def linking_path(self, u: int, v: int) -> Path:
        return self.linking[_norm_edge(u, v)]

    def host_coloring(self, n: int) -> Optional[TwoColoring]:
        """The union's proper 2-coloring on its vertices, if bipartite."""
        alive = sum(1 << v for v in self.union_vertices())
        return bipartition(self.union_graph(n), alive)


def verify_subdivision(
    G: Graph, emb: SubdivisionEmbedding, require_bipartite: bool
) -> tuple[bool, str]:
    s, t = emb.s, emb.t
    if s < 0 or t < 0:
        return False, "bad-pattern"
    # the length check first: a hostile s + t must not size a set
    if len(emb.branch) != s + t or set(emb.branch) != set(range(s + t)):
        return False, "branch-domain"
    imgs = list(emb.branch.values())
    if len(set(imgs)) != len(imgs):
        return False, "branch-not-injective"
    if any(not 0 <= v < G.n for v in imgs):
        return False, "branch-out-of-range"
    expected = {_norm_edge(*e) for e in join_pattern_edges(s, t)}
    if set(emb.linking) != expected:
        return False, "linking-domain"
    C = emb.C
    interior: set[int] = set()
    for (u, v), p in emb.linking.items():
        if not p.is_path_of(G):
            return False, "linking-not-a-path"
        if {p.ends[0], p.ends[1]} != {emb.branch[u], emb.branch[v]}:
            return False, "linking-endpoints"
        inner = set(p.vertices[1:-1])
        if inner & C:
            return False, "linking-through-branch"
        if inner & interior:
            return False, "linking-not-disjoint"
        interior |= inner
    if require_bipartite and bipartition(emb.union_graph(G.n)) is None:
        return False, "union-not-bipartite"
    return True, "ok"


def _paths_between(
    G: Graph, a: int, b: int, forbidden: int, parity: Optional[int]
) -> Iterator[Path]:
    """Simple a-b paths with internals outside forbidden (a vertex mask),
    shortest first.

    parity, if given, restricts |E(P)| mod 2. Iterative deepening keeps the
    shortest-first order without storing all paths; neighbours are pushed
    lowest first, so within one length the highest is walked first. The
    deepening stops at the first length that no walk reaches, as no longer
    walk can then exist, so isolated vertices of G cost nothing.
    """
    blocked = forbidden | 1 << b  # never interior
    for length in range(1, G.n + 1):
        if parity is not None and length % 2 != parity:
            continue
        # depth-limited DFS for paths of exactly this length; seen masks the walk
        stack: list[tuple[int, tuple[int, ...], int]] = [(a, (a,), 1 << a)]
        reached = False
        while stack:
            v, walk, seen = stack.pop()
            if len(walk) - 1 == length:
                reached = True
                if v == b:
                    yield Path(walk)
                continue
            nbrs = G.adj_mask(v)
            step = nbrs & ~blocked & ~seen
            if len(walk) == length:
                step |= nbrs & 1 << b
            # bits() inlined: this loop is the routing search's hot spot
            while step:
                low = step & -step
                w = low.bit_length() - 1
                stack.append((w, walk + (w,), seen | low))
                step ^= low
        if not reached:
            return


def find_bipartite_join_subdivision(
    G: Graph, s: int, t: int, limit: Optional[int] = None
) -> Optional[SubdivisionEmbedding]:
    """Exhaustive search for a K_s + I_t subdivision whose union is bipartite.

    Branch candidates are filtered by degree and tried high-degree first;
    linking paths are routed one pattern edge at a time, shortest first, with
    the union's 2-coloring propagated so odd closures are pruned immediately.

    A pattern edge between non-adjacent branch vertices needs an interior
    vertex of its own: interiors are pairwise disjoint, avoid all s + t
    branch vertices and are not isolated, so with n' vertices not isolated
    at most n' - s - t such edges can be routed. Branch choices with more
    are skipped before any path is tried, a clique when its non-adjacent
    pairs plus the t cheapest stable vertices (a stable vertex costs its
    non-neighbours in the clique) exceed that, a stable set when its own
    total does. Only choices that cannot route are skipped, so the
    search returns the embedding it would return without the bound.
    """
    if s < 1 or t < 0:
        raise ValueError("need s >= 1 and t >= 0")
    check_size(G, limit, "find_bipartite_join_subdivision", DEFAULT_SUBDIVISION_LIMIT)
    if G.n < s + t:
        return None
    by_degree = sorted(G.vertices(), key=lambda v: -G.degree(v))
    clique_cands = [v for v in by_degree if G.degree(v) >= s + t - 1]
    edges = [_norm_edge(*e) for e in join_pattern_edges(s, t)]
    # route edges touching pattern vertex 0 first so parity propagates along
    # a connected front
    edges.sort(key=lambda e: (min(e) != 0, e))

    def route(
        branch: dict[int, int], idx: int, used: int,
        par: dict[int, int], linking: dict[Edge, Path],
    ) -> bool:
        if idx == len(edges):
            return True
        u, v = edges[idx]
        a, b = branch[u], branch[v]
        want: Optional[int] = None
        if u in par and v in par:
            want = par[u] ^ par[v]
        for p in _paths_between(G, a, b, used, want):
            inner = sum(1 << x for x in p.vertices[1:-1])
            par2 = dict(par)
            if u not in par2:
                par2[u] = par2[v] ^ (p.length % 2)
            elif v not in par2:
                par2[v] = par2[u] ^ (p.length % 2)
            linking[(u, v)] = p
            if route(branch, idx + 1, used | inner, par2, linking):
                return True
            del linking[(u, v)]
        return False

    room = sum(1 for v in by_degree if G.degree(v)) - s - t  # interiors left
    for clique in itertools.combinations(clique_cands, s):
        cmask = sum(1 << v for v in clique)
        need = sum(
            s - 1 - (G.adj_mask(v) & cmask).bit_count() for v in clique
        ) // 2
        rest = [v for v in by_degree if v not in clique and G.degree(v) >= s]
        cost = {v: s - (G.adj_mask(v) & cmask).bit_count() for v in rest}
        if need + sum(sorted(cost.values())[:t]) > room:
            continue
        for stable in itertools.combinations(rest, t):
            if need + sum(cost[v] for v in stable) > room:
                continue
            branch = {i: clique[i] for i in range(s)}
            branch.update({s + j: stable[j] for j in range(t)})
            linking: dict[Edge, Path] = {}
            used = sum(1 << v for v in branch.values())
            if route(branch, 0, used, {0: 0}, linking):
                del route  # see below
                emb = SubdivisionEmbedding(s, t, branch, dict(linking))
                ok, reason = verify_subdivision(G, emb, require_bipartite=True)
                assert ok, reason
                return emb
    # route's closure holds route itself; dropping the name breaks that
    # cycle, as in signed.has_clique_minor
    del route
    return None


def restrict_subdivision(
    emb: SubdivisionEmbedding, X: Iterable[int]
) -> SubdivisionEmbedding:
    """Drop at most one pattern vertex per element of X so the surviving
    union avoids X entirely.

    A hit branch vertex costs its own pattern vertex; a hit linking-path
    interior costs one endpoint of that path — a stable-side endpoint when
    there is one, to keep the clique side large.
    """
    Xs = set(X)
    inv = {g: p for p, g in emb.branch.items()}
    removed: set[int] = set()

    def alive_edge(e: Edge) -> bool:
        return e[0] not in removed and e[1] not in removed

    for x in sorted(Xs):
        if x in inv and inv[x] not in removed:
            removed.add(inv[x])
            continue
        for e, p in emb.linking.items():
            if alive_edge(e) and x in p.vertices[1:-1]:
                u, v = e
                if v >= emb.s:
                    removed.add(v)  # stable endpoint preferred
                elif u >= emb.s:
                    removed.add(u)
                else:
                    removed.add(max(u, v))
                break
    new_clique = [i for i in range(emb.s) if i not in removed]
    new_stable = [emb.s + j for j in range(emb.t) if emb.s + j not in removed]
    relabel = {old: i for i, old in enumerate(new_clique)}
    relabel.update(
        {old: len(new_clique) + i for i, old in enumerate(new_stable)}
    )
    branch = {relabel[p]: emb.branch[p] for p in relabel}
    linking = {}
    for (u, v), p in emb.linking.items():
        if u in relabel and v in relabel:
            linking[_norm_edge(relabel[u], relabel[v])] = p
    return SubdivisionEmbedding(len(new_clique), len(new_stable), branch, linking)
