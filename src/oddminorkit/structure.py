"""Structural core: block-or-packing, the odd clique constructor, and the
apex + bipartite-block decomposition."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .graph import Graph, Path, TwoColoring, bipartition, bits, blocks, complete
from .oddminor import OddMinorModel, is_parity_breaking, verify_odd_minor_model
from .erdosposa import labelled_s_paths, parity_breaking_dichotomy
from .subdivision import (
    SubdivisionEmbedding,
    find_bipartite_join_subdivision,
    restrict_subdivision,
    verify_subdivision,
)

Edge = tuple[int, int]


class HypothesisUnmetError(ValueError):
    """The required bipartite join subdivision does not exist."""


@dataclass(frozen=True)
class Decomposition:
    """Apex set X plus a bipartite block U of G minus X.

    retained_branch are the branch vertices surviving inside U; all linking
    paths between them stay within U.
    """

    X: frozenset[int]
    U: frozenset[int]
    retained_branch: frozenset[int]
    reduced: Optional[SubdivisionEmbedding] = None


def _canonical(p: Path) -> Path:
    a, b = p.ends
    return p if a < b else Path(tuple(reversed(p.vertices)))


def _minimize_family(
    candidates: list[Path], k: int, h_edges: frozenset[Edge]
) -> Optional[list[Path]]:
    """Lexicographically minimize (edges outside H, total length) over all
    families of k pairwise vertex-disjoint candidate paths.

    Families are visited in lexicographic index order and only strictly
    worse ones are pruned, so the first family with the least key wins its
    ties; on candidates sorted by vertex sequence it is the least family."""
    best: Optional[tuple[tuple[int, int], list[Path]]] = None
    cost_a = {p: len(p.edge_set() - h_edges) for p in candidates}

    def rec(start: int, chosen: list[Path], used: set[int], ca: int, cl: int):
        nonlocal best
        if best is not None and (ca, cl) > best[0]:
            return
        if len(chosen) == k:
            if best is None or (ca, cl) < best[0]:
                best = ((ca, cl), list(chosen))
            return
        for i in range(start, len(candidates)):
            p = candidates[i]
            if set(p.vertices) & used:
                continue
            chosen.append(p)
            rec(i + 1, chosen, used | set(p.vertices), ca + cost_a[p], cl + p.length)
            chosen.pop()

    rec(0, [], set(), 0, 0)
    # rec's closure holds rec itself; dropping the name breaks that cycle,
    # as in signed.has_clique_minor
    del rec
    return None if best is None else best[1]


def block_or_packing(
    G: Graph, emb: SubdivisionEmbedding, l: int, limit: Optional[int] = None
) -> Union[Decomposition, tuple[Path, ...]]:
    """Either l disjoint parity-breaking C-paths, or an apex set X of size
    at most 2l-2 with a bipartite block retaining most branch vertices."""
    if emb.s < 2 * l or emb.t < 1:
        raise ValueError("pattern too small for the requested packing size")
    res = parity_breaking_dichotomy(G, emb, l, limit=limit)  # checks emb
    if res.is_packing:
        return res.packing
    X = res.cover
    red = restrict_subdivision(emb, X)
    assert red.s >= emb.s - len(X) and red.s + red.t >= emb.s + emb.t - len(X)
    union = red.union_vertices()
    holder = None
    for blk, bipartite in blocks(G, (1 << G.n) - 1 - sum(1 << x for x in X)):
        if union <= blk:
            holder = blk
            assert bipartite, "block not bipartite"
            break
    assert holder is not None, "reduced subdivision split across blocks"
    return Decomposition(
        X=X, U=frozenset(holder), retained_branch=red.C, reduced=red
    )


def build_odd_clique_model(
    G: Graph, emb: SubdivisionEmbedding, paths: Iterable[Path]
) -> OddMinorModel:
    """Assemble an odd K_t model from a bipartite K_{2t-2} + I_t subdivision
    and t-1 disjoint parity-breaking C-paths.

    The path family is first re-minimized (fewest edges outside the union,
    then shortest), which forces the one-subpath intersection structure the
    tree construction relies on.
    """
    t = emb.t
    if emb.s != 2 * t - 2 or t < 2:
        raise ValueError("embedding must be a K_{2t-2} + I_t subdivision, t >= 2")
    ok, reason = verify_subdivision(G, emb, require_bipartite=True)
    if not ok:
        raise ValueError(f"invalid embedding: {reason}")
    given = [_canonical(p) for p in paths]
    if len(given) != t - 1:
        raise ValueError(f"need exactly {t - 1} paths")
    beta = emb.host_coloring(G.n)
    assert beta is not None
    C = emb.C
    used_check: set[int] = set()
    for p in given:
        if not p.is_path_of(G):
            raise ValueError("input path not a path of the graph")
        a, b = p.ends
        if a not in C or b not in C:
            raise ValueError("input path is not a C-path")
        if not is_parity_breaking(p, beta):
            raise ValueError("input path is not parity-breaking")
        if used_check & set(p.vertices):
            raise ValueError("input paths are not vertex-disjoint")
        used_check |= set(p.vertices)

    h_edges = emb.union_edges()
    # the minimizing family never routes through C internally (a shorter
    # subpath would improve it), so such paths are not candidates
    ones = [c for c in C if beta(c) == 1]
    cands = labelled_s_paths(G, C, ones, set(G.vertices()) - C)
    family = _minimize_family(cands, t - 1, h_edges)
    assert family is not None, "minimization lost a family the input exhibits"

    inv = {g: p for p, g in emb.branch.items()}
    clique_hosts = emb.clique_branch()

    def type_a(v: int) -> bool:
        return v in clique_hosts

    def pattern_adjacent(u: int, v: int) -> bool:
        return type_a(u) or type_a(v)

    def Q(u: int, v: int) -> Path:
        p = emb.linking_path(inv[u], inv[v])
        return p if p.vertices[0] == u else Path(tuple(reversed(p.vertices)))

    # intersection structure: a linking path from an unused branch vertex
    # meets at most one family path, in an end-subpath through its far end
    path_vertices = [set(p.vertices) for p in family]
    used_ends = {e for p in family for e in p.ends}
    C0 = sorted(C - used_ends)
    assert len(C0) == t
    for u in C0:
        for v in sorted(C - {u}):
            if not pattern_adjacent(u, v):
                continue
            q = Q(u, v)
            hits = [i for i, vs in enumerate(path_vertices) if vs & set(q.vertices)]
            if v in used_ends:
                owner = next(i for i, p in enumerate(family) if v in p.ends)
                assert hits in ([], [owner]), "linking path meets a foreign path"
                if hits:
                    shared = path_vertices[owner] & set(q.vertices)
                    idx = [q.vertices.index(x) for x in shared]
                    assert set(range(min(idx), len(q.vertices))) == set(idx), (
                        "intersection is not an end-subpath"
                    )
                    assert v in shared
            else:
                assert not hits, "linking path between unused vertices is hit"

    # orient and order the family
    family.sort(key=lambda p: p.ends[0])
    xs = [p.ends[0] for p in family]
    ys = [p.ends[1] for p in family]
    num_a_in_c0 = sum(1 for v in C0 if type_a(v))
    r = sum(1 for i in range(t - 1) if type_a(xs[i]) != type_a(ys[i]))
    s_cnt = sum(1 for i in range(t - 1) if not type_a(xs[i]) and not type_a(ys[i]))
    assert num_a_in_c0 >= r + s_cnt, "too few unused clique branch vertices"
    order = None
    for perm in itertools.permutations(C0):
        if all(
            type_a(perm[i])
            for i in range(t - 1)
            if not (type_a(xs[i]) and type_a(ys[i]))
        ):
            order = perm
            break
    assert order is not None
    z = list(order)

    # trees
    tree_vs: list[set[int]] = []
    tree_es: list[set[Edge]] = []
    for i in range(t - 1):
        anchor = ys[i] if type_a(z[i]) else xs[i]
        q = Q(z[i], anchor)
        vs = set(family[i].vertices) | set(q.vertices)
        es = family[i].edge_set() | q.edge_set()
        assert len(es) == len(vs) - 1, "tree union has a cycle"
        tree_vs.append(vs)
        tree_es.append(es)
    tree_vs.append({z[t - 1]})
    tree_es.append(set())

    # coloring: proper on each tree, pinned at x_i; the lone vertex z_t
    # agrees with the union's coloring exactly when it sits on the stable side
    alpha: dict[int, int] = {}
    for i in range(t - 1):
        tree = Graph(G.n, tree_es[i])
        assert set(bits(tree.reach(1 << xs[i], (1 << G.n) - 1))) == tree_vs[i]
        side = bipartition(tree)
        flip = side(xs[i]) != beta(xs[i])
        for v in tree_vs[i]:
            alpha[v] = 3 - side(v) if flip else side(v)
    zt = z[t - 1]
    alpha[zt] = beta(zt) if not type_a(zt) else 3 - beta(zt)

    # connectors between tree i and tree j (1-indexed i < j in the proof)
    connectors: dict[Edge, Path] = {}
    for i in range(t - 1):
        for j in range(i + 1, t):
            zi, zj = z[i], z[j]
            if type_a(zi) and type_a(zj):
                q = Q(zj, xs[i])
                k = next(
                    idx for idx, v in enumerate(q.vertices) if v in path_vertices[i]
                )
                pij = Path(q.vertices[: k + 1])
            elif type_a(zi) != type_a(zj):
                pij = Q(zi, zj)
            else:
                q = Q(zj, ys[i])
                k = next(
                    idx for idx, v in enumerate(q.vertices) if v in path_vertices[i]
                )
                pij = Path(q.vertices[: k + 1])
            connectors[(i, j)] = pij

    model = OddMinorModel(
        trees={i: tuple(sorted(tree_vs[i])) for i in range(t)},
        tree_edges={i: tuple(sorted(tree_es[i])) for i in range(t)},
        alpha=TwoColoring(alpha),
        connectors=connectors,
    )
    ok, reason = verify_odd_minor_model(G, complete(t), model)
    assert ok, reason
    return model


def structure_theorem(
    G: Graph,
    t: int,
    emb: Optional[SubdivisionEmbedding] = None,
    limit: Optional[int] = None,
) -> Union[OddMinorModel, Decomposition]:
    """Either an odd K_t model, or an apex set of size at most 2t-4 whose
    removal leaves a bipartite block on at least t+3 vertices."""
    if t < 2:
        raise ValueError("t must be >= 2")
    if emb is None:
        emb = find_bipartite_join_subdivision(G, 2 * t - 2, t, limit=limit)
        if emb is None:
            raise HypothesisUnmetError(
                f"no bipartite K_{2 * t - 2} + I_{t} subdivision found"
            )
    out = block_or_packing(G, emb, t - 1, limit=limit)
    if isinstance(out, Decomposition):
        assert len(out.X) <= 2 * t - 4
        assert len(out.U) >= t + 3
        return out
    return build_odd_clique_model(G, emb, out)
