"""Odd-minor models, parity-breaking paths, and an exhaustive odd-clique detector."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .graph import (
    Graph, Path, SizeLimitError, TwoColoring, bipartition, default_limit, _norm_edge,
)
from .signed import (
    _bits,
    _connected_subsets,
    _mono_edge,
    _spanning_tree_of_disagreement,
    _valid_colorings,
)

Edge = tuple[int, int]
Connector = Union[Edge, Path]


@dataclass(frozen=True)
class ParityQuery:
    """A path together with the coloring it is measured against.

    reference: either a two-coloring whose domain contains both endpoints, or
    a connected bipartite graph sharing vertex ids with the path's host (its
    proper 2-coloring, unique up to swapping colors, is used).
    """

    path: Path
    reference: Union[TwoColoring, Graph]


def is_parity_breaking(q: ParityQuery) -> bool:
    """True iff the path's length differs in parity from the color gap of its
    ends: |E(P)| != alpha(u) - alpha(v) (mod 2)."""
    u, v = q.path.ends
    if u == v:
        raise ValueError("path endpoints must be distinct")
    ref = q.reference
    if isinstance(ref, Graph):
        beta = bipartition(ref)
        if beta is None:
            raise ValueError("reference graph is not bipartite")
        domain = {w for w in ref.vertices() if ref.degree(w) > 0}
        if len(ref.components()) - (ref.n - len(domain)) != 1:
            raise ValueError("reference graph must be connected")
        if u not in domain or v not in domain:
            raise ValueError("path endpoint outside reference graph")
        alpha = beta
    else:
        alpha = ref
        if u not in alpha.domain or v not in alpha.domain:
            raise ValueError("path endpoint outside coloring domain")
    return (q.path.length - (alpha(u) - alpha(v))) % 2 == 1


@dataclass(frozen=True)
class OddMinorModel:
    """Witness that G contains H as an odd minor.

    trees: pattern vertex -> vertices of a subtree of G
    tree_edges: pattern vertex -> edges of that subtree
    alpha: 2-coloring of the union of all trees making each tree edge bichromatic
    connectors: pattern edge -> either a monochromatic G-edge between the two
        trees, or a parity-breaking path between them whose internal vertices
        avoid every tree (the path form)
    """

    trees: dict[int, tuple[int, ...]]
    tree_edges: dict[int, tuple[Edge, ...]]
    alpha: TwoColoring
    connectors: dict[Edge, Connector]

    def branch_set(self, u: int) -> frozenset[int]:
        return frozenset(self.trees[u])


def _connector_path(c: Connector) -> Optional[Path]:
    return c if isinstance(c, Path) else None


def verify_odd_minor_model(
    G: Graph, H: Graph, model: OddMinorModel
) -> tuple[bool, str]:
    """Check every model condition; returns (ok, reason)."""
    if set(model.trees) != set(H.vertices()):
        return False, "tree-map-domain"
    union: set[int] = set()
    for u in H.vertices():
        vs = model.trees[u]
        if not vs:
            return False, "empty-tree"
        vset = set(vs)
        if len(vset) != len(vs) or any(not 0 <= v < G.n for v in vs):
            return False, "tree-vertices-invalid"
        if vset & union:
            return False, "overlapping-trees"
        union |= vset
        te = model.tree_edges.get(u, ())
        if len(te) != len(vs) - 1:
            return False, "tree-not-acyclic"
        for a, b in te:
            if a not in vset or b not in vset or not G.has_edge(a, b):
                return False, "tree-edge-invalid"
        if len(vs) > 1 and not Graph(G.n, te).is_connected_subset(vs):
            return False, "tree-not-connected"
    alpha = model.alpha
    if set(alpha.domain) != union:
        return False, "alpha-domain"
    if any(alpha(v) not in (1, 2) for v in union):
        return False, "alpha-colors"
    for u in H.vertices():
        if any(alpha(a) == alpha(b) for a, b in model.tree_edges.get(u, ())):
            return False, "bichromatic-violation"
    if set(model.connectors) != {_norm_edge(*e) for e in H.edges()}:
        return False, "connector-map-domain"
    interiors: set[int] = set()
    for he, conn in model.connectors.items():
        u, v = he
        tu, tv = set(model.trees[u]), set(model.trees[v])
        p = _connector_path(conn)
        if p is None:
            a, b = conn
            if not G.has_edge(a, b):
                return False, "connector-not-an-edge"
            if a in tv and b in tu:
                a, b = b, a
            if a not in tu or b not in tv:
                return False, "connector-endpoints"
            if alpha(a) != alpha(b):
                return False, "connector-parity"
        else:
            if not p.is_path_of(G):
                return False, "connector-not-a-path"
            a, b = p.ends
            if a in tv and b in tu:
                a, b = b, a
            if a not in tu or b not in tv:
                return False, "connector-endpoints"
            if not is_parity_breaking(ParityQuery(p, alpha)):
                return False, "connector-parity"
            inner = set(p.vertices[1:-1])
            if inner & union or inner & interiors:
                return False, "connector-disjointness"
            interiors |= inner
    return True, "ok"


def has_clique_minor(G: Graph, t: int) -> bool:
    """Unsigned K_t minor test by exhaustive connected-partition search."""
    if t <= 0:
        return True
    if G.n < t:
        return False
    if t == 1:
        return True
    conn = _connected_subsets(G)
    nbr = {}
    for m in conn:
        r = 0
        for v in _bits(m):
            r |= G.adj_mask(v)
        nbr[m] = r & ~m

    parts: list[int] = []

    def rec(used: int, lowbound: int) -> bool:
        if len(parts) == t:
            return True
        for m in conn:
            if m & used or (m & -m) < lowbound:
                continue
            if any(nbr[m] & p == 0 for p in parts):
                continue
            parts.append(m)
            if rec(used | m, m & -m):
                return True
            parts.pop()
        return False

    return rec(0, 0)


def find_odd_clique_minor(
    G: Graph, t: int, limit: Optional[int] = None
) -> Optional[OddMinorModel]:
    """Exhaustive search for an odd K_t minor model (edge-form connectors).

    Branch sets are enumerated in order of increasing minimum vertex and by
    increasing total size, so the first hit is a smallest witness. A cheap
    unsigned clique-minor test runs first: its absence already rules out the
    odd variant.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    lim = default_limit() if limit is None else limit
    if G.n > lim:
        raise SizeLimitError(f"graph has {G.n} > {lim} vertices")
    if G.n < t:
        return None
    if t == 1:
        return OddMinorModel({0: (0,)}, {0: ()}, TwoColoring({0: 1}), {})
    if not has_clique_minor(G, t):
        return None

    conn = _connected_subsets(G)
    colorings: dict[int, list[int]] = {}

    def colorings_of(mask: int) -> list[int]:
        if mask not in colorings:
            colorings[mask] = _valid_colorings(G, mask)
        return colorings[mask]

    choice: list[tuple[int, int]] = []

    def rec(used: int, lowbound: int, budget: int) -> bool:
        if len(choice) == t:
            return True
        remaining = t - len(choice)
        for mask in conn:
            k = bin(mask).count("1")
            if k > budget - (remaining - 1):
                break  # conn is sorted by size; all later masks too big
            if mask & used or (mask & -mask) < lowbound:
                continue
            for c0 in colorings_of(mask):
                # flipping every tree at once is a symmetry, so the first
                # tree's coloring can be pinned; all others need both forms
                forms = (c0,) if not choice else (c0, mask & ~c0)
                for c in forms:
                    if all(
                        _mono_edge(G, mj, cj, mask, c) is not None
                        for mj, cj in choice
                    ):
                        choice.append((mask, c))
                        if rec(used | mask, mask & -mask, budget - k):
                            return True
                        choice.pop()
        return False

    found = False
    for budget in range(t, G.n + 1):
        if rec(0, 0, budget):
            found = True
            break
    if not found:
        return None

    trees = {}
    tree_edges = {}
    color: dict[int, int] = {}
    for u in range(t):
        mask, c = choice[u]
        vs = _bits(mask)
        trees[u] = tuple(vs)
        tree_edges[u] = tuple(_spanning_tree_of_disagreement(G, mask, c))
        for v in vs:
            color[v] = 2 if (c >> v) & 1 else 1
    connectors: dict[Edge, Connector] = {}
    for u in range(t):
        for v in range(u + 1, t):
            e = _mono_edge(G, choice[u][0], choice[u][1], choice[v][0], choice[v][1])
            assert e is not None
            connectors[(u, v)] = e
    model = OddMinorModel(trees, tree_edges, TwoColoring(color), connectors)
    H = Graph(t, [(i, j) for i in range(t) for j in range(i + 1, t)])
    ok, reason = verify_odd_minor_model(G, H, model)
    assert ok, reason
    return model


def relabel_model(model: OddMinorModel, old_ids) -> OddMinorModel:
    """Map a model through a vertex relabeling (new id -> host id)."""

    def mv(v: int) -> int:
        return old_ids[v]

    def me(e: Edge) -> Edge:
        return _norm_edge(mv(e[0]), mv(e[1]))

    connectors: dict[Edge, Connector] = {}
    for he, c in model.connectors.items():
        if isinstance(c, Path):
            connectors[he] = Path(tuple(mv(v) for v in c.vertices))
        else:
            connectors[he] = me(c)
    return OddMinorModel(
        trees={u: tuple(mv(v) for v in vs) for u, vs in model.trees.items()},
        tree_edges={u: tuple(me(e) for e in es) for u, es in model.tree_edges.items()},
        alpha=TwoColoring({mv(v): c for v, c in model.alpha.color.items()}),
        connectors=connectors,
    )
