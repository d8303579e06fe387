"""Odd-minor models, parity-breaking paths, and the odd-clique detector: an
odd K_t minor of G is a (K_t, E(K_t)) minor of the signed graph (G, E(G)),
found by the signed-minor search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .graph import (
    Graph, Path, SizeLimitError, TwoColoring, bipartition, default_limit, _norm_edge,
)
from .signed import _has_clique_minor, find_signed_minor

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
    return _has_clique_minor(G, t)


def find_odd_clique_minor(
    G: Graph, t: int, limit: Optional[int] = None
) -> Optional[OddMinorModel]:
    """Exhaustive search for an odd K_t minor model (edge-form connectors).

    This is `find_signed_minor` for (K_t, all edges negative): an unsigned
    K_t minor test runs first, branch sets are taken in increasing minimum
    vertex and by increasing total size, so the first hit is a smallest
    witness. alpha is the union of the tree colorings and the connectors
    are the edge witnesses.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    lim = default_limit() if limit is None else limit
    if G.n > lim:
        raise SizeLimitError(f"graph has {G.n} > {lim} vertices")
    if G.n < t:
        return None
    Kt = Graph(t, [(i, j) for i in range(t) for j in range(i + 1, t)])
    signed = find_signed_minor(G, Kt, Kt.edges(), limit=lim)
    if signed is None:
        return None
    alpha = TwoColoring(
        {v: c for col in signed.tree_colorings.values() for v, c in col.items()})
    model = OddMinorModel(signed.trees, signed.tree_edges, alpha, signed.edge_witness)
    ok, reason = verify_odd_minor_model(G, Kt, model)
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
