"""Odd-minor models, parity-breaking paths, and the odd-clique detector: an
odd K_t minor of G is a (K_t, E(K_t)) minor of the signed graph (G, E(G)),
found by the signed-minor search and renamed."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .graph import Graph, Path, TwoColoring, check_size, complete, _norm_edge
# has_clique_minor, the unsigned pretest, lives in signed and is re-exported
from .signed import _tree_fault, find_signed_minor, has_clique_minor

Edge = tuple[int, int]
Connector = Union[Edge, Path]


def is_parity_breaking(path: Path, alpha: TwoColoring) -> bool:
    """True iff the path's length differs in parity from the color gap of its
    ends: |E(P)| != alpha(u) - alpha(v) (mod 2). Both ends must be colored."""
    u, v = path.ends
    if u == v:
        raise ValueError("path endpoints must be distinct")
    if u not in alpha.color or v not in alpha.color:
        raise ValueError("path endpoint outside coloring domain")
    return (path.length - (alpha(u) - alpha(v))) % 2 == 1


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
    fault = _tree_fault(G, H, model.trees, model.tree_edges)
    if fault is not None:
        return False, fault
    union: set[int] = set().union(*model.trees.values())
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
            if not is_parity_breaking(p, alpha):
                return False, "connector-parity"
            inner = set(p.vertices[1:-1])
            if inner & union or inner & interiors:
                return False, "connector-disjointness"
            interiors |= inner
    return True, "ok"


def find_odd_clique_minor(
    G: Graph, t: int, limit: Optional[int] = None
) -> Optional[OddMinorModel]:
    """Exact search for an odd K_t minor model (edge-form connectors).

    The size guard runs first. Then the exhaustive `find_signed_minor`
    searches for (K_t, all edges negative) and asserts its model before
    returning it. It first looks for t pairwise adjacent vertices of G (an
    odd K_t with one vertex per branch set) with a bitmask search, before
    it reads the blocks of G or builds any subset table. When there are
    none, for t >= 3 it answers at once when no block of G has at least t
    vertices and an odd cycle (so a bipartite host is absent before any
    subset is built). Otherwise, for t >= 4, the unsigned K_t minor test
    `has_clique_minor` runs on the core of G, with no table at t = 4 and
    its own at t >= 5, and its "no" is final (at t = 3 every such block
    holds a cycle, so it could only say yes); then the search over larger
    branch sets of those blocks. Branch sets are taken in increasing
    minimum vertex and by increasing total size, so the first hit is a
    smallest witness. The
    renaming keeps the model valid: alpha is the union of the tree
    colorings, proper on each tree, and the connectors are the edge
    witnesses, monochromatic.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    lim = check_size(G, limit, "find_odd_clique_minor")
    if G.n < t:  # before building a pattern of ~t^2/2 edges that G cannot hold
        return None
    Kt = complete(t)
    signed = find_signed_minor(G, Kt, Kt.edges(), limit=lim)
    if signed is None:
        return None
    alpha = TwoColoring(
        {v: c for col in signed.tree_colorings.values() for v, c in col.items()})
    return OddMinorModel(signed.trees, signed.tree_edges, alpha, signed.edge_witness)
