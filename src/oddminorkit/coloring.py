"""Improper coloring pipeline: the two quality measures (defect and largest
monochromatic component, both on adjacency bitmasks) and their verifier,
heuristic base colorers, the precoloring-extension recursion, the
defective/clustered entry points, and the average-degree bound calculators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .graph import Graph, bipartition, bits, check_size, small_separation
from .oddminor import OddMinorModel, find_odd_clique_minor
from .structure import Decomposition, structure_theorem
from .subdivision import find_bipartite_join_subdivision


class OddMinorFoundError(Exception):
    """The input turned out to contain an odd clique minor; carries proof."""

    def __init__(self, t: int, model: OddMinorModel):
        super().__init__(f"odd K_{t} minor found")
        self.t = t
        self.model = model


@dataclass(frozen=True)
class ColoringAssignment:
    colors: dict[int, int]
    palette_size: int

    def __call__(self, v: int) -> int:
        return self.colors[v]


# ---------------------------------------------------------------------------
# Quality measures
# ---------------------------------------------------------------------------


def _class_masks(colors: dict[int, int]) -> dict[int, int]:
    masks: dict[int, int] = {}
    for v, c in colors.items():
        masks[c] = masks.get(c, 0) | 1 << v
    return masks


def _achieved_defect(G: Graph, colors: dict[int, int]) -> int:
    """Most same-colored neighbours of any vertex."""
    masks = _class_masks(colors)
    return max(((G.adj_mask(v) & masks[c]).bit_count() for v, c in colors.items()),
               default=0)


def _achieved_cluster(G: Graph, colors: dict[int, int]) -> int:
    """Order of the largest monochromatic component, each class flood-filled
    by Graph.reach, lowest vertex first."""
    worst = 0
    for rest in _class_masks(colors).values():
        while rest:
            comp = G.reach(rest & -rest, rest)
            rest &= ~comp
            worst = max(worst, comp.bit_count())
    return worst


def _palette_fault(c: ColoringAssignment) -> Optional[str]:
    """Why c's colors are not integers in 1..c.palette_size, or None.

    Colors and the palette size must be ints (not bools): colors 1.0, 1.2,
    ..., 2.0 lie between 1 and 2 yet make six classes of a palette of two."""
    if any(type(col) is not int for col in c.colors.values()):
        return "color-not-an-integer"
    p = c.palette_size
    if type(p) is not int or any(not 1 <= col <= p for col in c.colors.values()):
        return "color-out-of-palette"
    return None


def verify_coloring(G: Graph, c: ColoringAssignment, mode: str, value: int) -> bool:
    """True iff c colors every vertex of G from 1..c.palette_size, colors
    and palette size being ints and not bools, and its measure is at most
    value: the defect (mode "defective") or the largest monochromatic
    component (mode "clustered")."""
    if mode == "defective":
        measure = _achieved_defect
    elif mode == "clustered":
        measure = _achieved_cluster
    else:
        raise ValueError(f"unknown coloring mode {mode!r}")
    if set(c.colors) != set(G.vertices()) or _palette_fault(c) is not None:
        return False
    return measure(G, c.colors) <= value


# ---------------------------------------------------------------------------
# Base colorers
# ---------------------------------------------------------------------------


def _degeneracy_order(G: Graph, alive: int) -> list[int]:
    """The vertices of the piece G[alive], each of least degree among those
    left (ties to the lowest id) when it is removed: the lowest bit of the
    lowest non-empty bucket, bucket[d] being the mask of degree-d vertices.
    A removal lowers degrees by at most one, so the search restarts at d - 1."""
    deg = [0] * G.n
    bucket = [0] * (alive.bit_count() + 1)
    for v in bits(alive):
        deg[v] = d = (G.adj_mask(v) & alive).bit_count()
        bucket[d] |= 1 << v
    order = []
    d = 0
    while alive:
        while not bucket[d]:
            d += 1
        low = bucket[d] & -bucket[d]
        bucket[d] ^= low
        alive ^= low
        v = low.bit_length() - 1
        order.append(v)
        for w in bits(G.adj_mask(v) & alive):
            bucket[deg[w]] ^= 1 << w
            deg[w] -= 1
            bucket[deg[w]] |= 1 << w
        d = max(d - 1, 0)
    return order


def base_defective_coloring(
    G: Graph, s: int, alive: Optional[int] = None
) -> tuple[ColoringAssignment, int]:
    """Greedy low-defect coloring of the piece G[alive] (alive a vertex mask,
    default every vertex) with s colors (1 color if edgeless).

    Vertices are colored in reverse degeneracy order, each taking the color
    least used among already-colored neighbors; the achieved defect is
    measured, not assumed.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if alive is None:
        alive = (1 << G.n) - 1
    if not any(G.adj_mask(v) & alive for v in bits(alive)):
        return ColoringAssignment({v: 1 for v in bits(alive)}, 1), 0
    colors: dict[int, int] = {}
    for v in reversed(_degeneracy_order(G, alive)):
        counts = [0] * (s + 1)
        for w in bits(G.adj_mask(v) & alive):
            if w in colors:
                counts[colors[w]] += 1
        colors[v] = min(range(1, s + 1), key=lambda c: (counts[c], c))
    c = ColoringAssignment(colors, s)
    return c, _achieved_defect(G, colors)


def base_clustered_coloring(
    G: Graph, alive: Optional[int] = None
) -> tuple[ColoringAssignment, int]:
    """Greedy small-cluster coloring of the piece G[alive] (alive a vertex
    mask, default every vertex) with at most 3 colors, the paper's three
    per defective class.

    Each vertex takes the color minimizing the size of the monochromatic
    component it would join; the achieved cluster size is measured
    afterwards.
    """
    if alive is None:
        alive = (1 << G.n) - 1
    if not any(G.adj_mask(v) & alive for v in bits(alive)):
        return ColoringAssignment({v: 1 for v in bits(alive)}, 1), (
            1 if alive else 0
        )
    colors: dict[int, int] = {}
    class_mask = [0] * 4  # by color, 1..3

    def joined_size(v: int, c: int) -> int:
        # order of the class-c component v would join
        bit = 1 << v
        return G.reach(bit, class_mask[c] | bit).bit_count()

    for v in reversed(_degeneracy_order(G, alive)):
        colors[v] = col = min(range(1, 4), key=lambda c: (joined_size(v, c), c))
        class_mask[col] |= 1 << v
    c = ColoringAssignment(colors, 3)
    return c, _achieved_cluster(G, colors)


# ---------------------------------------------------------------------------
# Precoloring extension
# ---------------------------------------------------------------------------


BaseColorer = Callable[[Graph, int], ColoringAssignment]


def _check_contract(
    G: Graph, Z: frozenset[int], f: dict[int, int], g: dict[int, int], k: int
) -> None:
    assert set(g) == set(G.vertices()), "extension is not total"
    assert all(1 <= c <= k for c in g.values()), "color outside the palette"
    for z in Z:
        assert g[z] == f[z], "precolored vertex changed color"
    for v in Z:
        for w in bits(G.adj_mask(v)):
            if w not in Z:
                assert g[v] != g[w], "precolored vertex matches an outside neighbor"


def precolor_extend(
    G: Graph,
    Z: frozenset[int],
    f: dict[int, int],
    t: int,
    d: int,
    base: BaseColorer,
    trace: Optional[list] = None,
) -> ColoringAssignment:
    """Extend the precoloring f on Z to all of G with palette d + 4t - 7.

    The recursion follows four reductions: drop edges inside Z; split along
    a small separation; fall back to the base colorer when no bipartite
    K_{2t-2} + I_t subdivision survives outside Z; otherwise color directly
    through the apex + bipartite-block decomposition. Discovery of an odd
    K_t minor aborts with OddMinorFoundError carrying the certificate.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    k = d + 4 * t - 7
    if len(Z) > 4 * t - 7:
        raise ValueError("|Z| exceeds 4t-7")
    if any(not 0 <= z < G.n for z in Z):
        raise ValueError("Z holds a vertex id outside the graph")
    if set(f) != set(Z):
        raise ValueError("f must be defined exactly on Z")
    if any(not 1 <= c <= k for c in f.values()):
        raise ValueError("precolor outside the palette")
    colors = _extend(G, (1 << G.n) - 1, sum(1 << z for z in Z), dict(f), t, d,
                     base, trace if trace is not None else [])
    _check_contract(G, Z, f, colors, k)
    return ColoringAssignment(colors, k)


def _fresh(f: dict[int, int], k: int) -> list[int]:
    """The colors 1..k that the precoloring f does not use."""
    used = set(f.values())
    return [c for c in range(1, k + 1) if c not in used]


def _extend(
    G: Graph, alive: int, Z: int, f: dict[int, int], t: int, d: int,
    base: BaseColorer, trace: list,
) -> dict[int, int]:
    """Extend f on the vertex mask Z to the piece G[alive] (Z within alive).
    Every piece is an induced subgraph of the one host G and keeps its vertex
    ids, so colorings, embeddings and odd K_t models need no mapping back.
    Pieces, Z, each split's sides and the interface are vertex masks; a split
    comes from `small_separation`, with no Separation or set built."""
    k = d + 4 * t - 7
    size = alive.bit_count()

    if size <= 4 * t - 7:
        trace.append(f"base:|V|={size}")
        g = dict(f)
        g.update(zip(bits(alive & ~Z), _fresh(f, k)))
        return g

    zz = [(z, w) for z in bits(Z) for w in bits(G.adj_mask(z) & Z) if z < w]
    if zz:
        trace.append(f"stabilize:{len(zz)}")
        G = G.without_edges(zz)

    sep = small_separation(G, Z, 2 * t - 3, alive)
    if sep is not None:
        A, B = sep
        if (B & ~A & Z).bit_count() > Z.bit_count() // 2:
            A, B = B, A
        trace.append(f"split:order={(A & B).bit_count()}")
        g1 = _extend(G, A | Z, Z, f, t, d, base, trace)
        Zp = (A & B) | (B & Z)
        assert Zp.bit_count() <= 4 * t - 7
        g2 = _extend(G, B, Zp, {z: g1[z] for z in bits(Zp)}, t, d, base, trace)
        for z in bits(Zp):
            assert g1[z] == g2[z], "split colorings disagree on the interface"
        g2.update(g1)
        return g2

    emb = find_bipartite_join_subdivision(
        G.subgraph_on(bits(alive & ~Z)), 2 * t - 2, t, limit=max(G.n, 30)
    )

    if emb is None:
        trace.append("base-colorer")
        c0 = base(G, alive & ~Z)
        assert c0.palette_size <= d, "base colorer exceeded its palette"
        fresh = _fresh(f, k)
        g = dict(f)
        for v, c in c0.colors.items():
            g[v] = fresh[c - 1]
        return g

    trace.append("decompose")
    out = structure_theorem(
        G.subgraph_on(bits(alive)), t, emb=emb, limit=max(G.n * 4, 30)
    )
    if isinstance(out, OddMinorModel):
        raise OddMinorFoundError(t, out)
    dec: Decomposition = out
    X, U = sum(1 << v for v in dec.X), sum(1 << v for v in dec.U)
    assert not alive & ~X & ~U & ~Z, "stray vertex outside apex set and block"
    avail = _fresh(f, 4 * t - 4)
    assert len(avail) >= 3, "not enough fresh colors"
    c1, c2, c3 = avail[:3]
    UZ = U & ~Z
    side = bipartition(G, UZ)
    assert side is not None
    g = dict(f)
    for v in bits(X & ~Z):
        g[v] = c1
    for v in bits(UZ):
        g[v] = c2 if side(v) == 1 else c3
    return g


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _maybe_precheck(G: Graph, t: int) -> None:
    """Search a host of at most 10 vertices for an odd K_t minor up front.

    For t >= 3 the size guard runs first, then a host that `bipartition`
    2-colors returns at once: an odd K_t (t >= 3) holds an odd cycle. Any
    other host goes to `find_odd_clique_minor`."""
    if G.n <= 10:
        if t >= 3:
            check_size(G, None, "find_odd_clique_minor")
            if bipartition(G) is not None:
                return
        model = find_odd_clique_minor(G, t)
        if model is not None:
            raise OddMinorFoundError(t, model)


def color_defective(
    G: Graph, t: int, trace: Optional[list] = None,
) -> tuple[ColoringAssignment, int]:
    """Color with at most 6t-9 colors; returns the coloring and the achieved
    defect. Raises OddMinorFoundError with a certificate when an odd K_t
    minor surfaces (always on graphs with at most 10 vertices, which are
    checked up front: for t >= 3 a host that `bipartition` 2-colors has
    none, and any other goes to `find_odd_clique_minor`). The precoloring
    recursion then runs on vertex masks of the one host."""
    if t < 2:
        raise ValueError("t must be >= 2")
    _maybe_precheck(G, t)
    s = 2 * t - 2

    def base(H: Graph, alive: int) -> ColoringAssignment:
        return base_defective_coloring(H, s, alive)[0]

    g = precolor_extend(G, frozenset(), {}, t, s, base, trace=trace)
    assert g.palette_size == 6 * t - 9
    return g, _achieved_defect(G, g.colors)


def color_clustered(
    G: Graph, t: int, trace: Optional[list] = None,
) -> tuple[ColoringAssignment, int]:
    """Color with at most 10t-13 colors; returns the coloring and the
    achieved cluster size (largest monochromatic component)."""
    if t < 2:
        raise ValueError("t must be >= 2")
    _maybe_precheck(G, t)
    s = 2 * t - 2

    def base(H: Graph, alive: int) -> ColoringAssignment:
        c1, _ = base_defective_coloring(H, s, alive)
        combined: dict[int, int] = {}
        for col, members in _class_masks(c1.colors).items():
            c2, _ = base_clustered_coloring(H, members)
            for v, c in c2.colors.items():
                combined[v] = (col - 1) * 3 + c
        return ColoringAssignment(combined, 3 * c1.palette_size)

    g = precolor_extend(G, frozenset(), {}, t, 3 * s, base, trace=trace)
    assert g.palette_size == 10 * t - 13
    return g, _achieved_cluster(G, g.colors)


# ---------------------------------------------------------------------------
# Bound calculators
# ---------------------------------------------------------------------------


def bound_M(s: int, t: int, d1: float, d2: float) -> float:
    """Piecewise defect bound for graphs with no bipartite K_s + I_t
    subdivision, driven by the two average-degree thresholds d1, d2."""
    if s < 1 or t < 1:
        raise ValueError("s and t must be >= 1")
    if d1 < 0 or d2 < 0:
        raise ValueError("thresholds must be nonnegative")
    if s == 1:
        return float(t - 1)
    if s == 2:
        return d2 * t * (d1 - 2) / 2 + d1
    return (d1 - s) * (math.comb(int(d2), s - 1) * (t - 1) + d2 / 2) + d1


def bound_N(s: int, t: int, c0: float = 10.0) -> float:
    """bound_M specialized at the classical average-degree thresholds
    2*c0*(s+t)^2 and c0*(s+t)^2."""
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    p2 = (s + t) ** 2
    return bound_M(s, t, 2 * c0 * p2, c0 * p2)
