"""Simple undirected graphs and the classical subroutines everything else consumes.

Vertices are dense 0-based integers.  Adjacency is one bitmask per vertex,
read through Graph.adj_mask; bits(mask) lists a mask's vertices in ascending
order, and Graph.reach flood-fills a vertex mask.  Graphs are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


class GraphError(ValueError):
    """Malformed graph input (bad header, loop, parallel edge, bad index)."""


class SizeLimitError(RuntimeError):
    """A desk-scale exhaustive search was asked to run on too large a graph."""


# Most vertices a parsed or generated graph may have. It sits far above every
# generator and benchmark host (127 vertices) and keeps a hostile header such
# as "p edge 10000000 0" from allocating hundreds of megabytes.
MAX_VERTICES = 1000


def check_size(G: Graph, limit: Optional[int], layer: str, fallback: int = 14) -> int:
    """The size guard of every exhaustive search. When G has more than limit
    vertices it raises SizeLimitError, which names the layer, the size and
    the limit. A limit of None reads ODDMINOR_LIMIT, else the layer's
    fallback. Returns the limit in force."""
    if limit is None:
        limit = fallback
        env = os.environ.get("ODDMINOR_LIMIT")
        if env:
            try:
                limit = int(env)
            except ValueError:
                pass
    if G.n > limit:
        raise SizeLimitError(f"{layer}: graph has {G.n} > {limit} vertices")
    return limit


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def bits(mask: int) -> list[int]:
    """The set bits of mask (the vertices of a vertex mask), ascending."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


class Graph:
    """A finite simple undirected graph on vertices 0..n-1.

    Adjacency is one bitmask per vertex: bit w of adj_mask(v) is set iff vw
    is an edge.
    """

    __slots__ = ("n", "_adj_mask", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if type(n) is bool:
            raise GraphError("vertex count must be an integer, not a bool")
        masks = [0] * n
        es: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex index out of range in edge ({u},{v})")
            # a bool passes as 0 or 1, but graph_hash would spell it out
            if type(u) is bool or type(v) is bool:
                raise GraphError(f"edge ({u},{v}) names a vertex by a bool")
            if u == v:
                raise GraphError(f"loop at vertex {u} rejected")
            if masks[u] >> v & 1:
                raise GraphError(f"parallel edge ({u},{v}) rejected")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            es.append(_norm_edge(u, v))
        self.n = n
        self._adj_mask = tuple(masks)
        self._edges = tuple(sorted(es))

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def adj_mask(self, v: int) -> int:
        return self._adj_mask[v]

    def degree(self, v: int) -> int:
        return self._adj_mask[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        n = self.n
        return 0 <= u < n and 0 <= v < n and self._adj_mask[u] >> v & 1 == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ------------------------------------------------

    def without_edges(self, drop: Iterable[tuple[int, int]]) -> "Graph":
        dropset = {_norm_edge(u, v) for u, v in drop}
        return Graph(self.n, [e for e in self._edges if e not in dropset])

    def subgraph_on(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph keeping original vertex ids (non-members isolated)."""
        vs = set(vertices)
        return Graph(self.n, [e for e in self._edges if e[0] in vs and e[1] in vs])

    # -- connectivity --------------------------------------------------

    def reach(self, seed: int, within: int) -> int:
        """The vertices of G[within] joined to a vertex of seed & within by a
        path inside within, as a mask: the union of the components of
        G[within] that meet seed."""
        adj = self._adj_mask
        comp = frontier = seed & within
        while frontier:
            nbrs = 0
            while frontier:
                low = frontier & -frontier
                nbrs |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nbrs & within & ~comp
            comp |= frontier
        return comp


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoColoring:
    """A coloring of a vertex subset with colors 1 and 2."""

    color: dict[int, int]

    def __post_init__(self):
        for v, c in self.color.items():
            if c not in (1, 2):
                raise ValueError(f"color of {v} must be 1 or 2, got {c}")

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self.color)

    def __call__(self, v: int) -> int:
        return self.color[v]


@dataclass(frozen=True)
class Separation:
    """A separation (A, B): A union B = V, no edge between A-B and B-A."""

    A: frozenset[int]
    B: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.A & self.B)


@dataclass(frozen=True)
class Path:
    """A path given by its ordered vertex sequence."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path vertices must be distinct")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def parity(self) -> int:
        return self.length % 2

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            _norm_edge(a, b) for a, b in zip(self.vertices, self.vertices[1:])
        )

    def is_path_of(self, G: Graph) -> bool:
        return all(G.has_edge(a, b) for a, b in zip(self.vertices, self.vertices[1:]))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_GRAPH6_HEADER = b">>graph6<<"


def _parse_graph6(data: bytes) -> Graph:
    s = data.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):].strip()
    if not s:
        raise GraphError("empty graph6 input")
    first = s[0] - 63
    if s[0] == 126:  # '~' marks the long forms
        raise GraphError("graph6 long form (n > 62) not supported")
    if not (0 <= first <= 62):
        raise GraphError("malformed graph6 header byte")
    n = first
    body = s[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6 body length {len(body)}, expected {need}")
    bits = []
    for ch in body:
        x = ch - 63
        if not (0 <= x <= 63):
            raise GraphError("invalid graph6 character")
        bits.extend((x >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(f"expected an integer, got {token!r}") from None


def _vertex_count(token: str) -> int:
    n = _int(token)
    if n > MAX_VERTICES:
        raise GraphError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    return n


def _parse_dimacs(data: bytes) -> Graph:
    n = None
    edges = []
    for raw in data.decode("ascii", "replace").splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1] not in ("edge", "col"):
                raise GraphError(f"malformed DIMACS header: {line!r}")
            if n is not None:
                raise GraphError("second DIMACS header")
            n = _vertex_count(parts[2])
        elif parts[0] == "e":
            if n is None:
                raise GraphError("DIMACS edge before header")
            if len(parts) != 3:
                raise GraphError(f"malformed DIMACS edge line: {line!r}")
            edges.append((_int(parts[1]) - 1, _int(parts[2]) - 1))
        else:
            raise GraphError(f"unrecognized DIMACS line: {line!r}")
    if n is None:
        raise GraphError("missing DIMACS header")
    return Graph(n, edges)


def _parse_edgelist(data: bytes) -> Graph:
    lines = [
        ln.strip()
        for ln in data.decode("ascii", "replace").splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise GraphError("edgelist input must start with 'n <count>'")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise GraphError("edgelist input must start with 'n <count>'")
    n = _vertex_count(head[1])
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edgelist line: {line!r}")
        edges.append((_int(parts[0]), _int(parts[1])))
    return Graph(n, edges)


def parse_graph(text: bytes, format: str) -> Graph:
    """Parse a graph from graph6 (short form), DIMACS, or edgelist bytes.

    Any malformed input, or one with more than MAX_VERTICES vertices, raises
    GraphError.
    """
    if isinstance(text, str):
        try:
            text = text.encode("ascii")
        except UnicodeEncodeError:
            raise GraphError("graph text must be ASCII") from None
    if format == "graph6":
        return _parse_graph6(text)
    if format == "dimacs":
        return _parse_dimacs(text)
    if format == "edgelist":
        return _parse_edgelist(text)
    raise GraphError(f"unknown format {format!r}")


def to_graph6(G: Graph) -> str:
    """Encode in graph6 short form (n <= 62)."""
    if G.n > 62:
        raise GraphError("graph6 short form supports n <= 62 only")
    bits = []
    for v in range(1, G.n):
        for u in range(v):
            bits.append(1 if G.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(G.n + 63)]
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i : i + 6]:
            x = (x << 1) | b
        out.append(chr(x + 63))
    return "".join(out)


def to_edgelist(G: Graph) -> str:
    lines = [f"n {G.n}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def to_dimacs(G: Graph) -> str:
    lines = [f"p edge {G.n} {G.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bipartition
# ---------------------------------------------------------------------------


def _two_color(
    G: Graph, alive: Optional[int] = None, same: Optional[list[int]] = None,
) -> tuple[dict[int, int], dict[int, int], Optional[tuple[int, int]]]:
    """The one 2-coloring search, on the piece G[alive] (alive a vertex mask,
    default every vertex): (colors, search-tree parents, the first edge
    that breaks the rule, or None). The rule: the ends of an edge vw get
    one color iff w is in same[v], a mask of the neighbours that keep v's
    color (same symmetric; default none, so the coloring is proper). The
    smallest vertex of each component gets color 1 and has no parent; the
    search stops at a bad edge."""
    within = (1 << G.n) - 1 if alive is None else alive
    color: dict[int, int] = {}
    parent: dict[int, int] = {}
    for s in range(G.n):
        if s in color or not within >> s & 1:
            continue
        color[s] = 1
        queue = [s]
        while queue:
            v = queue.pop()
            c, keep = color[v], 0 if same is None else same[v]
            for w in bits(G.adj_mask(v) & within):
                want = c if keep >> w & 1 else 3 - c
                if w not in color:
                    color[w] = want
                    parent[w] = v
                    queue.append(w)
                elif color[w] != want:
                    return color, parent, (v, w)
    return color, parent, None


def bipartition(G: Graph, alive: Optional[int] = None) -> Optional[TwoColoring]:
    """Proper 2-coloring of the piece G[alive] (alive a vertex mask, default
    every vertex), or None if it has an odd cycle.

    Per component the coloring is canonical: the smallest vertex gets color 1.
    """
    color, _, bad = _two_color(G, alive)
    return None if bad else TwoColoring(color)


def find_odd_cycle(G: Graph) -> Optional[Path]:
    """An odd cycle witness (closed walk as v0..vk with v0 adjacent to vk), or
    None; the bad edge of bipartition's search closes it."""
    _, parent, bad = _two_color(G)
    if bad is None:
        return None
    # walk both parent chains to the common ancestor
    pv, pw = [bad[0]], [bad[1]]
    for chain in (pv, pw):
        while chain[-1] in parent:
            chain.append(parent[chain[-1]])
    sw = set(pw)
    anc = next(x for x in pv if x in sw)
    cyc = pv[: pv.index(anc) + 1] + list(reversed(pw[: pw.index(anc)]))
    assert len(cyc) % 2 == 1
    return Path(tuple(cyc))


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def blocks(
    G: Graph, alive: Optional[int] = None
) -> list[tuple[frozenset[int], bool]]:
    """Block decomposition of the piece G[alive] (alive a vertex mask,
    default every vertex): maximal 2-connected blocks, bridges, and
    singleton blocks for isolated vertices, each with whether it is
    bipartite, both from one lowpoint DFS. Sorted by lowest vertex, then
    size, then vertices, so the list is the one of the induced, renumbered
    piece, in G's ids.

    A block's vertices span a subtree of the DFS tree, so 2-coloring them by
    the parity of their DFS depth is proper on its tree edges, and the block
    is bipartite iff none of its edges joins two vertices of equal depth
    parity."""
    within = (1 << G.n) - 1 if alive is None else alive
    result: list[tuple[frozenset[int], bool]] = []
    visited = [False] * G.n
    disc = [0] * G.n
    low = [0] * G.n
    depth = [0] * G.n
    timer = itertools.count(1)
    for root in range(G.n):
        if visited[root] or not within >> root & 1:
            continue
        if not G.adj_mask(root) & within:
            visited[root] = True
            result.append((frozenset([root]), True))
            continue
        # iterative DFS with an edge stack
        estack: list[tuple[int, int]] = []
        stack: list[tuple[int, Optional[int], Iterator[int]]] = [
            (root, None, iter(bits(G.adj_mask(root) & within)))
        ]
        visited[root] = True
        disc[root] = low[root] = next(timer)
        while stack:
            v, par, it = stack[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    estack.append((v, w))
                    visited[w] = True
                    disc[w] = low[w] = next(timer)
                    depth[w] = depth[v] + 1
                    stack.append((w, v, iter(bits(G.adj_mask(w) & within))))
                    advanced = True
                    break
                elif w != par and disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    # the block's edges sit on the edge stack down to (pv, v)
                    comp: set[int] = set()
                    bipartite = True
                    while True:
                        a, b = estack.pop()
                        comp.update((a, b))
                        bipartite = bipartite and (depth[a] ^ depth[b]) & 1 == 1
                        if (a, b) == (pv, v):
                            break
                    result.append((frozenset(comp), bipartite))
    return sorted(result, key=lambda r: (min(r[0]), len(r[0]), sorted(r[0])))


# ---------------------------------------------------------------------------
# Small separations
# ---------------------------------------------------------------------------


def find_small_separation(
    G: Graph, Z: Iterable[int], max_order: int, alive: Optional[int] = None
) -> Optional[Separation]:
    """A separation (A, B) of G[alive] (alive a vertex mask, default every
    vertex) of order <= max_order leaving a vertex outside Z strictly on each
    side, minimizing order (tie-break: lexicographically least A cap B).
    None if no such separation exists.

    The search is `small_separation` on masks; this wrapper turns Z into a
    mask (ids outside the graph ignored) and the answer into sets.
    """
    full = (1 << G.n) - 1 if alive is None else alive
    zmask = 0
    for z in set(Z):
        if 0 <= z < G.n:
            zmask |= 1 << z
    sep = small_separation(G, zmask, max_order, full)
    if sep is None:
        return None
    A, B = sep
    return Separation(frozenset(bits(A)), frozenset(bits(B)))


def small_separation(
    G: Graph, zmask: int, max_order: int, alive: int
) -> Optional[tuple[int, int]]:
    """find_small_separation on vertex masks: the (A, B) masks of the same
    separation of G[alive] for the precolored mask zmask, or None.

    Cuts are tried by order, and within one order in lexicographic order.
    For each cut the components of G[alive] - cut are flood-filled by
    Graph.reach, lowest vertex first; A is the cut plus the first component
    that meets alive - Z, and B is the rest of alive. No Graph is built per
    cut, and the order of cuts is that of G[alive] renumbered by vertex id,
    so the separation is the one found there.
    """
    reach = G.reach
    outside_z = alive & ~zmask
    members = bits(alive)
    for k in range(0, max_order + 1):
        for cut in itertools.combinations(members, k):
            cutmask = 0
            for v in cut:
                cutmask |= 1 << v
            rest = left = alive & ~cutmask
            side_a = 0
            while rest:
                comp = reach(rest & -rest, left)
                if comp & outside_z:
                    side_a = comp
                    break
                rest &= ~comp
            if side_a and left & outside_z & ~side_a:
                return side_a | cutmask, alive & ~side_a
    return None
