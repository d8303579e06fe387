"""Packing/covering dichotomies for odd S-paths and parity-breaking C-paths.

An S-path joins two distinct vertices of S; its internal vertices are
unrestricted. Either `l` pairwise vertex-disjoint qualifying paths exist, or
a set of at most 2l-2 vertices meets them all.

Both dichotomies run on one engine for Z2-labelled S-paths (the group-labelled
A-paths of Chudnovsky, Geelen, Gerards, Goddyn, Lohman and Seymour): each
vertex of S carries a label in {0, 1}, and a path u...v qualifies iff
|E(P)| + lab(u) + lab(v) is odd. Odd S-paths have every label 0; a path
between branch vertices breaks the parity of the coloring beta iff it
qualifies with lab(c) = [beta(c) = 1].

The engine searches G itself, the removed vertices kept as a bitmask, and
memoizes the outcome of each residual graph. Candidate paths come shortest
first, each from its lower end, pruned by walk-parity reachability. At
packing level k >= 2, once the first candidate fails, a cover of fewer than
k vertices (found by branching on the vertices of one surviving path) proves
that no k disjoint paths exist, since each would need its own cover vertex.
Covers are the first in (size, lexicographic) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graph import Graph, Path, bits, check_size
from .subdivision import SubdivisionEmbedding, verify_subdivision

DEFAULT_EP_LIMIT = 20


@dataclass(frozen=True)
class PackingCoverResult:
    """Exactly one of packing / cover is set."""

    packing: Optional[tuple[Path, ...]] = None
    cover: Optional[frozenset[int]] = None

    def __post_init__(self):
        if (self.packing is None) == (self.cover is None):
            raise ValueError("exactly one of packing/cover must be given")

    @property
    def is_packing(self) -> bool:
        return self.packing is not None


def _bits(m: int) -> Iterator[int]:
    """Set bits of m, highest first."""
    while m:
        v = m.bit_length() - 1
        yield v
        m ^= 1 << v


def _mask(vs: Iterable[int], n: int) -> int:
    m = 0
    for v in vs:
        if not 0 <= v < n:
            raise ValueError(f"vertex id {v} out of range for {n} vertices")
        m |= 1 << v
    return m


class _PathEngine:
    """Qualifying S-paths of G minus a removed-vertex mask `gone`, odd_ends
    the vertices of S labelled 1. Results are memoized per residual."""

    def __init__(self, G: Graph, S: Iterable[int], odd_ends: Iterable[int] = ()):
        self.n = G.n
        self.adj = [G.adj_mask(v) for v in G.vertices()]
        self.live = sum(1 << v for v in G.vertices() if self.adj[v])  # not isolated
        self.S = _mask(S, G.n)
        self.ones = _mask(odd_ends, G.n) & self.S
        self._first: dict[int, Optional[Path]] = {}
        self._packed: dict[tuple[int, int], Optional[tuple[Path, ...]]] = {}

    def _reach(self, v: int, blocked: int, steps: int) -> tuple[int, int]:
        """(even, odd): vertices that walks of at most `steps` edges from v
        reach with that length parity, avoiding blocked."""
        adj = self.adj
        even, odd, fe, fo = 1 << v, 0, 1 << v, 0
        while steps and (fe or fo):
            ne = no = 0
            while fe:
                low = fe & -fe
                no |= adj[low.bit_length() - 1]
                fe ^= low
            while fo:
                low = fo & -fo
                ne |= adj[low.bit_length() - 1]
                fo ^= low
            fe = ne & ~(blocked | even)
            fo = no & ~(blocked | odd)
            even |= fe
            odd |= fo
            steps -= 1
        return even, odd

    def paths(self, gone: int) -> Iterator[Path]:
        """Qualifying paths of G - gone, from their lower end: shortest
        first, then by lower end, then higher-numbered neighbours first.
        Isolated vertices lie on no path, so they neither start one nor
        lengthen the deepening."""
        alive = self.live & ~gone
        starts = []
        for s in bits(self.S & alive):
            above = self.S & alive & ~((2 << s) - 1)
            same = above & (self.ones if self.ones >> s & 1 else ~self.ones)
            # same-label ends need odd length, other-label ends even length
            even, odd = self._reach(s, gone | 1 << s, self.n)
            if odd & same or even & above & ~same:
                starts.append((s, same, above & ~same))
        for length in range(1, alive.bit_count()):
            for s, same, other in starts:
                yield from self._paths_from(s, length, same if length & 1 else other, gone)

    def _paths_from(self, s: int, length: int, ends: int, gone: int) -> Iterator[Path]:
        adj, walk = self.adj, [s]

        def extend(v: int, used: int, rem: int) -> Iterator[Path]:
            if rem == 1:
                for w in _bits(adj[v] & ends & ~used):
                    yield Path(tuple(walk) + (w,))
                return
            even, odd = self._reach(v, used | gone, rem)
            if not (odd if rem & 1 else even) & ends & ~used:
                return
            for w in _bits(adj[v] & ~used & ~gone):
                walk.append(w)
                yield from extend(w, used | 1 << w, rem - 1)
                walk.pop()

        try:
            if ends:
                yield from extend(s, 1 << s, length)
        finally:
            # extend's closure holds extend itself; dropping the name breaks
            # that cycle, also when the caller abandons this generator (as
            # `first` does after one path) and it is closed at its yield
            del extend

    def first(self, gone: int) -> Optional[Path]:
        if gone not in self._first:
            self._first[gone] = next(self.paths(gone), None)
        return self._first[gone]

    def pack(self, gone: int, k: int) -> Optional[tuple[Path, ...]]:
        """k disjoint qualifying paths of G - gone, each the first candidate
        that leaves room for the rest, or None."""
        if k == 0:
            return ()
        key = (gone, k)
        if key not in self._packed:
            self._packed[key] = self._pack(gone, k)
        return self._packed[key]

    def _pack(self, gone: int, k: int) -> Optional[tuple[Path, ...]]:
        for i, p in enumerate(self.paths(gone)):
            rest = self.pack(gone | _mask(p.vertices, self.n), k - 1)
            if rest is not None:
                return (p,) + rest
            if i == 0 and self.coverable(gone, k - 1):
                return None
        return None

    def coverable(self, gone: int, j: int) -> bool:
        """Whether at most j more vertices meet every path of G - gone."""
        p = self.first(gone)
        if p is None:
            return True
        return j > 0 and any(self.coverable(gone | 1 << v, j - 1) for v in p.vertices)

    def first_cover(self, j: int, gone: int = 0, lo: int = 0) -> Optional[tuple[int, ...]]:
        """The lexicographically first j vertices >= lo meeting every path of
        G - gone, or None. Skipped sets miss a surviving path; the caller
        tries smaller j first, so no proper prefix is a cover."""
        p = self.first(gone)
        if p is None:
            return ()
        if j == 0:
            return None
        on_p = _mask(p.vertices, self.n)
        for x in range(lo, max(p.vertices) + 1):
            if j == 1 and not on_p >> x & 1:
                continue
            rest = self.first_cover(j - 1, gone | 1 << x, x + 1)
            if rest is not None:
                return (x,) + rest
        return None


def _dichotomy(
    G: Graph, eng: _PathEngine, l: int, limit: Optional[int], layer: str
) -> PackingCoverResult:
    if l < 1:
        raise ValueError("l must be >= 1")
    check_size(G, limit, layer, DEFAULT_EP_LIMIT)
    packing = eng.pack(0, l)
    if packing is not None:
        return PackingCoverResult(packing=packing)
    for size in range(2 * l - 1):
        X = eng.first_cover(size)
        if X is not None:
            return PackingCoverResult(cover=frozenset(X))
    raise AssertionError(
        "dichotomy failed: no packing and no small cover (implementation bug)"
    )


def find_odd_s_path(
    G: Graph, S: Iterable[int], avoid: Iterable[int] = ()
) -> Optional[Path]:
    """A shortest odd S-path of G minus avoid, or None after exhaustive
    search. It has the odd S-path dichotomy's guard, so a cover that the
    dichotomy writes under a guard verifies under the same guard."""
    check_size(G, None, "find_odd_s_path", DEFAULT_EP_LIMIT)
    return _PathEngine(G, S).first(_mask(avoid, G.n))


def odd_s_paths_dichotomy(
    G: Graph, S: Iterable[int], l: int, limit: Optional[int] = None
) -> PackingCoverResult:
    """Either l vertex-disjoint odd S-paths or a cover of size <= 2l-2.

    Packing is attempted first; covers are searched by increasing size in
    lexicographic order, so the result is deterministic. S must hold vertex
    ids of G.
    """
    return _dichotomy(G, _PathEngine(G, S), l, limit, "odd_s_paths_dichotomy")


def parity_breaking_dichotomy(
    G: Graph, emb: SubdivisionEmbedding, l: int, limit: Optional[int] = None
) -> PackingCoverResult:
    """Either l disjoint parity-breaking C-paths (with respect to the union
    of emb) or a cover of size <= 2l-2 killing all of them.

    A C-path u...v breaks parity iff |E(P)| + beta(u) + beta(v) is odd, so
    these are the qualifying paths for the labels [beta(c) = 1].
    """
    ok, reason = verify_subdivision(G, emb, require_bipartite=True)
    if not ok:
        raise ValueError(f"invalid embedding: {reason}")
    ones = [c for c in emb.C if emb.host_coloring(c) == 1]
    return _dichotomy(G, _PathEngine(G, emb.C, ones), l, limit,
                      "parity_breaking_dichotomy")
