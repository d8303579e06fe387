"""Deterministic instance generators for the corpus and the CLI."""

from __future__ import annotations

import random
from typing import Union

# complete lives in graph and is re-exported
from .graph import Graph, Path, complete, _norm_edge
from .oddminor import is_parity_breaking
from .subdivision import (
    SubdivisionEmbedding,
    join_pattern_edges,
    verify_subdivision,
)

Edge = tuple[int, int]


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 0 or n < 0:
        raise ValueError("sides must be >= 0")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with an explicit seed; identical calls yield identical graphs."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError("need n >= 0 and 0 <= p <= 1")
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def join_subdivision(
    s: int, t: int, counts: Union[int, dict[Edge, int]] = 1
) -> tuple[Graph, SubdivisionEmbedding]:
    """A subdivision of K_s + I_t together with its embedding.

    counts gives the number of subdivision vertices per pattern edge (a single
    int applies to all edges). With every count odd the union is bipartite:
    all branch vertices land on one side.
    """
    if s < 1 or t < 0:
        raise ValueError("need s >= 1 and t >= 0")
    pattern = [_norm_edge(*e) for e in join_pattern_edges(s, t)]
    if isinstance(counts, int):
        counts = {e: counts for e in pattern}
    if set(counts) != set(pattern) or any(c < 0 for c in counts.values()):
        raise ValueError("counts must cover exactly the pattern edges")
    edges: list[Edge] = []
    linking: dict[Edge, Path] = {}
    nxt = s + t
    for u, v in pattern:
        chain = [u] + list(range(nxt, nxt + counts[(u, v)])) + [v]
        nxt += counts[(u, v)]
        edges.extend(zip(chain, chain[1:]))
        linking[(u, v)] = Path(tuple(chain))
    G = Graph(nxt, edges)
    emb = SubdivisionEmbedding(s, t, {i: i for i in range(s + t)}, linking)
    ok, reason = verify_subdivision(G, emb, require_bipartite=False)
    assert ok, reason
    return G, emb


def chorded_subdivision(
    s: int, t: int, num_chords: int, seed: int
) -> tuple[Graph, SubdivisionEmbedding, tuple[Path, ...]]:
    """A bipartite K_s + I_t subdivision plus vertex-disjoint parity-breaking
    chords between branch vertices.

    Each pattern edge is subdivided an odd number of times (1 or 3, seeded),
    so the union is bipartite with all branch vertices on the same side; each
    chord is then an odd-length path (length 1 or 3, seeded) between two
    otherwise untouched branch vertices, hence parity-breaking. The chords
    are re-checked with the parity predicate before returning.
    """
    if num_chords < 0 or 2 * num_chords > s + t:
        raise ValueError("need 0 <= 2 * num_chords <= s + t")
    rng = random.Random(seed)
    pattern = [_norm_edge(*e) for e in join_pattern_edges(s, t)]
    counts = {e: rng.choice((1, 3)) for e in pattern}
    G, emb = join_subdivision(s, t, counts)

    ends = rng.sample(range(s + t), 2 * num_chords)
    edges = list(G.edges())
    n = G.n
    chords: list[Path] = []
    for i in range(num_chords):
        a, b = sorted((ends[2 * i], ends[2 * i + 1]))
        if rng.random() < 0.5:
            edges.append((a, b))
            chords.append(Path((a, b)))
        else:
            edges += [(a, n), (n, n + 1), (n + 1, b)]
            chords.append(Path((a, n, n + 1, b)))
            n += 2
    G = Graph(n, edges)
    ok, reason = verify_subdivision(G, emb, require_bipartite=True)
    assert ok, reason
    for p in chords:
        assert p.is_path_of(G)
        assert is_parity_breaking(p, emb.host_coloring)
    return G, emb, tuple(chords)
