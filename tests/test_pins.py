"""One pin per command over seeded certificates: a change that keeps every
verdict and certificate of the fixed corpora below keeps these hashes.

Each corpus is built from `generators` with a fixed seed. The hash covers,
per instance, the verdict and the canonical certificate (for `color`, the
recursion trace too; for the parity-breaking dichotomy, which has no
certificate kind, the paths or the cover). A change that alters a
certificate on purpose re-records the pin and says how many changed.
"""

import hashlib
import json
import random
from collections import Counter

import pytest

from oddminorkit import (
    Decomposition,
    Graph,
    OddMinorFoundError,
    certify_coloring,
    certify_cover,
    certify_decomposition,
    certify_odd_minor_model,
    certify_packing,
    certify_signed_minor_model,
    chorded_subdivision,
    color_clustered,
    color_defective,
    complete,
    complete_bipartite,
    cycle,
    find_odd_clique_minor,
    find_signed_minor,
    join_subdivision,
    odd_s_paths_dichotomy,
    parity_breaking_dichotomy,
    random_graph,
    serialize_certificate,
    structure_theorem,
)


def glued(rng: random.Random, pieces: list[Graph]) -> Graph:
    """The pieces glued one after another, each at its vertex 0 onto a random
    vertex of what is built so far: every glue vertex is a cut vertex."""
    n, edges = 1, []
    for P in pieces:
        ids = [rng.randrange(n)] + list(range(n, n + P.n - 1))
        edges += [(ids[u], ids[v]) for u, v in P.edges()]
        n += P.n - 1
    return Graph(n, edges)


def small_glued(rng: random.Random, most: int) -> Graph:
    """glued() on two or three random PIECES, redrawn until it has at most
    `most` vertices."""
    while True:
        G = glued(rng, rng.sample(PIECES, rng.randint(2, 3)))
        if G.n <= most:
            return G


# blocks that are bipartite (K_{2,3}, K_{3,3}, C_6), too small for K_4 (K_3),
# or neither (C_5, K_4, K_5 minus an edge)
PIECES = [complete_bipartite(2, 3), complete_bipartite(3, 3), cycle(6), complete(3),
          cycle(5), complete(4), Graph(5, [(u, v) for u in range(5)
                                           for v in range(u + 1, 5) if (u, v) != (0, 1)])]


def _detect(rng):
    hosts = [random_graph(rng.randint(5, 9), rng.choice((0.2, 0.3, 0.4, 0.5, 0.6)),
                          rng.randrange(10**6)) for _ in range(40)]
    hosts += [small_glued(rng, 10) for _ in range(24)]
    for G in hosts:
        for t in (3, 4):
            model = find_odd_clique_minor(G, t)
            yield ("absent", None, None) if model is None else (
                "present", certify_odd_minor_model(G, complete(t), model), None)
            Kt = complete(t)
            sigma = [e for e in Kt.edges() if rng.random() < 0.5]
            model = find_signed_minor(G, Kt, sigma)
            yield ("absent", None, None) if model is None else (
                "present", certify_signed_minor_model(G, Kt, sigma, model), None)


def _decompose(rng):
    for t, c in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)] * 4:
        G, _, _ = chorded_subdivision(2 * t - 2, t, c, rng.randrange(10**6))
        out = structure_theorem(G, t, limit=G.n)
        if isinstance(out, Decomposition):
            yield "decomposition", certify_decomposition(G, t, out), None
        else:
            yield "odd-minor", certify_odd_minor_model(G, complete(t), out), None


def _ep(rng):
    for _ in range(150):
        n = rng.randint(3, 11)
        G = random_graph(n, rng.choice((0.15, 0.25, 0.35, 0.5)), rng.randrange(10**6))
        S = sorted(rng.sample(range(n), rng.randint(2, min(6, n))))
        l = rng.randint(1, 3)
        res = odd_s_paths_dichotomy(G, S, l)
        yield ("packing", certify_packing(G, S, l, res.packing), None) if res.is_packing else (
            "cover", certify_cover(G, S, l, res.cover), None)
    for t, c in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)] * 4:
        G, emb, _ = chorded_subdivision(2 * t - 2, t, c, rng.randrange(10**6))
        res = parity_breaking_dichotomy(G, emb, t - 1, limit=G.n)
        if res.is_packing:
            yield "parity-packing", None, [list(p.vertices) for p in res.packing]
        else:
            yield "parity-cover", None, sorted(res.cover)


def _color(rng):
    hosts = [complete_bipartite(3, 4), complete_bipartite(4, 4), cycle(12), cycle(7),
             join_subdivision(4, 3, 1)[0], glued(rng, [cycle(5), complete_bipartite(3, 3)])]
    hosts += [random_graph(rng.randint(11, 14), 0.15, rng.randrange(10**6)) for _ in range(8)]
    hosts += [small_glued(rng, 12) for _ in range(8)]
    for G in hosts:
        for t in (3, 4):
            for mode, color, bound in (("defective", color_defective, 6 * t - 9),
                                       ("clustered", color_clustered, 10 * t - 13)):
                trace = []
                try:
                    a, value = color(G, t, trace=trace)
                except OddMinorFoundError as e:
                    yield "odd-minor", certify_odd_minor_model(G, complete(t), e.model), trace
                    continue
                yield "colored", certify_coloring(G, a, mode, t, bound, value), trace


# command -> (corpus, sha256, verdict counts), recorded before the signed
# search kept only the blocks that can hold its pattern
PINS = {
    "detect": (_detect, "f370094b9ed35285ce29334c1bb05bf7b7a3fb10852cb3ef84f5f4bf15d13933",
               {"present": 154, "absent": 102}),
    "decompose": (_decompose, "6d7bac34bfcb6f4ed230afdc2897928d9e13069a6179a478632d0ea398c8dab5",
                  {"decomposition": 12, "odd-minor": 8}),
    "ep": (_ep, "8b889607d38159cc29c7aa58326d08dfbfd720eb36ea6b06cbce1822763f862b",
           {"cover": 95, "packing": 55, "parity-cover": 12, "parity-packing": 8}),
    "color": (_color, "22a34a56f108f4fa0c87f991d1c85f043ea517b24dabd5247d7fb62d1538adb7",
              {"colored": 62, "odd-minor": 26}),
}


@pytest.mark.parametrize("command", list(PINS))
def test_seeded_certificates_are_pinned(command):
    corpus, pin, counts = PINS[command]
    rows = [f"{verdict}|{'' if cert is None else serialize_certificate(cert)}|"
            f"{json.dumps(extra, sort_keys=True)}"
            for verdict, cert, extra in corpus(random.Random(20161014))]
    assert dict(Counter(r.split("|")[0] for r in rows)) == counts
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == pin
