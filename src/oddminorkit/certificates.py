"""Versioned JSON certificates: construction, strict parsing, verification.

Every certificate carries a content hash of the graph it talks about, so a
certificate can never silently verify against the wrong graph. Serialization
is canonical (sorted keys, compact separators), which makes re-serialization
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .coloring import ColoringAssignment, _palette_fault, verify_coloring
from .erdosposa import find_odd_s_path
from .graph import Graph, Path, TwoColoring, _norm_edge, blocks
from .oddminor import OddMinorModel, verify_odd_minor_model
from .signed import SignedMinorModel, verify_signed_minor_model
from .structure import Decomposition
from .subdivision import SubdivisionEmbedding, verify_subdivision

# CPython's built-in SHA-256 gives hashlib's digests without loading OpenSSL,
# which adds about 3.5 MB to the resident size of every process
try:
    from _sha256 import sha256
except ImportError:  # other interpreters and versions
    from hashlib import sha256

SCHEMA = "odd-minor-kit/1"

_PAYLOAD_KEYS = {
    "odd-minor-model": {"pattern_n", "pattern_edges", "trees", "tree_edges", "alpha", "connectors"},
    "signed-minor-model": {
        "pattern_n", "pattern_edges", "pattern_signature",
        "trees", "tree_edges", "tree_colorings", "edge_witness",
    },
    "subdivision": {"s", "t", "branch", "linking", "bipartite"},
    "packing": {"S", "l", "paths"},
    "cover": {"S", "l", "cover"},
    "decomposition": {"t", "X", "U", "retained_branch", "reduced"},
    "coloring": {"mode", "t", "bound", "palette", "value", "colors"},
}

KINDS = tuple(_PAYLOAD_KEYS)


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class Certificate:
    kind: str
    payload: dict
    graph_hash: str


def graph_hash(G: Graph) -> str:
    body = f"{G.n}|" + ",".join(f"{u}-{v}" for u, v in G.edges())
    return sha256(body.encode()).hexdigest()


def serialize_certificate(cert: Certificate) -> str:
    doc = {
        "schema": SCHEMA,
        "kind": cert.kind,
        "graph_hash": cert.graph_hash,
        "payload": cert.payload,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object, refused when a key repeats: json keeps the last."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise CertificateError(f"an object repeats key {k!r}")
            seen.add(k)
    return doc


def _refuse_constant(name: str):
    """NaN, Infinity and -Infinity, which json reads but JSON does not have."""
    raise CertificateError(f"not valid JSON: {name} is not a number")


# json.loads(text, object_pairs_hook=...) would build a decoder on every call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys,
                            parse_constant=_refuse_constant)


def parse_certificate(text: str) -> Certificate:
    """Strict parse: schema version pinned, unknown fields, repeated keys and
    the non-JSON constants NaN and Infinity rejected."""
    try:
        doc = _DECODER.decode(text)
    except CertificateError:
        raise
    except (ValueError, RecursionError) as e:  # also over-long ints, deep nesting
        raise CertificateError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise CertificateError("top level must be an object")
    expected = {"schema", "kind", "graph_hash", "payload"}
    if set(doc) != expected:
        raise CertificateError(
            f"unexpected top-level fields: {sorted(set(doc) ^ expected)}"
        )
    if doc["schema"] != SCHEMA:
        raise CertificateError(f"unsupported schema {doc['schema']!r}")
    kind = doc["kind"]
    if kind not in KINDS:
        raise CertificateError(f"unknown certificate kind {kind!r}")
    payload = doc["payload"]
    if not isinstance(payload, dict) or set(payload) != _PAYLOAD_KEYS[kind]:
        raise CertificateError(f"malformed payload for kind {kind!r}")
    if not isinstance(doc["graph_hash"], str):
        raise CertificateError("graph_hash must be a string")
    return Certificate(kind, payload, doc["graph_hash"])


# ---------------------------------------------------------------------------
# Constructors (object -> payload)
# ---------------------------------------------------------------------------


def _edges_out(edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    return [list(e) for e in sorted(_norm_edge(u, v) for u, v in edges)]


def certify_odd_minor_model(G: Graph, H: Graph, model: OddMinorModel) -> Certificate:
    connectors = []
    for (u, v), c in sorted(model.connectors.items()):
        if isinstance(c, Path):
            connectors.append({"edge": [u, v], "form": "path", "vertices": list(c.vertices)})
        else:
            connectors.append({"edge": [u, v], "form": "edge", "vertices": list(c)})
    payload = {
        "pattern_n": H.n,
        "pattern_edges": _edges_out(H.edges()),
        "trees": {str(u): list(vs) for u, vs in model.trees.items()},
        "tree_edges": {str(u): _edges_out(es) for u, es in model.tree_edges.items()},
        "alpha": {str(v): c for v, c in model.alpha.color.items()},
        "connectors": connectors,
    }
    return Certificate("odd-minor-model", payload, graph_hash(G))


def certify_signed_minor_model(
    G: Graph, H: Graph, sigma_h: Iterable[tuple[int, int]], model: SignedMinorModel
) -> Certificate:
    payload = {
        "pattern_n": H.n,
        "pattern_edges": _edges_out(H.edges()),
        "pattern_signature": _edges_out(
            {_norm_edge(*_ids(e, "signature edge")) for e in sigma_h}),
        "trees": {str(u): list(vs) for u, vs in model.trees.items()},
        "tree_edges": {str(u): _edges_out(es) for u, es in model.tree_edges.items()},
        "tree_colorings": {
            str(u): {str(v): c for v, c in col.items()}
            for u, col in model.tree_colorings.items()
        },
        "edge_witness": [
            {"edge": [u, v], "witness": list(model.edge_witness[(u, v)])}
            for u, v in sorted(model.edge_witness)
        ],
    }
    return Certificate("signed-minor-model", payload, graph_hash(G))


def certify_subdivision(G: Graph, emb: SubdivisionEmbedding) -> Certificate:
    payload = {
        "s": emb.s,
        "t": emb.t,
        "branch": {str(p): g for p, g in emb.branch.items()},
        "linking": [
            {"edge": [u, v], "path": list(emb.linking[(u, v)].vertices)}
            for u, v in sorted(emb.linking)
        ],
        "bipartite": emb.host_coloring is not None,
    }
    return Certificate("subdivision", payload, graph_hash(G))


def certify_packing(
    G: Graph, S: Iterable[int], l: int, paths: Iterable[Path]
) -> Certificate:
    payload = {
        "S": sorted(set(S)),
        "l": l,
        "paths": [list(p.vertices) for p in paths],
    }
    return Certificate("packing", payload, graph_hash(G))


def certify_cover(G: Graph, S: Iterable[int], l: int, cover: Iterable[int]) -> Certificate:
    payload = {"S": sorted(set(S)), "l": l, "cover": sorted(set(cover))}
    return Certificate("cover", payload, graph_hash(G))


def certify_decomposition(G: Graph, t: int, dec: Decomposition) -> Certificate:
    reduced = None
    if dec.reduced is not None:
        reduced = certify_subdivision(G, dec.reduced).payload
    payload = {
        "t": t,
        "X": sorted(dec.X),
        "U": sorted(dec.U),
        "retained_branch": sorted(dec.retained_branch),
        "reduced": reduced,
    }
    return Certificate("decomposition", payload, graph_hash(G))


def certify_coloring(
    G: Graph, c: ColoringAssignment, mode: str, t: int, bound: int, value: int
) -> Certificate:
    """value is the achieved defect (mode defective) or cluster size."""
    if mode not in ("defective", "clustered"):
        raise ValueError("mode must be 'defective' or 'clustered'")
    payload = {
        "mode": mode,
        "t": t,
        "bound": bound,
        "palette": c.palette_size,
        "value": value,
        "colors": {str(v): c.colors[v] for v in sorted(c.colors)},
    }
    return Certificate("coloring", payload, graph_hash(G))


# ---------------------------------------------------------------------------
# Payload -> object converters
# ---------------------------------------------------------------------------


def _by_id(m: dict) -> dict:
    """m with its keys read as vertex or pattern ids, each only in its
    canonical form, so two keys of one map never name the same id."""
    keys = list(m.keys())
    ids = list(map(int, keys))
    if list(map(str, ids)) != keys:
        k = next(k for k, i in zip(keys, ids) if str(i) != k)
        raise ValueError(f"non-canonical key {k!r}")
    return dict(zip(ids, m.values()))


def _ids(xs, what: str, of: str = "a vertex") -> tuple:
    """xs as a tuple of ids (or colors); ValueError when one is a bool: JSON
    true reads as a bool, which Python counts as the int 1, so a set or a
    range test takes it for vertex 1."""
    xs = tuple(xs)
    if bool in map(type, xs):
        raise ValueError(f"{what} {list(xs)} names {of} by a bool")
    return xs


def _count(payload: dict, key: str) -> int:
    """payload[key], a count; ValueError when it is a bool, which JSON true
    reads as and which would count as 1."""
    (n,) = _ids((payload[key],), key, "a count")
    return n


def _new_edge(e: list, seen) -> tuple[int, int]:
    """The pattern edge e, normalised; ValueError when seen holds it already
    or when it names a vertex by a bool."""
    e = _norm_edge(*_ids(e, "pattern edge"))
    if e in seen:
        raise ValueError(f"pattern edge {list(e)} is listed twice")
    return e


def _by_edge(entries: list, read) -> dict:
    """read(entry) for each entry of a list keyed by its pattern edge, one
    entry per edge: a dict would keep only the last of two."""
    out = {}
    for x in entries:
        e = _new_edge(x["edge"], out)
        out[e] = read(x)
    return out


def _connector_of(c: dict):
    vs = _ids(c["vertices"], "connector")
    if c["form"] == "path":
        return Path(vs)
    if c["form"] == "edge":
        a, b = vs
        return a, b
    raise ValueError(f"unknown connector form {c['form']!r}")


def _pattern_of(payload: dict) -> Graph:
    return Graph(_count(payload, "pattern_n"),
                 [_ids(e, "pattern edge") for e in payload["pattern_edges"]])


def _trees_of(payload: dict) -> tuple[dict, dict]:
    """The trees and tree_edges maps of a minor model payload."""
    trees = {u: _ids(vs, "tree") for u, vs in _by_id(payload["trees"]).items()}
    tree_edges = {u: tuple(_ids(e, "tree edge") for e in es)
                  for u, es in _by_id(payload["tree_edges"]).items()}
    return trees, tree_edges


def _colors_of(m: dict, what: str) -> dict:
    """A map from vertex to color, keyed by canonical ids, no color a bool."""
    m = _by_id(m)
    _ids(m.values(), what, "a color")
    return m


def odd_minor_model_of(payload: dict) -> tuple[Graph, OddMinorModel]:
    H = _pattern_of(payload)
    trees, tree_edges = _trees_of(payload)
    model = OddMinorModel(
        trees=trees,
        tree_edges=tree_edges,
        alpha=TwoColoring(_colors_of(payload["alpha"], "alpha")),
        connectors=_by_edge(payload["connectors"], _connector_of),
    )
    return H, model


def signed_minor_model_of(payload: dict) -> tuple[Graph, set, SignedMinorModel]:
    H = _pattern_of(payload)
    sigma: set[tuple[int, int]] = set()
    for e in payload["pattern_signature"]:
        sigma.add(_new_edge(e, sigma))
    trees, tree_edges = _trees_of(payload)
    model = SignedMinorModel(
        trees=trees,
        tree_edges=tree_edges,
        tree_colorings={
            u: _colors_of(col, "tree coloring")
            for u, col in _by_id(payload["tree_colorings"]).items()
        },
        edge_witness=_by_edge(payload["edge_witness"],
                              lambda w: _ids(w["witness"], "witness")),
    )
    return H, sigma, model


def subdivision_of(payload: dict) -> SubdivisionEmbedding:
    if not isinstance(payload["bipartite"], bool):
        raise ValueError("bipartite must be true or false")
    branch = _by_id(payload["branch"])
    _ids(branch.values(), "branch")
    return SubdivisionEmbedding(
        _count(payload, "s"),
        _count(payload, "t"),
        branch,
        _by_edge(payload["linking"], lambda l: Path(_ids(l["path"], "linking path"))),
    )


def coloring_of(payload: dict) -> ColoringAssignment:
    return ColoringAssignment(_by_id(payload["colors"]), payload["palette"])


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _check_s_l(G: Graph, payload: dict) -> str:
    """Reason the S and l fields of a packing/cover payload are unusable, or ""."""
    l = payload["l"]
    if not isinstance(l, int) or isinstance(l, bool) or l < 1:
        return "l-out-of-range"
    if any(not 0 <= v < G.n for v in _ids(payload["S"], "S")):
        return "s-out-of-range"
    return ""


def _verify_packing(G: Graph, payload: dict) -> tuple[bool, str]:
    bad = _check_s_l(G, payload)
    if bad:
        return False, bad
    S = frozenset(payload["S"])
    if len(payload["paths"]) < payload["l"]:
        return False, "packing-too-small"
    used: set[int] = set()
    for vs in payload["paths"]:
        p = Path(_ids(vs, "packing path"))
        if not p.is_path_of(G):
            return False, "not-a-path"
        a, b = p.ends
        if a not in S or b not in S or p.length % 2 == 0:
            return False, "not-an-odd-s-path"
        if used & set(vs):
            return False, "paths-not-disjoint"
        used |= set(vs)
    return True, "ok"


def _verify_cover(G: Graph, payload: dict) -> tuple[bool, str]:
    bad = _check_s_l(G, payload)
    if bad:
        return False, bad
    S = frozenset(payload["S"])
    X = set(_ids(payload["cover"], "cover"))
    if len(X) > 2 * payload["l"] - 2:
        return False, "cover-too-large"
    if any(not 0 <= v < G.n for v in X):
        return False, "cover-out-of-range"
    if find_odd_s_path(G, S, avoid=X) is not None:
        return False, "odd-path-survives"
    return True, "ok"


def _verify_decomposition(G: Graph, payload: dict) -> tuple[bool, str]:
    t = payload["t"]
    if not isinstance(t, int) or t < 2:
        return False, "t-out-of-range"
    X = frozenset(_ids(payload["X"], "X"))
    U = frozenset(_ids(payload["U"], "U"))
    if X & U:
        return False, "apex-meets-block"
    if len(X) > 2 * t - 4:
        return False, "apex-too-large"
    if len(U) < t + 3:
        return False, "block-too-small"
    if any(not 0 <= v < G.n for v in X | U):
        return False, "vertex-out-of-range"
    # U misses X, and every edge of G[U] lies in U when U is a block of G - X,
    # so the block's own flag says whether G[U] is bipartite
    bipartite = dict(blocks(G, (1 << G.n) - 1 - sum(1 << x for x in X))).get(U)
    if bipartite is None:
        return False, "not-a-block"
    if not bipartite:
        return False, "block-not-bipartite"
    retained = frozenset(_ids(payload["retained_branch"], "retained_branch"))
    if payload["reduced"] is not None:
        red = subdivision_of(payload["reduced"])
        ok, reason = verify_subdivision(G, red, require_bipartite=True)
        if not ok:
            return False, reason
        if red.C != retained or not red.union_vertices() <= U:
            return False, "reduced-outside-block"
    elif not retained <= U:
        return False, "reduced-outside-block"
    return True, "ok"


def _verify_coloring_payload(G: Graph, payload: dict) -> tuple[bool, str]:
    mode, t = payload["mode"], payload["t"]
    if mode not in ("defective", "clustered"):
        return False, "unknown-mode"
    if not isinstance(t, int) or t < 2:
        return False, "t-out-of-range"
    if payload["bound"] != (6 * t - 9 if mode == "defective" else 10 * t - 13):
        return False, "bound-not-theorem"
    c = coloring_of(payload)
    if set(c.colors) != set(G.vertices()):
        return False, "coloring-not-total"
    fault = _palette_fault(c)
    if fault is not None:
        return False, fault
    if c.palette_size > payload["bound"]:
        return False, "palette-exceeds-bound"
    value = payload["value"]
    if not isinstance(value, int) or isinstance(value, bool):
        return False, "value-not-an-integer"
    if not verify_coloring(G, c, mode, value):
        return False, "reported-quality-not-met"
    return True, "ok"


def verify_certificate(G: Graph, cert: Certificate) -> tuple[bool, str]:
    """Dispatch to the matching verifier; hash mismatch is an error, not a
    soft failure, because it means the certificate talks about another graph."""
    if cert.graph_hash != graph_hash(G):
        raise CertificateError("graph-hash-mismatch")
    p = cert.payload
    try:
        if cert.kind in ("odd-minor-model", "signed-minor-model"):
            # a pattern larger than its host has no model; refusing it here
            # also keeps _pattern_of from allocating a hostile pattern_n
            n = p["pattern_n"]
            if isinstance(n, int) and not 0 <= n <= G.n:
                return False, "pattern-too-large"
        if cert.kind == "odd-minor-model":
            H, model = odd_minor_model_of(p)
            return verify_odd_minor_model(G, H, model)
        if cert.kind == "signed-minor-model":
            H, sigma, model = signed_minor_model_of(p)
            return verify_signed_minor_model(G, H, sigma, model)
        if cert.kind == "subdivision":
            return verify_subdivision(G, subdivision_of(p), p["bipartite"])
        if cert.kind == "packing":
            return _verify_packing(G, p)
        if cert.kind == "cover":
            return _verify_cover(G, p)
        if cert.kind == "decomposition":
            return _verify_decomposition(G, p)
        if cert.kind == "coloring":
            return _verify_coloring_payload(G, p)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as e:
        return False, f"malformed-payload: {e}"
    raise CertificateError(f"unknown certificate kind {cert.kind!r}")
