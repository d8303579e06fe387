"""JSON certificates: canonical serialization, strict parsing, verification."""

import json
import tracemalloc

import pytest

from oddminorkit import (
    CertificateError,
    Graph,
    OddMinorModel,
    SignedMinorModel,
    TwoColoring,
    certify_coloring,
    certify_cover,
    certify_decomposition,
    certify_odd_minor_model,
    certify_packing,
    certify_signed_minor_model,
    certify_subdivision,
    chorded_subdivision,
    color_clustered,
    color_defective,
    complete,
    complete_bipartite,
    cycle,
    find_odd_clique_minor,
    find_signed_minor,
    graph_hash,
    join_subdivision,
    odd_s_paths_dichotomy,
    parse_certificate,
    serialize_certificate,
    structure_theorem,
    verify_certificate,
)
from oddminorkit.graph import SizeLimitError
from oddminorkit.structure import Decomposition


def Kt(t):
    return complete(t)


def roundtrip(G, cert):
    text = serialize_certificate(cert)
    again = parse_certificate(text)
    assert serialize_certificate(again) == text  # byte-identical
    ok, reason = verify_certificate(G, again)
    assert ok, (cert.kind, reason)
    return text


def all_kinds():
    """One certificate of every kind, with its graph."""
    out = []
    C5 = cycle(5)
    out.append((C5, certify_odd_minor_model(
        C5, Kt(3), find_odd_clique_minor(C5, 3))))
    K6 = complete(6)
    out.append((K6, certify_signed_minor_model(
        K6, Kt(3), [], find_signed_minor(K6, Kt(3), []))))
    Gs, emb = join_subdivision(3, 2, 1)
    out.append((Gs, certify_subdivision(Gs, emb)))
    res = odd_s_paths_dichotomy(K6, [0, 1, 2, 3], 2)
    out.append((K6, certify_packing(K6, [0, 1, 2, 3], 2, res.packing)))
    K33 = complete_bipartite(3, 3)
    res = odd_s_paths_dichotomy(K33, [0, 1, 2], 2)
    out.append((K33, certify_cover(K33, [0, 1, 2], 2, res.cover)))
    Gd, embd, _ = chorded_subdivision(4, 3, 1, seed=5)
    dec = structure_theorem(Gd, 3, emb=embd, limit=200)
    assert isinstance(dec, Decomposition)
    out.append((Gd, certify_decomposition(Gd, 3, dec)))
    K44 = complete_bipartite(4, 4)
    col, defect = color_defective(K44, 3)
    out.append((K44, certify_coloring(K44, col, "defective", 3, 9, defect)))
    return out


def test_every_kind_round_trips():
    kinds = set()
    for G, cert in all_kinds():
        roundtrip(G, cert)
        kinds.add(cert.kind)
    assert kinds == {
        "odd-minor-model", "signed-minor-model", "subdivision",
        "packing", "cover", "decomposition", "coloring",
    }


def test_graph_hash_discriminates():
    assert graph_hash(cycle(4)) != graph_hash(cycle(5))
    assert graph_hash(cycle(4)) == graph_hash(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


def test_hash_mismatch_is_an_error():
    C5 = cycle(5)
    cert = certify_odd_minor_model(C5, Kt(3), find_odd_clique_minor(C5, 3))
    with pytest.raises(CertificateError):
        verify_certificate(cycle(7), cert)


def test_unknown_fields_rejected():
    C5 = cycle(5)
    cert = certify_odd_minor_model(C5, Kt(3), find_odd_clique_minor(C5, 3))
    doc = json.loads(serialize_certificate(cert))
    for bad in (
        {**doc, "extra": 1},
        {k: v for k, v in doc.items() if k != "graph_hash"},
        {**doc, "schema": "odd-minor-kit/2"},
        {**doc, "kind": "mystery"},
        {**doc, "payload": {**doc["payload"], "surprise": True}},
    ):
        with pytest.raises(CertificateError):
            parse_certificate(json.dumps(bad))
    with pytest.raises(CertificateError):
        parse_certificate("not json")
    with pytest.raises(CertificateError):
        parse_certificate("[1,2]")


def test_tampered_alpha_reports_reason():
    C5 = cycle(5)
    cert = certify_odd_minor_model(C5, Kt(3), find_odd_clique_minor(C5, 3))
    doc = json.loads(serialize_certificate(cert))
    tree = next(vs for vs in doc["payload"]["trees"].values() if len(vs) > 1)
    key = str(tree[0])
    doc["payload"]["alpha"][key] = 3 - doc["payload"]["alpha"][key]
    bad = parse_certificate(json.dumps(doc))
    ok, reason = verify_certificate(C5, bad)
    assert not ok and reason == "bichromatic-violation"


def test_malformed_payload_is_soft_failure():
    C5 = cycle(5)
    cert = certify_odd_minor_model(C5, Kt(3), find_odd_clique_minor(C5, 3))
    doc = json.loads(serialize_certificate(cert))
    doc["payload"]["trees"] = {"0": "zap"}
    bad = parse_certificate(json.dumps(doc))
    ok, reason = verify_certificate(C5, bad)
    assert not ok


def test_coloring_value_is_checked():
    K44 = complete_bipartite(4, 4)
    col, defect = color_defective(K44, 3)
    cert = certify_coloring(K44, col, "defective", 3, 9, defect)
    doc = json.loads(serialize_certificate(cert))
    doc["payload"]["colors"] = {v: 1 for v in doc["payload"]["colors"]}
    bad = parse_certificate(json.dumps(doc))
    ok, reason = verify_certificate(K44, bad)
    assert not ok and reason == "reported-quality-not-met"


FRACTIONAL = {str(v): 1 + v / 7 for v in range(8)}


# id -> (mode, payload edit, reason)
COLORING_CLAIMS = {
    "defective-ok": ("defective", {}, "ok"),
    "clustered-ok": ("clustered", {}, "ok"),
    "defective-mode-bogus": ("defective", {"mode": "bogus"}, "unknown-mode"),
    "clustered-mode-bogus": ("clustered", {"mode": "bogus"}, "unknown-mode"),
    "defective-mode-clustered": ("defective", {"mode": "clustered"}, "bound-not-theorem"),
    "t-1": ("defective", {"t": 1}, "t-out-of-range"),
    "t-negative": ("defective", {"t": -5}, "t-out-of-range"),
    "t-string": ("defective", {"t": "3"}, "t-out-of-range"),
    "t-99": ("defective", {"t": 99}, "bound-not-theorem"),
    "bound-and-palette-1000": ("defective", {"bound": 1000, "palette": 1000},
                               "bound-not-theorem"),
    "clustered-bound-18": ("clustered", {"bound": 18}, "bound-not-theorem"),
    "defective-palette-10": ("defective", {"palette": 10}, "palette-exceeds-bound"),
    "clustered-palette-18": ("clustered", {"palette": 18}, "palette-exceeds-bound"),
    "clustered-value-0": ("clustered", {"value": 0}, "reported-quality-not-met"),
    "defective-value-negative": ("defective", {"value": -1}, "reported-quality-not-met"),
    # eight distinct colors 1.0..2.0 passed off as a palette of two
    "defective-fractional-colors": (
        "defective", {"colors": FRACTIONAL, "palette": 2, "value": 0}, "color-not-an-integer"),
    "clustered-fractional-colors": (
        "clustered", {"colors": FRACTIONAL, "palette": 2, "value": 1}, "color-not-an-integer"),
    "defective-bool-colors": (
        "defective", {"colors": {str(v): True for v in range(8)}, "palette": 1, "value": 4},
        "color-not-an-integer"),
    "palette-2.0": ("defective", {"palette": 2.0}, "color-out-of-palette"),
    "palette-4.5": ("clustered", {"palette": 4.5}, "color-out-of-palette"),
    # the measured defect or cluster size is a count
    "defective-value-0.5": ("defective", {"value": 0.5}, "value-not-an-integer"),
    "defective-value-true": ("defective", {"value": True}, "value-not-an-integer"),
    "clustered-value-1.0": ("clustered", {"value": 1.0}, "value-not-an-integer"),
    "clustered-value-string": ("clustered", {"value": "1"}, "value-not-an-integer"),
}


@pytest.mark.parametrize("mode, edit, reason", list(COLORING_CLAIMS.values()),
                         ids=list(COLORING_CLAIMS))
def test_coloring_claims_are_checked_against_the_theorem(mode, edit, reason):
    K44 = complete_bipartite(4, 4)
    color = color_defective if mode == "defective" else color_clustered
    col, value = color(K44, 3)
    bound = 9 if mode == "defective" else 17
    cert = certify_coloring(K44, col, mode, 3, bound, value)
    doc = json.loads(serialize_certificate(cert))
    doc["payload"].update(edit)
    ok, got = verify_certificate(K44, parse_certificate(json.dumps(doc)))
    assert (ok, got) == (reason == "ok", reason)


# id -> (kind, payload field, value, reason)
RANGE_CHECKS = {
    "packing-l-negative": ("packing", "l", -3, "l-out-of-range"),
    "packing-l-0": ("packing", "l", 0, "l-out-of-range"),
    "packing-S-huge": ("packing", "S", [0, 1, 2, 3, 10**9], "s-out-of-range"),
    "packing-S-negative": ("packing", "S", [-1, 0, 1, 2, 3], "s-out-of-range"),
    "cover-l-negative": ("cover", "l", -3, "l-out-of-range"),
    "cover-S-huge": ("cover", "S", [0, 10**9], "s-out-of-range"),
    "cover-S-negative": ("cover", "S", [-6, 0, 1, 2], "s-out-of-range"),
    "packing-l-true": ("packing", "l", True, "l-out-of-range"),
    "cover-l-true": ("cover", "l", True, "l-out-of-range"),
    # a decomposition's t likewise: t = 2.5 lets 2t - 4 = 1 apex vertex through
    "decomposition-t-2.5": ("decomposition", "t", 2.5, "t-out-of-range"),
    "decomposition-t-true": ("decomposition", "t", True, "t-out-of-range"),
    "decomposition-t-1": ("decomposition", "t", 1, "t-out-of-range"),
}


@pytest.mark.parametrize("kind, field, value, reason", list(RANGE_CHECKS.values()),
                         ids=list(RANGE_CHECKS))
def test_packing_and_cover_fields_are_range_checked(kind, field, value, reason):
    G, cert = next((G, c) for G, c in all_kinds() if c.kind == kind)
    doc = json.loads(serialize_certificate(cert))
    doc["payload"][field] = value
    ok, got = verify_certificate(G, parse_certificate(json.dumps(doc)))
    assert not ok and got == reason


# (kind, path to a map keyed by vertex or pattern id)
KEYED_MAPS = [
    ("odd-minor-model", ("trees",)),
    ("odd-minor-model", ("tree_edges",)),
    ("odd-minor-model", ("alpha",)),
    ("signed-minor-model", ("trees",)),
    ("signed-minor-model", ("tree_edges",)),
    ("signed-minor-model", ("tree_colorings",)),
    ("signed-minor-model", ("tree_colorings", "0")),
    ("subdivision", ("branch",)),
    ("decomposition", ("reduced", "branch")),
    ("coloring", ("colors",)),
]


@pytest.mark.parametrize("kind, path", KEYED_MAPS,
                         ids=[f"{k}:{'/'.join(p)}" for k, p in KEYED_MAPS])
@pytest.mark.parametrize("spell", [
    lambda k: "0" + k, lambda k: " " + k, lambda k: "+" + k, lambda k: k + " ",
    lambda k: "".join(chr(0x660 + int(d)) for d in k),  # Arabic-Indic digits
], ids=["leading-zero", "leading-space", "plus-sign", "trailing-space", "arabic-indic"])
def test_a_map_key_names_its_id_in_canonical_form_only(kind, path, spell):
    G, cert = next((G, c) for G, c in all_kinds() if c.kind == kind)
    doc = json.loads(serialize_certificate(cert))
    m = doc["payload"]
    for field in path:
        m = m[field]
    k = max(m, key=int)
    m[spell(k)] = m[k]  # the same entry again, under a second spelling
    got = verify_certificate(G, parse_certificate(json.dumps(doc)))
    assert got == (False, f"malformed-payload: non-canonical key {spell(k)!r}")


@pytest.mark.parametrize("kind", ["odd-minor-model", "signed-minor-model"])
@pytest.mark.parametrize("field, value, reason", [
    ("trees", [1, 2, 3], "malformed-payload"),
    ("pattern_n", 10**9, "pattern-too-large"),
    ("pattern_n", -1, "pattern-too-large"),
], ids=["trees-list", "pattern_n-huge", "pattern_n-negative"])
def test_minor_model_payloads_are_checked_before_use(kind, field, value, reason):
    G, cert = next((G, c) for G, c in all_kinds() if c.kind == kind)
    doc = json.loads(serialize_certificate(cert))
    doc["payload"][field] = value
    ok, got = verify_certificate(G, parse_certificate(json.dumps(doc)))
    assert not ok and got.split(":")[0] == reason


def test_subdivision_sizes_are_checked_before_use():
    Gs, emb = join_subdivision(2, 1, 1)
    doc = json.loads(serialize_certificate(certify_subdivision(Gs, emb)))
    doc["payload"]["s"] = 10**6
    cert = parse_certificate(json.dumps(doc))
    tracemalloc.start()
    try:
        assert verify_certificate(Gs, cert) == (False, "branch-domain")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6, f"a hostile s allocated {peak} bytes"


COVER_TEXT = ('{"schema":"odd-minor-kit/1","kind":"cover","graph_hash":"",'
              '"payload":{"S":[],"l":%s,"cover":[]}}')


@pytest.mark.parametrize("text, message", [
    ("9" * 5000, "^not valid JSON"), ("[" * 5000, "^not valid JSON"),
    (COVER_TEXT % '2,"l":1', "^an object repeats key 'l'$"),
    (COVER_TEXT % "NaN", "^not valid JSON: NaN is not a number$"),
    (COVER_TEXT % "Infinity", "^not valid JSON: Infinity is not a number$"),
    (COVER_TEXT % "-Infinity", "^not valid JSON: -Infinity is not a number$"),
], ids=["long-int", "deep-nesting", "repeated-key", "nan", "infinity", "minus-infinity"])
def test_json_the_decoder_refuses_is_a_certificate_error(text, message):
    with pytest.raises(CertificateError, match=message):
        parse_certificate(text)


def test_a_coloring_value_past_the_float_range_is_not_an_integer():
    # 1e999 is valid JSON; it reads as a float infinity, which bounds nothing
    K44 = complete_bipartite(4, 4)
    col, defect = color_defective(K44, 3)
    text = serialize_certificate(certify_coloring(K44, col, "defective", 3, 9, defect))
    spelled = text.replace(f'"value":{defect}', '"value":1e999')
    assert spelled != text
    got = verify_certificate(K44, parse_certificate(spelled))
    assert got == (False, "value-not-an-integer")


def _payload_part(kind, path):
    """A certificate of the kind from all_kinds(), its graph and parsed
    document, and the part of its payload at path."""
    G, cert = next((G, c) for G, c in all_kinds() if c.kind == kind)
    doc = json.loads(serialize_certificate(cert))
    part = doc["payload"]
    for field in path:
        part = part[field]
    return G, doc, part


# (kind, path to a list with one entry per pattern edge)
EDGE_LISTS = [
    ("odd-minor-model", ("connectors",)),
    ("signed-minor-model", ("edge_witness",)),
    ("subdivision", ("linking",)),
    ("decomposition", ("reduced", "linking")),
]


@pytest.mark.parametrize("kind, path", EDGE_LISTS,
                         ids=[f"{k}:{'/'.join(p)}" for k, p in EDGE_LISTS])
@pytest.mark.parametrize("reverse", [False, True], ids=["same-edge", "reversed-edge"])
def test_a_pattern_edge_is_listed_once(kind, path, reverse):
    # in front of the entries, the first one's connector, witness or path
    # under the last one's edge: a reader that keeps the last entry of an
    # edge checks only the right one
    G, doc, entries = _payload_part(kind, path)
    u, v = entries[-1]["edge"]
    entries.insert(0, {**entries[0], "edge": [v, u] if reverse else [u, v]})
    got = verify_certificate(G, parse_certificate(json.dumps(doc)))
    assert got == (False, f"malformed-payload: pattern edge [{u}, {v}] is listed twice")


def test_a_signature_edge_is_written_once():
    K5 = complete(5)
    model = find_signed_minor(K5, Kt(3), [(0, 1)])
    cert = certify_signed_minor_model(K5, Kt(3), [(0, 1), (1, 0), (0, 1)], model)
    assert cert.payload["pattern_signature"] == [[0, 1]]
    assert verify_certificate(K5, cert) == (True, "ok")


@pytest.mark.parametrize("signature, reason", [
    ([[0, 1], [0, 1]], "pattern edge [0, 1] is listed twice"),
    ([[0, 1], [1, 0]], "pattern edge [0, 1] is listed twice"),
    # true is read as vertex 1 by a set or a range test
    ([[0, True]], "pattern edge [0, True] names a vertex by a bool"),
], ids=["same-edge", "reversed-edge", "bool-vertex"])
def test_a_signature_edge_is_read_once_and_by_integer_ids(signature, reason):
    G, doc, _ = _payload_part("signed-minor-model", ())
    doc["payload"]["pattern_signature"] = signature
    got = verify_certificate(G, parse_certificate(json.dumps(doc)))
    assert got == (False, f"malformed-payload: {reason}")


@pytest.mark.parametrize("G, reason", [
    # C_6 is one block, and U = {0, .., 4} is only part of it
    (cycle(6), "not-a-block"),
    (complete(5), "block-not-bipartite"),
], ids=["C6", "K5"])
def test_a_decomposition_block_is_a_bipartite_block_of_G_minus_X(G, reason):
    dec = Decomposition(frozenset(), frozenset(range(5)), frozenset())
    assert verify_certificate(G, certify_decomposition(G, 2, dec)) == (False, reason)


@pytest.mark.parametrize("form, third_vertex, reason", [
    ("banana", False, "unknown connector form 'banana'"),
    ("Edge", False, "unknown connector form 'Edge'"),
    (None, False, "unknown connector form None"),
    ("edge", True, "too many values to unpack (expected 2)"),
], ids=["banana", "capitalised", "null", "edge-with-three-vertices"])
def test_a_connector_form_is_edge_or_path(form, third_vertex, reason):
    G, doc, connectors = _payload_part("odd-minor-model", ("connectors",))
    c = connectors[0]
    assert c["form"] == "edge"
    c["form"] = form
    if third_vertex:
        c["vertices"].append(c["vertices"][0])
    got = verify_certificate(G, parse_certificate(json.dumps(doc)))
    assert got == (False, f"malformed-payload: {reason}")


@pytest.mark.parametrize("kind, path", [("subdivision", ()), ("decomposition", ("reduced",))],
                         ids=["subdivision", "decomposition:reduced"])
@pytest.mark.parametrize("value", [None, 0, 1, "true"], ids=["null", "0", "1", "string"])
def test_a_subdivision_says_bipartite_with_a_bool(kind, path, value):
    G, doc, sub = _payload_part(kind, path)
    assert sub["bipartite"] is True
    sub["bipartite"] = value
    got = verify_certificate(G, parse_certificate(json.dumps(doc)))
    assert got == (False, "malformed-payload: bipartite must be true or false")


def test_a_repeated_tree_edge_is_a_soft_failure():
    # tree {0, 1, 2} with the edge 01 twice: |V| - 1 edges, but no tree
    G, H = complete(4), complete(2)
    trees, tree_edges = {0: (0, 1, 2), 1: (3,)}, {0: ((0, 1), (0, 1)), 1: ()}
    odd = OddMinorModel(trees, tree_edges, TwoColoring({0: 1, 1: 2, 2: 2, 3: 2}),
                        {(0, 1): (2, 3)})
    signed = SignedMinorModel(trees, tree_edges, {0: {0: 1, 1: 2, 2: 2}, 1: {3: 2}},
                              {(0, 1): (2, 3)})
    for cert in (certify_odd_minor_model(G, H, odd),
                 certify_signed_minor_model(G, H, [(0, 1)], signed)):
        again = parse_certificate(serialize_certificate(cert))
        assert verify_certificate(G, again) == (False, "tree-not-acyclic")


def test_cover_on_a_host_above_the_guard_raises(monkeypatch):
    # the cover check is an exhaustive odd S-path search, guarded like it
    monkeypatch.delenv("ODDMINOR_LIMIT", raising=False)
    cert = certify_cover(Graph(21, []), [0, 1], 1, [])
    with pytest.raises(SizeLimitError, match="find_odd_s_path: graph has 21 > 20"):
        verify_certificate(Graph(21, []), cert)
    G = Graph(20, [])
    assert verify_certificate(G, certify_cover(G, [0, 1], 1, [])) == (True, "ok")


# C_5 whose smallest odd K_3 puts vertex 1 in a tree of two vertices
C5_SPLIT = Graph(5, [(0, 2), (0, 4), (1, 2), (1, 3), (3, 4)])


def _names_vertex_1():
    """Certificates that verify and name vertex 1 (or color 1) in every list
    a row of BOOL_IDS edits, by name."""
    certs = {c.kind: (G, c) for G, c in all_kinds()}
    K3, K33, C6 = Kt(3), complete_bipartite(3, 3), cycle(6)
    block = Decomposition(frozenset(), frozenset(range(6)), frozenset({1}))
    return {
        "odd": (C5_SPLIT, certify_odd_minor_model(
            C5_SPLIT, K3, find_odd_clique_minor(C5_SPLIT, 3))),
        "signed": (C5_SPLIT, certify_signed_minor_model(
            C5_SPLIT, K3, K3.edges(), find_signed_minor(C5_SPLIT, K3, K3.edges()))),
        "subdivision": certs["subdivision"],
        "packing": certs["packing"],
        "cover": (K33, certify_cover(K33, [0, 1, 2], 2, [1])),
        "decomposition": certs["decomposition"],
        # U = V(C_6) is a bipartite block of C_6 - {} at t = 2
        "block": (C6, certify_decomposition(C6, 2, block)),
    }


# (certificate name, path to a list or map that names vertex 1 or color 1)
BOOL_IDS = [
    ("odd", ("pattern_edges",)),
    ("odd", ("trees",)),
    ("odd", ("tree_edges",)),
    ("odd", ("alpha",)),
    ("odd", ("connectors", 2, "vertices")),
    ("signed", ("trees",)),
    ("signed", ("tree_edges",)),
    ("signed", ("tree_colorings",)),
    ("signed", ("edge_witness", 2, "witness")),
    ("subdivision", ("branch",)),
    ("subdivision", ("linking", 0, "path")),
    ("packing", ("S",)),
    ("packing", ("paths",)),
    ("cover", ("S",)),
    ("cover", ("cover",)),
    ("decomposition", ("X",)),
    ("block", ("U",)),
    ("block", ("retained_branch",)),
]


def _first_one(part):
    """The list or map holding the first integer 1 in part, and its key."""
    for k, x in part.items() if isinstance(part, dict) else enumerate(part):
        if type(x) is int and x == 1:
            return part, k
        if isinstance(x, (dict, list)):
            found = _first_one(x)
            if found is not None:
                return found
    return None


@pytest.mark.parametrize("name, path", BOOL_IDS,
                         ids=[f"{n}:{'/'.join(map(str, p))}" for n, p in BOOL_IDS])
def test_a_vertex_id_is_never_a_bool(name, path):
    # true reads as a bool, which a set or a range test takes for vertex 1,
    # so a certificate that writes true for 1 would otherwise verify
    G, cert = _names_vertex_1()[name]
    assert verify_certificate(G, cert) == (True, "ok")
    doc = json.loads(serialize_certificate(cert))
    part = doc["payload"]
    for field in path:
        part = part[field]
    where, key = _first_one(part)
    where[key] = True
    ok, got = verify_certificate(G, parse_certificate(json.dumps(doc)))
    assert not ok and got.startswith("malformed-payload: ") and got.endswith("by a bool")


def _counts_of_1():
    """Certificates whose count field, by name, is 1."""
    C5 = cycle(5)
    Gs, s1 = join_subdivision(1, 2, 1)
    Gt, t1 = join_subdivision(2, 1, 1)
    return {
        "odd": (C5, certify_odd_minor_model(C5, Kt(1), find_odd_clique_minor(C5, 1))),
        "signed": (C5, certify_signed_minor_model(
            C5, Kt(1), [], find_signed_minor(C5, Kt(1), []))),
        "subdivision-s": (Gs, certify_subdivision(Gs, s1)),
        "subdivision-t": (Gt, certify_subdivision(Gt, t1)),
    }


BOOL_COUNTS = [("odd", "pattern_n"), ("signed", "pattern_n"),
               ("subdivision-s", "s"), ("subdivision-t", "t")]


@pytest.mark.parametrize("name, field", BOOL_COUNTS,
                         ids=[f"{n}:{f}" for n, f in BOOL_COUNTS])
def test_a_count_is_never_a_bool(name, field):
    # a pattern_n, s or t of true would count as 1, the certificate's own value
    G, cert = _counts_of_1()[name]
    assert verify_certificate(G, cert) == (True, "ok")
    doc = json.loads(serialize_certificate(cert))
    assert doc["payload"][field] == 1
    doc["payload"][field] = True
    ok, got = verify_certificate(G, parse_certificate(json.dumps(doc)))
    assert not ok and got.startswith("malformed-payload: ") and got.endswith("by a bool")
