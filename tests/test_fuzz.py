"""Hostile input: graph bytes end in a Graph or GraphError, and mutated
certificates of every kind end in (bool, reason) or CertificateError."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from oddminorkit import (
    MAX_VERTICES,
    CertificateError,
    Graph,
    GraphError,
    parse_certificate,
    parse_graph,
    random_graph,
    serialize_certificate,
    to_dimacs,
    to_edgelist,
    to_graph6,
    verify_certificate,
)

from oddminorkit.certificates import KINDS
from test_certificates import all_kinds

FORMATS = ("graph6", "dimacs", "edgelist")
_WRITERS = {"graph6": to_graph6, "dimacs": to_dimacs, "edgelist": to_edgelist}

# pieces that get past the first checks of each parser
_TOKENS = [
    b"p", b"edge", b"col", b"e", b"n", b"c", b"#", b">>graph6<<", b"~", b"?",
    b"B", b"w", b"0", b"1", b"2", b"3", b"-1", b"62", b"1000", b"1001",
    b"10000000", b"x", b"1_0", b"+2", b"\xff", b"\xc3\xa9", b" ", b"\n",
    b"\r\n", b"\t",
]


def parses_or_rejects(data, format):
    try:
        G = parse_graph(data, format)
    except GraphError:
        return
    assert isinstance(G, Graph) and 0 <= G.n <= MAX_VERTICES


@given(st.binary(max_size=64), st.sampled_from(FORMATS))
def test_raw_graph_bytes(data, format):
    parses_or_rejects(data, format)


@given(st.text(max_size=32), st.sampled_from(FORMATS))
def test_graph_text(text, format):
    parses_or_rejects(text, format)


@given(st.lists(st.sampled_from(_TOKENS), max_size=40), st.sampled_from(FORMATS))
def test_token_soup(tokens, format):
    parses_or_rejects(b"".join(tokens), format)


@given(st.integers(0, 9), st.integers(0, 50), st.sampled_from(FORMATS), st.data())
def test_mutated_graph_files(n, seed, format, data):
    text = _WRITERS[format](random_graph(n, 0.5, seed)).encode()
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 4)))
    patch = data.draw(st.binary(max_size=4) | st.sampled_from(_TOKENS))
    parses_or_rejects(text[:i] + patch + text[j:], format)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

_leaves = (
    st.none() | st.booleans() | st.integers(-3, 70)
    | st.sampled_from([10**6, -(10**6), 0.5, float("inf"), float("nan")])
    | st.sampled_from(["", "0", "1", "path", "edge", "defective", "clustered"])
    | st.text(max_size=4)
)
_keys = st.sampled_from(["0", "1", "2", "5", "-1", "x", "edge"]) | st.text(max_size=3)
json_values = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_keys, kids, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def certificates():
    return {cert.kind: (G, serialize_certificate(cert)) for G, cert in all_kinds()}


def _slots(doc):
    """Every (container, key) position inside doc, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in list(items):
        yield doc, k
        if isinstance(v, (dict, list)):
            yield from _slots(v)


def mutate(doc, data):
    """Apply one edit at a drawn position: replace, nudge, delete or insert."""
    slots = list(_slots(doc))
    container, key = slots[data.draw(st.integers(0, len(slots) - 1))]
    op = data.draw(st.sampled_from(["replace", "nudge", "delete", "insert"]))
    old = container[key]
    if op == "nudge" and isinstance(old, int) and not isinstance(old, bool):
        container[key] = old + data.draw(st.integers(-2, 2))
    elif op == "delete":
        del container[key]
    elif op == "insert" and isinstance(old, list):
        old.insert(data.draw(st.integers(0, len(old))), data.draw(json_values))
    elif op == "insert" and isinstance(old, dict):
        old[data.draw(_keys)] = data.draw(json_values)
    else:
        container[key] = data.draw(json_values)


def parses_and_verifies_or_rejects(G, text):
    try:
        cert = parse_certificate(text)
        result = verify_certificate(G, cert)
    except CertificateError:
        return
    ok, reason = result
    assert isinstance(ok, bool) and isinstance(reason, str)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=50)  # per kind, so 350 certificates per test
@given(data=st.data())
def test_mutated_certificate(certificates, kind, data):
    G, text = certificates[kind]
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(doc, data)
    parses_and_verifies_or_rejects(G, json.dumps(doc))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=50)  # per kind, so 350 certificates per test
@given(data=st.data())
def test_mutated_certificate_text(certificates, kind, data):
    G, text = certificates[kind]
    i = data.draw(st.integers(0, len(text)))
    j = data.draw(st.integers(i, min(len(text), i + 6)))
    patch = data.draw(st.text(max_size=6) | st.sampled_from(
        ["[", "]", "{", "}", ",", ":", '"', "0", "-1", "null"]))
    parses_and_verifies_or_rejects(G, text[:i] + patch + text[j:])
