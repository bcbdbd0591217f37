"""Property-based fuzzing of the input parsers: whatever the text or bytes,
a parser returns a graph or raises one of the package's typed errors."""

import pytest
from hypothesis import example, given, strategies as st

from alphaenergy.graphcore import (
    MAX_ORDER,
    GraphTooLargeError,
    MalformedEdgeListError,
    MalformedGraph6Error,
    parse_edge_list,
    parse_graph6,
)
from alphaenergy.harness import load_corpus

# Arbitrary input rarely reaches past the first check, so each strategy mixes
# in text shaped like the format: graph6 records with a size byte and the
# matching payload length, and edge lists with small headers and integer
# pairs, plus noisy variants of both.
_G6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)
_G6_TEXT = st.text(_G6_CHARS, max_size=40)
_G6_RECORD = st.integers(1, 62).flatmap(
    lambda n: st.text(_G6_CHARS, min_size=(n * (n - 1) // 2 + 5) // 6,
                      max_size=(n * (n - 1) // 2 + 5) // 6).map(lambda body: chr(n + 63) + body)
)

_INT = st.one_of(st.integers(-2, 12), st.integers()).map(str)
_FIELD = st.one_of(_INT, st.text("0123456789-+ x\t", max_size=4))
_NOISY_LINE = st.one_of(
    st.lists(_FIELD, max_size=3).map(" ".join),
    st.sampled_from(["", "# comment", f"{MAX_ORDER + 1} 0"]),
)
_NOISY_EDGE_TEXT = st.lists(_NOISY_LINE, max_size=10).map("\n".join)


@st.composite
def _edge_list(draw):
    n = draw(st.integers(1, 8))
    vertex = st.one_of(st.integers(-1, n).map(str), _FIELD)
    edge = st.tuples(vertex, vertex).map(" ".join)
    lines = draw(st.lists(st.one_of(edge, edge, _NOISY_LINE), max_size=6))
    m = draw(st.one_of(st.just(len(lines)), st.integers(0, 8)))
    return "\n".join([f"{n} {m}"] + lines)


TEXT = st.one_of(st.text(), _G6_TEXT, _G6_RECORD, _edge_list(), _NOISY_EDGE_TEXT)
BYTES = st.one_of(st.binary(), TEXT.map(lambda t: t.encode("utf-8")))


@given(st.one_of(TEXT, BYTES))
def test_parse_graph6_fails_only_typed(data):
    try:
        g = parse_graph6(data)
    except MalformedGraph6Error:
        return
    assert 1 <= g.n <= 62


@given(st.one_of(TEXT, st.binary().map(lambda b: b.decode("latin-1"))))
def test_parse_edge_list_fails_only_typed(text):
    try:
        g = parse_edge_list(text)
    except (MalformedEdgeListError, GraphTooLargeError):
        return
    assert 1 <= g.n <= MAX_ORDER


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "corpus"


@given(st.one_of(BYTES, st.lists(st.one_of(_G6_RECORD, _G6_TEXT)).map("\n".join).map(str.encode)))
@example(b"3 2\x0c0 1\n1 2\n")  # an edge-list header holding a stray separator
def test_load_corpus_fails_only_typed(corpus_file, data):
    corpus_file.write_bytes(data)
    try:
        graphs, skipped = load_corpus(str(corpus_file))
    except GraphTooLargeError:
        return
    assert all(isinstance(note, str) for note in skipped)
    assert all(1 <= g.n <= MAX_ORDER for _, g in graphs)
