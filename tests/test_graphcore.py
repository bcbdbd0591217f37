import collections
import hashlib
import itertools
import random
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from alphaenergy import graphcore, harness
from alphaenergy.graphcore import (
    GRAPH6_HEADER,
    GenerationFailureError,
    Graph,
    GraphTooLargeError,
    InvalidParametersError,
    MalformedEdgeListError,
    MalformedGraph6Error,
    NoSuchEdgeError,
    complete,
    cycle,
    delete_edge,
    erdos_renyi,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path,
    petersen,
    random_regular,
    serialize_graph6,
    star,
)
from one_alpha import solved_stacks


def test_graph_validation():
    with pytest.raises(InvalidParametersError):
        Graph(0)
    with pytest.raises(InvalidParametersError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidParametersError):
        Graph(3, [(0, 3)])
    g = Graph(3, [(2, 0), (0, 2), (1, 0)])
    assert g.edges == frozenset({(0, 2), (0, 1)})
    # A graph is immutable, and equal only to a graph.
    with pytest.raises(AttributeError, match="immutable"):
        g.n = 3
    assert (Graph(1) == 1) is False


@pytest.mark.parametrize("order", [2.5, 2.0, "3", None, np.float64(3.0)])
def test_graph_order_must_be_an_integer(order):
    # A float order is not truncated, and a string is a typed error, not a
    # bare TypeError.
    with pytest.raises(InvalidParametersError, match="integer"):
        Graph(order)


def test_graph_order_accepts_numpy_integers():
    g = Graph(np.int64(3), [(0, 1)])
    assert type(g.n) is int and g == Graph(3, [(0, 1)])
    assert Graph(np.uint8(2)).n == 2


def test_generators_shapes():
    k4 = complete(4)
    assert k4.m == 6 and k4.degree_sequence == (3, 3, 3, 3)
    s3 = star(3)
    assert s3.m == 3 and s3.degree_sequence == (3, 1, 1, 1)
    assert cycle(5).degree_sequence == (2,) * 5
    assert path(4).degree_sequence == (2, 2, 1, 1)
    # degrees() is per vertex in vertex order, not sorted.
    assert s3.degrees().tolist() == [3, 1, 1, 1]
    assert path(3).degrees().tolist() == [1, 2, 1]
    assert path(1).m == 0


def test_petersen():
    g = petersen()
    assert g.n == 10 and g.m == 15
    assert g.degree_sequence == (3,) * 10
    assert is_connected(g)


def test_generator_parameter_errors():
    for bad in (lambda: complete(0), lambda: star(0), lambda: cycle(2),
                lambda: path(0)):
        with pytest.raises(InvalidParametersError):
            bad()


def test_adjacency():
    assert complete(2).adjacency.tolist() == [[0, 1], [1, 0]]
    assert np.all(Graph(3).adjacency == 0)
    a = star(3).adjacency
    assert a[0].tolist() == [0, 1, 1, 1]
    for row in (1, 2, 3):
        assert a[row].sum() == 1 and a[row][0] == 1


def test_degrees_computed_once_and_read_only():
    g = erdos_renyi(12, 0.4, 5)
    d = g.degrees()
    assert g.degrees() is d
    with pytest.raises(ValueError):
        d[0] = 99
    loop = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges:
        loop[u] += 1
        loop[v] += 1
    assert d.tolist() == loop.tolist()
    assert Graph(3).degrees().tolist() == [0, 0, 0]
    adj = g.adjacency
    assert all(adj[u, v] == adj[v, u] == 1.0 for u, v in g.edges)
    assert g.adjacency is adj and adj.dtype == np.float64 and adj.shape == (12, 12)
    with pytest.raises(ValueError):
        adj[0, 1] = 1.0
    assert np.array_equal(adj, adj.T) and not adj.diagonal().any()
    assert set(np.unique(adj).tolist()) <= {0.0, 1.0}
    assert adj.sum(axis=1).tolist() == d.tolist()


def test_degree_matrix():
    # D = A_1 = diag(degrees()), the degree term of every A_alpha.
    for g, d in ((complete(4), [3, 3, 3, 3]), (star(3), [3, 1, 1, 1]),
                 (path(3), [1, 2, 1])):
        assert g.degrees().tolist() == d
        assert np.allclose(solved_stacks(g, [1.0])[0][0], np.diag(d))


def test_cached_fields_leave_equality_and_hash_alone():
    a, b = petersen(), petersen()
    a.edges, a.m, a.degrees(), a.degree_sequence, a.zagreb, a.connected, a.adjacency_inertia
    a.common_neighbours
    assert {"edges", "m", "degree_sequence", "zagreb", "connected",
            "adjacency_inertia", "common_neighbours"} <= vars(a).keys()
    assert not {"edges", "m", "adjacency_inertia", "common_neighbours"} & vars(b).keys()
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != delete_edge(a, *min(a.edges))


@given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_common_neighbours_counts_every_pair(n, p, seed):
    g = erdos_renyi(n, p, seed)
    nbrs = [{v for e in g.edges for v in e if u in e and v != u} for u in range(n)]
    counts = {len(nbrs[u] & nbrs[v]) for u in range(n) for v in range(u + 1, n)}
    assert g.common_neighbours == (counts.pop() if len(counts) == 1 else None)


def test_is_connected():
    assert is_connected(complete(4))
    assert is_connected(path(5))
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(two_k2)
    assert is_connected(Graph(1))
    # Against a union-find over the edge set: every graph on up to 5
    # vertices, and random graphs on every order up to 65, 129 and 1000.
    rng = np.random.default_rng(11)
    graphs = [path(62), Graph(62), Graph(62, [(0, 61)]), path(1000), Graph(1000, [(0, 999)])]
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs += [Graph(n, [pair for i, pair in enumerate(pairs) if x >> i & 1])
                   for x in range(1 << len(pairs))]
    for n in [*range(1, 63), 63, 64, 65, 129, 1000]:
        for p in (0.5 / n, 1.0 / n, 2.0 / n, 0.3):
            graphs.append(erdos_renyi(n, min(p, 1.0), int(rng.integers(0, 2**63))))
        # Disjoint union of two connected graphs: one edge short of connected.
        if n >= 2:
            k = int(rng.integers(1, n))
            left = erdos_renyi(k, 0.5, int(rng.integers(0, 2**63)), connected=True)
            right = erdos_renyi(n - k, 0.5, int(rng.integers(0, 2**63)), connected=True)
            union = Graph(n, set(left.edges) | {(u + k, v + k) for u, v in right.edges})
            bridged = Graph(n, set(union.edges) | {(0, n - 1)})
            graphs += [union, bridged]
    verdicts = [is_connected(g) for g in graphs]
    assert verdicts == [oracles.connected_by_union_find(g) for g in graphs]
    assert 0.2 < np.mean(verdicts) < 0.8


_ORDER_AND_DEGREE = st.integers(1, 62).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n - 1).filter(lambda k: n * k % 2 == 0)))


@given(_ORDER_AND_DEGREE, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.one_of(st.integers(0, 2**63 - 1), st.sampled_from([2**64, 2**128 + 1])),
       st.booleans())
@example((62, 4), 0.05, 2**63 - 1, True)  # sparse: draws and pairings run out
@example((62, 61), 1.0, 0, True)  # the complement of an edgeless pairing
@example((10, 4), 0.5, 924414275, True)
@example((1, 0), 0.0, 0, True)
@settings(max_examples=200, deadline=None)
def test_generators_match_their_references(nk, p, seed, connected):
    # Both generators against their one-pair-at-a-time references on
    # `random.Random(seed)`: the same adjacency bytes (or both out of
    # draws), the same connectivity, and the same next value from the
    # stream. Small draw budgets keep the failing draws cheap.
    n, k = nk
    made, real_rng = [], graphcore.seeded_rng

    def recording_rng(s):
        made.append(real_rng(s))
        return made[-1]

    with mock.patch.multiple(graphcore, seeded_rng=recording_rng, ER_MAX_DRAWS=4,
                             REGULAR_MAX_PAIRINGS=8):
        for make, reference in (
            (lambda: erdos_renyi(n, p, seed, connected),
             lambda rng: oracles.erdos_renyi_reference(n, p, rng, connected, 4)),
            (lambda: random_regular(n, k, seed),
             lambda rng: oracles.random_regular_reference(n, k, rng, 8)),
        ):
            made.clear()
            try:
                g = make()
            except GenerationFailureError:
                g = None
            rng = random.Random(seed)
            want = reference(rng)
            assert (g is None) == (want is None)
            if g is not None:
                assert g.adjacency.tobytes() == want.tobytes()
                assert g.connected == oracles.connected_by_matvec(want)
            assert len(made) == 1 and made[0].random() == rng.random()


def test_delete_edge():
    k3_minus = delete_edge(complete(3), 0, 1)
    assert k3_minus.degree_sequence == (2, 1, 1)
    k4_minus = delete_edge(complete(4), 1, 3)
    assert k4_minus.m == 5 and k4_minus.degree_sequence == (3, 3, 2, 2)
    p3_minus = delete_edge(path(3), 0, 1)
    assert p3_minus.m == 1 and not is_connected(p3_minus)
    with pytest.raises(NoSuchEdgeError):
        delete_edge(path(3), 0, 2)
    # Negative or out-of-range endpoints name no edge, even where a negative
    # index would wrap onto one of the matrix.
    for u, v in ((-1, 1), (1, -1), (1, 1), (0, 3), (3, 0)):
        with pytest.raises(NoSuchEdgeError):
            delete_edge(path(3), u, v)
    g = complete(4)
    delete_edge(g, 0, 1)
    assert g.m == 6 and g.adjacency[0, 1] == 1.0


def test_delete_then_readd_roundtrip():
    g = petersen()
    edge = sorted(g.edges)[7]
    restored = Graph(g.n, set(delete_edge(g, *edge).edges) | {edge})
    assert restored.edges == g.edges


def _check_matrix(g):
    a = g.adjacency
    assert a.dtype == np.float64 and a.shape == (g.n, g.n) and not a.flags.writeable
    assert np.array_equal(a, a.T) and not a.diagonal().any()
    assert set(np.unique(a).tolist()) <= {0.0, 1.0}
    assert sorted(g.edges) == [tuple(e) for e in np.argwhere(np.triu(a, 1)).tolist()]
    assert g.m == len(g.edges) and all(type(x) is int for e in g.edges for x in e)


@pytest.mark.parametrize("g", [
    random_regular(10, 6, 3),  # the complement branch: k > (n - 1) / 2
    random_regular(12, 3, 5),
    erdos_renyi(9, 0.5, 4),
    petersen(),
    Graph(5),
    complete(62),
], ids=["regular-complement", "regular-pairing", "gnp", "petersen", "edgeless", "k62"])
def test_construction_paths_agree(g):
    edges = sorted(g.edges)
    record = serialize_graph6(g)
    text = f"{g.n} {g.m}\n" + "".join(f"{v} {u}\n" for u, v in reversed(edges))
    built = [
        Graph(g.n, edges),
        Graph(g.n, [(v, u) for u, v in edges] + edges),
        parse_graph6(record),
        parse_graph6(record.decode("ascii")),
        parse_graph6(GRAPH6_HEADER.encode("ascii") + record + b"\n"),
        parse_edge_list(text),
    ]
    if edges:
        e = edges[len(edges) // 2]
        smaller = delete_edge(g, *e)
        _check_matrix(smaller)
        assert smaller != g and smaller.m == g.m - 1
        built.append(Graph(g.n, set(smaller.edges) | {e}))
    for h in built:
        _check_matrix(h)
        assert h == g and hash(h) == hash(g) and h.edges == g.edges
    _check_matrix(g)


def test_regular_complement_branch_is_the_edge_complement():
    for n, k, seed in ((10, 6, 3), (8, 4, 7), (9, 8, 0), (12, 9, 2)):
        inner = random_regular(n, n - 1 - k, seed)
        outer = random_regular(n, k, seed)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert outer == Graph(n, [e for e in pairs if e not in inner.edges])
        assert outer.degree_sequence == (k,) * n


def test_handshake_on_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 20))
        g = erdos_renyi(n, float(rng.uniform(0, 1)), int(rng.integers(0, 2**63)))
        assert sum(g.degree_sequence) == 2 * g.m


def test_graph6_fixed_vectors():
    assert serialize_graph6(complete(4)) == b"C~"
    assert parse_graph6(b"C~").edges == complete(4).edges
    assert serialize_graph6(path(3)) == b"Bg"
    assert parse_graph6("Bg").edges == frozenset({(0, 1), (1, 2)})
    assert serialize_graph6(Graph(2)) == b"A?"
    single = parse_graph6(b"@")
    assert single.n == 1 and single.m == 0
    assert serialize_graph6(Graph(1)) == b"@"
    for g in (complete(62), Graph(62)):
        record = serialize_graph6(g)
        assert len(record) == 317 and parse_graph6(record) == g
    # 1,891 bits: the last byte holds one edge bit and five zero pad bits.
    assert serialize_graph6(complete(62)) == b"}" + b"~" * 315 + b"_"
    assert serialize_graph6(Graph(62)) == b"}" + b"?" * 316


def test_graph6_malformed():
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(b"")
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(b"C~~")  # wrong length
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(b"C")  # missing payload
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(b"B\x20")  # payload byte below 63
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(bytes([63 + 63]) + b"???????")  # extended header marker
    with pytest.raises(MalformedGraph6Error, match="^graph6 order 0 not representable here$"):
        parse_graph6("?")
    # 'C' = 67 carries bits 000100: for n=3 the tail 100 is nonzero padding.
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(b"BC")
    # 'w' = 119 carries bits 111000: all three pad bits zero, so this is K_3.
    assert parse_graph6(b"Bw").edges == complete(3).edges


def test_graph6_header():
    # Records as networkx's to_graph6_bytes writes them: header, record, newline.
    assert parse_graph6(b">>graph6<<Bg\n") == path(3)
    assert parse_graph6(">>graph6<<C~") == complete(4)
    assert parse_graph6(b">>graph6<<I?LRCecq?\n") == petersen()
    with pytest.raises(MalformedGraph6Error, match="^empty record$"):
        parse_graph6(b">>graph6<<")
    # One header only, and only at the start of the record.
    with pytest.raises(MalformedGraph6Error, match="size byte 62 at offset 0 outside 63..126"):
        parse_graph6(b">>graph6<<>>graph6<<Bg")
    with pytest.raises(MalformedGraph6Error, match="expected 1 payload bytes"):
        parse_graph6(b"Bg>>graph6<<")


def _graph6_outcome(parse, data):
    """The adjacency bytes `parse` reads from `data`, or the type and message
    of the MalformedGraph6Error it raises."""
    try:
        a = parse(data)
    except MalformedGraph6Error as exc:
        return type(exc), str(exc)
    return getattr(a, "adjacency", a).tobytes()


@st.composite
def _graph6_variants(draw):
    """graph6 records of order 1..62, most of them malformed: a payload of
    the wrong length, a byte outside 63..126 at some offset, nonzero pad
    bits or a size byte outside 63..125, each with or without headers,
    whitespace and stray bytes around it, as bytes or as text."""
    n = draw(st.integers(1, 62))
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = bytearray(draw(st.binary(min_size=nbytes, max_size=nbytes)).translate(
        bytes(63 + b % 64 for b in range(256))))
    if nbits % 6:
        body[-1] &= ~((1 << (6 - nbits % 6)) - 1)  # zero pad bits: a valid record
    head = n + 63
    kind = draw(st.sampled_from(["valid", "length", "byte", "pad", "size"]))
    if kind == "length":
        size = draw(st.integers(0, nbytes + 3).filter(lambda k: k != nbytes))
        body = (body + b"~~~")[:size]
    elif kind == "byte" and nbytes:
        body[draw(st.integers(0, nbytes - 1))] = draw(
            st.one_of(st.integers(0, 62), st.integers(127, 255)))
    elif kind == "pad" and nbits % 6:
        body[-1] |= draw(st.integers(1, (1 << (6 - nbits % 6)) - 1))
    elif kind == "size":
        head = draw(st.sampled_from([62, 126, 127, 0, 32, 255]))
    record = (draw(st.sampled_from([b"", b">>graph6<<", b">>graph6<<>>graph6<<", b" \t",
                                    b">>graph6", b"\n>>graph6<<"]))
              + bytes([head]) + bytes(body)
              + draw(st.sampled_from([b"", b"\n", b" \r\n", b">>graph6<<", b"\x00"])))
    return record.decode("latin-1") if draw(st.booleans()) else record


@given(_graph6_variants())
@example(b"")
@example(">>graph6<<")
@example("B\u00e9")
@example(b"}" + b"~" * 315 + b"_")
@example(b"}" + b"~" * 315 + b"`")
@settings(max_examples=400)
def test_graph6_errors_read_as_the_reference_decoder_gives_them(data):
    # The same adjacency, or the same exception type and message, as the
    # decoder that checked the payload with numpy comparisons.
    assert (_graph6_outcome(parse_graph6, data)
            == _graph6_outcome(oracles.parse_graph6_reference, data))


def test_graph6_bad_byte_at_every_offset():
    # A byte outside 63..126 at each offset of an n = 62 record, the size
    # byte included: the message names the byte and its offset as before.
    record = serialize_graph6(erdos_renyi(62, 0.4, 3))
    for offset in range(len(record)):
        for bad in (0, 62, 127, 255):
            data = record[:offset] + bytes([bad]) + record[offset + 1:]
            got = _graph6_outcome(parse_graph6, data)
            assert got == _graph6_outcome(oracles.parse_graph6_reference, data)
            assert got[1].startswith("size byte" if offset == 0 else "payload byte"), got


def test_load_corpus_skip_notes_on_a_mixed_file(tmp_path):
    # Good and bad records in one file: the same graphs, and each skipped
    # line's note with its line number and the decoder's message. The decoder
    # reads each line as it stands, so a doubled header is refused as it is
    # by parse_graph6 alone.
    corpus = tmp_path / "mixed.g6"
    corpus.write_bytes(b"Bw\nC~~\n\nBC\n# comment\n>>graph6<<C~\nB\x20\n~???\n@\nA_\n"
                       b"B\x7f\nI?LRCecq?\n>>graph6<<>>graph6<<Bw\nA`\n>>graph6<<>>graph6<<>>graph6<<@\n")
    graphs, skipped = harness.load_corpus(str(corpus))
    assert [gid for gid, _ in graphs] == ["Bw", "C~", "@", "A_", "I?LRCecq?"]
    assert skipped == [f"{corpus}:{line}: {message}" for line, message in (
        (2, "expected 1 payload bytes for n=4, got 2"),
        (4, "nonzero padding bits"),
        (7, "expected 1 payload bytes for n=3, got 0"),
        (8, "multi-byte size headers (n > 62) not supported"),
        (11, "payload byte 127 at offset 1 outside 63..126"),
        (13, "size byte 62 at offset 0 outside 63..126"),
        (14, "nonzero padding bits"),
        (15, "size byte 62 at offset 0 outside 63..126"),
    )]


@given(st.lists(_graph6_variants(), max_size=8))
@example(["Bw\x0cBw", "C~\x85D?{", "Bw\x1c", "Bw\xa0", "\x0bBw\x0c", "C~\x1eD?{\r\nBw"])
@settings(max_examples=100)
def test_load_corpus_skip_notes_read_as_the_reference_decoder_gives_them(tmp_path_factory,
                                                                       records):
    # Each line after a first good record, read by load_corpus and by the
    # reference decoder: the same graph ids and the same skip notes. Lines
    # end at \n, \r\n or \r only, and are stripped of ASCII whitespace only.
    lines = ["Bw"] + [r.decode("latin-1") if isinstance(r, bytes) else r for r in records]
    corpus = tmp_path_factory.mktemp("g6") / "corpus.g6"
    corpus.write_bytes("\n".join(lines).encode("latin-1"))
    ids, notes = [], []
    text = "\n".join(lines).replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(text.split("\n"), start=1):
        record = line.strip(" \t\n\r\x0b\x0c")
        if not record or record.startswith("#"):
            continue
        try:
            oracles.parse_graph6_reference(record)
            ids.append(record.removeprefix(GRAPH6_HEADER))
        except MalformedGraph6Error as exc:
            notes.append(f"{corpus}:{lineno}: {exc}")
    graphs, skipped = harness.load_corpus(str(corpus))
    assert ([gid for gid, _ in graphs], skipped) == (ids, notes)


@st.composite
def _graph6_records(draw):
    """Valid one-byte-header graph6 records, n = 1..62, zero padding."""
    n = draw(st.integers(1, 62))
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    six = st.one_of(st.integers(0, 63), st.sampled_from([0, 63]))
    vals = draw(st.lists(six, min_size=nbytes, max_size=nbytes))
    if vals:
        vals[-1] &= ~((1 << (6 * nbytes - nbits)) - 1) & 63
    return bytes([n + 63] + [v + 63 for v in vals])


@given(_graph6_records())
@example(b"@")
@example(b"}" + b"~" * 315 + b"_")
@example(b"A_")
def test_parse_graph6_matches_bitwise_oracle(record):
    n, edges = oracles.graph6_decode(record)
    g = parse_graph6(record)
    expected = np.zeros((n, n))
    for i, j in edges:
        expected[i, j] = expected[j, i] = 1.0
    assert g.n == n and g.edges == edges and g.m == len(edges)
    assert np.array_equal(g.adjacency, expected)
    assert serialize_graph6(g) == record


def test_graph6_roundtrip_random():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(1, 63))
        g = erdos_renyi(n, float(rng.uniform(0, 1)), int(rng.integers(0, 2**63)))
        text = serialize_graph6(g)
        again = parse_graph6(text)
        assert again.n == g.n and again.edges == g.edges
        assert serialize_graph6(again) == text


def test_graph6_too_large():
    with pytest.raises(GraphTooLargeError):
        serialize_graph6(Graph(63))


def test_edge_list_parse():
    assert parse_edge_list("3 2\n0 1\n1 2").edges == path(3).edges
    k4 = parse_edge_list("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert k4.edges == complete(4).edges
    commented = parse_edge_list("# a triangle\n3 3\n0 1\n\n1 2\n# middle\n0 2")
    assert commented.edges == complete(3).edges


def test_edge_list_order_cap():
    cap = graphcore.MAX_ORDER
    assert parse_edge_list(f"{cap} 1\n0 1").n == cap
    with pytest.raises(GraphTooLargeError, match=f"order {cap + 1} exceeds"):
        parse_edge_list(f"{cap + 1} 1\n0 1")


@pytest.mark.parametrize("text,fragment", [
    ("2 1\n0 0", "self-loop"),
    ("2 2\n0 1\n0 1", "duplicate"),
    ("2 1\n0 5", "range"),
    ("3 2\n0 1", "declared 2 edges"),
    ("3 1\n0 1\n1 2", "more than the declared"),
    ("x y\n0 1", "non-integer"),
    ("# nothing\n", "no header"),
    # Lines end at \n, \r\n and \r only; spaces and tabs separate fields.
    ("2 1\x1c0 1", "line 1: expected header"),
    ("2 1\n0\x0c1", "line 2: expected edge"),
    ("2 1\r\n0 \x0b1", "line 2: non-integer endpoints"),
    ("2 1\r0 1\x85", "line 2: non-integer endpoints"),
    ("2 1\n0 1\xa0", "line 2: non-integer endpoints"),
])
def test_edge_list_malformed(text, fragment):
    with pytest.raises(MalformedEdgeListError, match=fragment):
        parse_edge_list(text)


def test_erdos_renyi_determinism_and_connectivity():
    a = erdos_renyi(12, 0.4, 99)
    b = erdos_renyi(12, 0.4, 99)
    assert a.edges == b.edges
    # Frozen outputs: a seed keeps its graph across rewrites of the generator.
    assert serialize_graph6(a) == b"KToE]KBWhmeG"
    big = erdos_renyi(62, 0.1, 0, connected=True)
    assert big.m == 201 and is_connected(big)
    assert hashlib.sha256(serialize_graph6(big)).hexdigest() == (
        "12881e1c9409cea7b09f3a462663a65424fd2be515edfc8c872b1100c1f1e034")
    for seed in range(5):
        g = erdos_renyi(8, 0.3, seed, connected=True)
        assert is_connected(g)
    with pytest.raises(InvalidParametersError):
        erdos_renyi(5, 1.5, 0)
    with pytest.raises(GenerationFailureError):
        erdos_renyi(4, 0.0, 0, connected=True)


def test_random_regular():
    for seed in range(5):
        g = random_regular(10, 3, seed)
        assert g.degree_sequence == (3,) * 10
    a = random_regular(8, 4, 7)
    assert a.edges == random_regular(8, 4, 7).edges
    # Frozen outputs of the complement branch (k > (n-1)/2) and the pairing.
    assert a.degree_sequence == (4,) * 8 and serialize_graph6(a) == b"GryPYk"
    assert serialize_graph6(random_regular(10, 3, 1)) == b"IdGIGgbq?"
    assert random_regular(5, 0, 0).m == 0
    with pytest.raises(InvalidParametersError):
        random_regular(5, 3, 0)  # n*k odd
    with pytest.raises(InvalidParametersError):
        random_regular(4, 4, 0)  # k >= n


@pytest.mark.parametrize("seed", [-1, -(2**63), 2.5, 3.0, "3", None])
def test_generators_take_only_non_negative_integer_seeds(seed):
    # random.Random would fold -1 onto 1 and hash 2.5 or '3' into a seed.
    for call in (lambda: erdos_renyi(5, 0.5, seed),
                 lambda: random_regular(6, 2, seed),
                 lambda: random_regular(6, 4, seed),  # the complement branch
                 lambda: random_regular(6, 0, seed)):  # draws nothing
        with pytest.raises(InvalidParametersError, match="seed"):
            call()


def test_generators_take_integer_like_seeds():
    assert erdos_renyi(9, 0.5, np.int64(5)) == erdos_renyi(9, 0.5, 5)
    assert random_regular(9, 4, np.uint8(5)) == random_regular(9, 4, 5)
    assert random_regular(9, 4, 2**200) != random_regular(9, 4, 2**200 + 1)


def _labelled_regular(n: int, k: int) -> list[frozenset]:
    """Every k-regular graph on the vertices 0..n-1, as its edge set: each
    vertex in turn joined to enough later vertices of spare degree."""
    found = []

    def extend(v, degree, edges):
        if v == n:
            found.append(frozenset(edges))
            return
        spare = [w for w in range(v + 1, n) if degree[w] < k]
        for ws in itertools.combinations(spare, k - degree[v]):
            for w in ws:
                degree[w] += 1
            extend(v + 1, degree, edges + [(v, w) for w in ws])
            for w in ws:
                degree[w] -= 1

    extend(0, [0] * n, [])
    return found


def _chi_square(counts: dict, expected: dict) -> float:
    return sum((counts.get(key, 0) - e) ** 2 / e for key, e in expected.items())


def test_random_regular_is_uniform_on_labelled_two_regular_graphs():
    # The 70 labelled 2-regular graphs on 6 vertices (60 hexagons and 10
    # pairs of triangles), each drawn with probability 1/70: all reached
    # from 6,000 seeds, and the chi-square statistic below 111.06, the
    # 0.999 quantile at 69 degrees of freedom.
    graphs = _labelled_regular(6, 2)
    assert len(graphs) == 70
    counts = collections.Counter(random_regular(6, 2, seed).edges for seed in range(6000))
    assert set(counts) == set(graphs)
    assert _chi_square(counts, {g: 6000 / 70 for g in graphs}) < 111.06


def test_random_regular_is_uniform_on_labelled_cubic_graphs_of_order_8():
    # The 19,355 labelled cubic graphs on 8 vertices fall into 6 isomorphism
    # classes, which their adjacency spectra tell apart; a uniform draw
    # lands in a class with probability its labelled count / 19,355. Over
    # 4,000 seeds the chi-square statistic on the classes is below 20.52,
    # the 0.999 quantile at 5 degrees of freedom.
    graphs = _labelled_regular(8, 3)
    assert len(graphs) == 19355
    stack = np.zeros((len(graphs), 8, 8))
    for i, edges in enumerate(graphs):
        for u, v in edges:
            stack[i, u, v] = stack[i, v, u] = 1.0
    spectra = [tuple(row) for row in np.round(np.linalg.eigvalsh(stack), 6).tolist()]
    sizes = collections.Counter(spectra)
    assert sorted(sizes.values()) == [35, 840, 2520, 2520, 3360, 10080]
    spectrum_of = dict(zip(graphs, spectra))
    counts = collections.Counter(spectrum_of[random_regular(8, 3, seed).edges]
                                 for seed in range(4000))
    expected = {s: 4000 * size / len(graphs) for s, size in sizes.items()}
    assert _chi_square(counts, expected) < 20.52


def test_erdos_renyi_edge_frequencies_are_binomial():
    # Over 2,000 seeds each of the 28 pairs of G(8, 0.3) is an edge a
    # Binomial(2000, 0.3) number of times, and the edges in all a
    # Binomial(56000, 0.3) number: each within 4.5 standard deviations of
    # its mean.
    seeds, pairs, p = 2000, 28, 0.3
    counts = sum(erdos_renyi(8, p, seed).adjacency for seed in range(seeds))
    per_pair = counts[np.triu_indices(8, 1)]
    assert np.abs(per_pair - seeds * p).max() < 4.5 * (seeds * p * (1 - p)) ** 0.5
    total = seeds * pairs
    assert abs(per_pair.sum() - total * p) < 4.5 * (total * p * (1 - p)) ** 0.5
