import numpy as np
import pytest

from alphaenergy import graphcore, spectra
from alphaenergy.graphcore import (
    GenerationFailureError,
    Graph,
    GraphTooLargeError,
    InvalidParametersError,
    MalformedEdgeListError,
    MalformedGraph6Error,
    NoSuchEdgeError,
    adjacency_matrix,
    complete,
    complete_bipartite,
    cycle,
    delete_edge,
    erdos_renyi,
    generate,
    is_connected,
    parse_edge_list,
    parse_graph6,
    path,
    petersen,
    random_regular,
    serialize_graph6,
    star,
)


def test_graph_validation():
    with pytest.raises(InvalidParametersError):
        Graph(0)
    with pytest.raises(InvalidParametersError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidParametersError):
        Graph(3, [(0, 3)])
    g = Graph(3, [(2, 0), (0, 2), (1, 0)])
    assert g.edges == frozenset({(0, 2), (0, 1)})


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
    kab = complete_bipartite(2, 3)
    assert kab.n == 5 and kab.m == 6 and kab.degree_sequence == (3, 3, 2, 2, 2)


def test_petersen():
    g = petersen()
    assert g.n == 10 and g.m == 15
    assert g.degree_sequence == (3,) * 10
    assert is_connected(g)


def test_generator_parameter_errors():
    for bad in (lambda: complete(0), lambda: star(0), lambda: cycle(2),
                lambda: path(0), lambda: complete_bipartite(0, 2)):
        with pytest.raises(InvalidParametersError):
            bad()


def test_adjacency_matrix():
    assert adjacency_matrix(complete(2)).entries.tolist() == [[0, 1], [1, 0]]
    assert np.all(adjacency_matrix(Graph(3)).entries == 0)
    a = adjacency_matrix(star(3)).entries
    assert a[0].tolist() == [0, 1, 1, 1]
    for row in (1, 2, 3):
        assert a[row].sum() == 1 and a[row][0] == 1


def test_degree_matrix():
    # D = A_1 = diag(degrees()), the degree term of every A_alpha.
    for g, d in ((complete(4), [3, 3, 3, 3]), (star(3), [3, 1, 1, 1]),
                 (path(3), [1, 2, 1])):
        assert g.degrees().tolist() == d
        assert np.allclose(spectra.alpha_matrix(g, 1.0).entries, np.diag(d))


def test_is_connected():
    assert is_connected(complete(4))
    assert is_connected(path(5))
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(two_k2)
    assert is_connected(Graph(1))


def test_delete_edge():
    k3_minus = delete_edge(complete(3), 0, 1)
    assert k3_minus.degree_sequence == (2, 1, 1)
    k4_minus = delete_edge(complete(4), 1, 3)
    assert k4_minus.m == 5 and k4_minus.degree_sequence == (3, 3, 2, 2)
    p3_minus = delete_edge(path(3), 0, 1)
    assert p3_minus.m == 1 and not is_connected(p3_minus)
    with pytest.raises(NoSuchEdgeError):
        delete_edge(path(3), 0, 2)


def test_delete_then_readd_roundtrip():
    g = petersen()
    edge = sorted(g.edges)[7]
    restored = Graph(g.n, set(delete_edge(g, *edge).edges) | {edge})
    assert restored.edges == g.edges


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
    # 'C' = 67 carries bits 000100: for n=3 the tail 100 is nonzero padding.
    with pytest.raises(MalformedGraph6Error):
        parse_graph6(b"BC")
    # 'w' = 119 carries bits 111000: all three pad bits zero, so this is K_3.
    assert parse_graph6(b"Bw").edges == complete(3).edges


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


@pytest.mark.parametrize("text,fragment", [
    ("2 1\n0 0", "self-loop"),
    ("2 2\n0 1\n0 1", "duplicate"),
    ("2 1\n0 5", "range"),
    ("3 2\n0 1", "declared 2 edges"),
    ("3 1\n0 1\n1 2", "more than the declared"),
    ("x y\n0 1", "non-integer"),
    ("# nothing\n", "no header"),
])
def test_edge_list_malformed(text, fragment):
    with pytest.raises(MalformedEdgeListError, match=fragment):
        parse_edge_list(text)


def test_erdos_renyi_determinism_and_connectivity():
    a = erdos_renyi(12, 0.4, 99)
    b = erdos_renyi(12, 0.4, 99)
    assert a.edges == b.edges
    for seed in range(5):
        g = erdos_renyi(8, 0.3, seed, connected=True)
        assert is_connected(g)
    with pytest.raises(InvalidParametersError):
        erdos_renyi(5, 1.5, 0)
    with pytest.raises(GenerationFailureError):
        erdos_renyi(4, 0.0, 0, connected=True, max_retries=10)


def test_random_regular():
    for seed in range(5):
        g = random_regular(10, 3, seed)
        assert g.degree_sequence == (3,) * 10
    a = random_regular(8, 4, 7)
    assert a.edges == random_regular(8, 4, 7).edges
    assert random_regular(5, 0, 0).m == 0
    with pytest.raises(InvalidParametersError):
        random_regular(5, 3, 0)  # n*k odd
    with pytest.raises(InvalidParametersError):
        random_regular(4, 4, 0)  # k >= n


def test_generate_descriptors():
    assert generate("complete(4)").edges == complete(4).edges
    assert generate("petersen").n == 10
    assert generate("star(3)").degree_sequence == (3, 1, 1, 1)
    assert generate("erdos_renyi(8, 0.5, 1)").n == 8
    assert generate("random_regular(6, 2, 3)").degree_sequence == (2,) * 6
    for bad in ("frobnicate(3)", "complete(4, 5)", "complete(x)", "complete('4')"):
        with pytest.raises(InvalidParametersError):
            generate(bad)
