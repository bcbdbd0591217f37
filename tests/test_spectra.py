import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from alphaenergy import densela, graphcore, harness
from alphaenergy.graphcore import (
    INERTIA_TOL, Graph, complete, cycle, delete_edge, parse_graph6, petersen, star,
)
from alphaenergy.harness import DEFAULT_ALPHA_GRID
from alphaenergy.spectra import AlphaOutOfRangeError, graph_spectra, spectrum_tables
from one_alpha import alpha_spectrum, solved_stacks

SQRT3 = math.sqrt(3.0)


def alpha_matrices(g, alphas):
    """The one stack of alpha*D + (1-alpha)*A, one slice per alpha, that the
    package solves for `g` at `alphas`."""
    stack, = solved_stacks(g, alphas)
    return stack


def alpha_matrix(g, alpha):
    """The package's alpha*D + (1-alpha)*A at one alpha, as solved."""
    return alpha_matrices(g, [alpha])[0]


def test_alpha_matrix_endpoints():
    k2 = complete(2)
    assert alpha_matrix(k2, 0.0).tolist() == [[0, 1], [1, 0]]
    assert np.allclose(alpha_matrix(k2, 1.0), np.eye(2))
    assert alpha_matrices(k2, [0.0, 1.0]).shape == (2, 2, 2)


def test_alpha_matrix_k4_half():
    a = alpha_matrix(complete(4), 0.5)
    assert np.allclose(np.diag(a), 1.5)
    off = a[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.5)
    eigs = densela.eigendecompose(alpha_matrices(complete(4), [0.5]))[0]
    assert np.allclose(eigs, [3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_alpha_matrix_signless_identity():
    g = petersen()
    q = 2.0 * alpha_matrix(g, 0.5)
    d_plus_a = np.diag(g.degrees()) + g.adjacency
    assert np.array_equal(q, d_plus_a)


@st.composite
def _parsed_graphs(draw):
    """Any edge set on 1..62 vertices, read through the graph6 parser."""
    n = draw(st.integers(1, 62))
    nbits = n * (n - 1) // 2
    bits = draw(st.integers(0, 2**nbits - 1))
    if draw(st.booleans()):
        bits ^= 2**nbits - 1  # the complement: dense graphs as often as sparse
    nbytes = (nbits + 5) // 6
    padded = bits << (6 * nbytes - nbits)
    body = bytes(63 + (padded >> 6 * (nbytes - 1 - i) & 63) for i in range(nbytes))
    return parse_graph6(bytes([63 + n]) + body)


@given(_parsed_graphs(), st.lists(st.floats(0.0, 1.0), max_size=4))
@example(Graph(1), [])
@example(Graph(5), [])
@example(Graph(4, [(0, 1), (2, 3)]), [0.25])
@example(complete(62), [0.999])
@settings(max_examples=60, deadline=None)
def test_alpha_matrices_finite_and_exactly_symmetric(g, extra):
    # What the solver takes on trust: every stack is finite and exactly
    # symmetric, so solving it raw gives the bits of symmetrising it first.
    alphas = [0.0, 0.5, 1.0, *extra]
    m = alpha_matrices(g, alphas)
    assert m.shape == (len(alphas), g.n, g.n) and m.dtype == np.float64
    assert m.flags.writeable and not np.may_share_memory(m, g.adjacency)
    assert np.all(np.isfinite(m))
    assert np.array_equal(m, m.swapaxes(-2, -1))
    symmetrised = np.linalg.eigvalsh((m + m.swapaxes(-2, -1)) / 2)[..., ::-1]
    assert densela.eigendecompose(m).tobytes() == symmetrised.tobytes()


def test_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRangeError):
        alpha_matrices(complete(3), [-0.1])
    with pytest.raises(AlphaOutOfRangeError, match=r"alpha must lie in \[0, 1\], got 1.5"):
        graph_spectra(complete(3), [0.5, 1.5])
    with pytest.raises(AlphaOutOfRangeError):
        graph_spectra(complete(3), [float("nan")])
    # An int alpha is stored as a Python float.
    assert [type(sp.alpha) for sp in graph_spectra(complete(3), [0, 1])] == [float, float]


def test_k4_half_spectrum_fixture():
    sp = alpha_spectrum(complete(4), 0.5)
    assert np.allclose(sp.rho, [3.0, 1.0, 1.0, 1.0], atol=1e-12)
    assert sp.shift == pytest.approx(1.5)
    assert sp.energy == pytest.approx(3.0, abs=1e-12)
    assert sp.eta == 1
    assert sp.two_s == pytest.approx(3.0, abs=1e-12)
    assert sp.gamma_det == pytest.approx(0.1875, abs=1e-12)
    assert sp.theta == pytest.approx(1.5, abs=1e-12)
    assert sp.zagreb == 36
    assert sp.connected
    # Gamma = |det(A_alpha - shift*I)| against cofactor expansion, at alpha = 1/2
    # and at alpha = 0 where it is |det A(K4)| = 3; the table's column is its log.
    table, = spectrum_tables(([complete(4)], [0.5, 0.0]))
    for sp, log_gamma, gamma in zip(table, table.log_gamma.tolist(), (0.1875, 3.0)):
        shifted = oracles.alpha_matrix(complete(4), sp.alpha) - sp.shift * np.eye(4)
        assert sp.gamma_det == pytest.approx(gamma, abs=1e-10)
        assert sp.gamma_det == pytest.approx(abs(oracles.det_cofactor(shifted)), abs=1e-10)
        assert log_gamma == pytest.approx(math.log(gamma), abs=1e-10)


def test_regular_alpha_one_energy_zero():
    for g in (complete(5), cycle(6), petersen()):
        assert alpha_spectrum(g, 1.0).energy == pytest.approx(0.0, abs=1e-12)


def test_star_alpha_zero_spectrum():
    sp = alpha_spectrum(star(3), 0.0)
    assert np.allclose(sp.rho, [SQRT3, 0.0, 0.0, -SQRT3], atol=1e-10)
    assert sp.energy == pytest.approx(2 * SQRT3, abs=1e-10)


def test_star_alpha_half_spectrum():
    # Closed form for stars: alpha repeated n-2 times plus the quadratic pair.
    sp = alpha_spectrum(star(3), 0.5)
    assert np.allclose(sp.rho, [2.0, 0.5, 0.5, 0.0], atol=1e-10)
    assert sp.eta == 1
    assert sp.energy == pytest.approx(2.5, abs=1e-10)


def test_zagreb_values():
    assert graph_spectra(complete(4), [0.5])[0].zagreb == 36
    assert graph_spectra(star(3), [0.5])[0].zagreb == 12
    assert graph_spectra(Graph(3), [0.5])[0].zagreb == 0


def test_two_s_values():
    k4_half, = graph_spectra(complete(4), [0.5])
    star_0, star_half = graph_spectra(star(3), [0.0, 0.5])
    for sp, expect in ((k4_half, 3.0), (star_0, 6.0), (star_half, 2.25)):
        assert sp.two_s == pytest.approx(expect, abs=1e-12)
        assert float(np.sum(sp.s**2)) == pytest.approx(sp.two_s, abs=1e-12)


def _partial_sum_energy(g, alpha):
    sp = alpha_spectrum(g, alpha)
    return oracles.energy_via_partial_sums(sp.rho, sp.shift)


def test_partial_sum_energy_fixtures():
    assert _partial_sum_energy(complete(4), 0.5) == pytest.approx(3.0, abs=1e-10)
    assert _partial_sum_energy(complete(4), 0.0) == pytest.approx(6.0, abs=1e-10)
    assert _partial_sum_energy(cycle(6), 1.0) == pytest.approx(0.0, abs=1e-10)


def test_spectrum_invariants_on_corpus(er_corpus_small):
    for g in er_corpus_small[:40]:
        for alpha in (0.0, 0.3, 0.5, 0.8, 1.0):
            sp = alpha_spectrum(g, alpha)
            target = 2 * alpha * g.m
            assert abs(float(sp.rho.sum()) - target) <= 1e-9 * (1 + target)
            sq = float(np.sum(sp.rho**2))
            expect_sq = alpha**2 * sp.zagreb + (1 - alpha) ** 2 * 2 * g.m
            assert abs(sq - expect_sq) <= 1e-9 * (1 + sq)
            assert abs(float(sp.s.sum())) <= 1e-9 * g.n
            s2 = float(np.sum(sp.s**2))
            assert abs(s2 - sp.two_s) <= 1e-9 * (1 + sp.two_s)
            assert sp.energy == float(np.abs(sp.s).sum())
            assert 1 <= sp.eta <= g.n
            assert oracles.energy_via_partial_sums(sp.rho, sp.shift) == pytest.approx(
                sp.energy, abs=1e-9 * (1 + sp.energy)
            )


def test_alpha_zero_matches_plain_energy(er_corpus_small):
    for g in er_corpus_small[:30]:
        sp = alpha_spectrum(g, 0.0)
        assert sp.energy == pytest.approx(oracles.energy(g, 0.0), abs=1e-9)


def test_alpha_half_matches_signless_energy(er_corpus_small):
    for g in er_corpus_small[:30]:
        sp = alpha_spectrum(g, 0.5)
        assert 2.0 * sp.energy == pytest.approx(oracles.signless_energy(g), abs=1e-9)


def test_radius_average_degree_equality_iff_regular():
    sp = alpha_spectrum(star(3), 0.3)
    assert sp.rho[0] > 2 * sp.m / sp.n + 1e-6
    for g in (cycle(7), complete(5)):
        for alpha in (0.0, 0.5, 0.9):
            sp = alpha_spectrum(g, alpha)
            assert sp.rho[0] == pytest.approx(2 * sp.m / sp.n, abs=1e-9)


def test_radius_zagreb_chain(er_corpus):
    for g in er_corpus:
        sp = alpha_spectrum(g, 0.4)
        root = math.sqrt(sp.zagreb / sp.n)
        assert sp.rho[0] >= root - 1e-9
        assert root >= 2 * sp.m / sp.n - 1e-12


def test_regular_energy_factorization():
    rng = np.random.default_rng(12)
    graphs = [complete(4), complete(7), cycle(5), cycle(10), petersen()]
    graphs += [graphcore.random_regular(8, 3, int(rng.integers(0, 2**63))) for _ in range(3)]
    for g in graphs:
        base = oracles.energy(g, 0.0)
        previous = None
        for alpha in DEFAULT_ALPHA_GRID:
            got = alpha_spectrum(g, alpha).energy
            assert abs(got - (1 - alpha) * base) <= 1e-9
            if previous is not None:
                assert got <= previous + 1e-9
            previous = got


def test_edge_deletion_monotonicity_small_fuzz():
    rng = np.random.default_rng(99)
    for _ in range(20):
        g = graphcore.erdos_renyi(
            int(rng.integers(4, 10)), 0.5, int(rng.integers(0, 2**63)), connected=True
        )
        edge = sorted(g.edges)[int(rng.integers(0, g.m))]
        smaller = delete_edge(g, *edge)
        for alpha in (0.5, 0.75, 0.9):
            before = alpha_spectrum(g, alpha).rho
            after = alpha_spectrum(smaller, alpha).rho
            assert np.all(after <= before + 1e-9)


def test_edge_perturbation_spectrum():
    # Deleting one edge changes the matrix by a rank-2 block whose spectrum
    # is {1, 2*alpha - 1, 0, ..., 0}.
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = graphcore.erdos_renyi(
            int(rng.integers(3, 9)), 0.6, int(rng.integers(0, 2**63)), connected=True
        )
        edge = sorted(g.edges)[int(rng.integers(0, g.m))]
        alpha = float(rng.uniform(0, 1))
        diff = alpha_matrix(g, alpha) - alpha_matrix(delete_edge(g, *edge), alpha)
        eigs = np.sort(np.linalg.eigvalsh(diff))[::-1]
        expected = np.sort(np.array([1.0, 2 * alpha - 1.0] + [0.0] * (g.n - 2)))[::-1]
        assert np.allclose(eigs, expected, atol=1e-9)


def test_gamma_singular_shift_clamped():
    # A singular shift is log Gamma = -inf in the table and Gamma = 0 in the
    # record, with no divide-by-zero warning (warnings are errors here).
    c4, c5 = spectrum_tables(([cycle(4)], [0.5]), ([cycle(5)], [1.0]))
    assert np.allclose(c4[0].rho, [2.0, 1.0, 1.0, 0.0], atol=1e-10)
    # Regular graph at alpha = 1: A_alpha = k*I, so every s_i is zero.
    for table in (c4, c5):
        assert table.log_gamma.tolist() == [-math.inf]
        assert table[0].gamma_det == 0.0


def test_disconnected_spectrum_still_computed():
    g = Graph(4, [(0, 1), (2, 3)])
    sp = alpha_spectrum(g, 0.5)
    assert not sp.connected
    assert sp.energy > 0
    assert len(sp.rho) == 4


def test_eta_counts_shift_ties():
    # Regular graph at alpha = 1: every eigenvalue equals the shift.
    sp = alpha_spectrum(cycle(5), 1.0)
    assert sp.eta == 5


STACK_GRAPHS = {
    "K1": Graph(1),
    "K2": complete(2),
    "2K2": Graph(4, [(0, 1), (2, 3)]),
    "petersen": petersen(),
    "er62": graphcore.erdos_renyi(62, 0.3, 2005),
}


def _one_solve(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((a + a.T) / 2.0)[::-1]


@pytest.mark.parametrize("alphas", [(0.0,), (0.5,), (1.0,), (0.0, 0.5, 1.0), DEFAULT_ALPHA_GRID],
                         ids=["0", "half", "1", "0-half-1", "grid"])
@pytest.mark.parametrize("name", list(STACK_GRAPHS))
def test_stacked_spectra_bit_identical(name, alphas):
    # One stacked solve per graph gives the bits of one LAPACK call per alpha.
    g = STACK_GRAPHS[name]
    sps = graph_spectra(g, alphas)
    assert [sp.alpha for sp in sps] == list(alphas)
    for sp in sps:
        assert sp.rho.tobytes() == _one_solve(alpha_matrix(g, sp.alpha)).tobytes()
        assert sp.graph is g
    if 0.0 in alphas:
        # The alpha = 0 slice is the adjacency spectrum: same inertia as the
        # Graph's own adjacency solve.
        adj = sps[alphas.index(0.0)].rho
        pos, neg = int(np.sum(adj > INERTIA_TOL)), int(np.sum(adj < -INERTIA_TOL))
        assert g.adjacency_inertia == (pos, g.n - pos - neg, neg)


def test_graph_invariants():
    g = star(3)
    assert (g.n, g.m, g.zagreb, g.connected) == (4, 3, 12, True)
    assert g.degrees().tolist() == [3, 1, 1, 1]
    assert g.degree_sequence == (3, 1, 1, 1)
    assert g.is_star and not g.is_regular and not g.is_complete
    assert g.adjacency_inertia == (1, 2, 1)  # spectrum sqrt(3), 0, 0, -sqrt(3)
    sp = alpha_spectrum(g, 0.3)
    assert sp.graph is g and (sp.n, sp.m, sp.zagreb, sp.connected) == (4, 3, 12, True)
    g = Graph(4, [(0, 1), (2, 3)])
    assert g.is_regular and not g.connected and not g.is_star
    assert g.adjacency_inertia == (2, 0, 2)
    assert complete(4).is_complete and complete(4).is_regular and not complete(4).is_star
    assert Graph(1).is_complete and Graph(1).adjacency_inertia == (0, 1, 0)


def test_adjacency_solved_once_per_graph(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    g = petersen()
    # One stack solve per analyze call; the adjacency spectrum, read by the
    # certificate, is solved once for the Graph object, not once per alpha.
    for alpha in DEFAULT_ALPHA_GRID:
        v, _, _ = harness.analyze("P", g, alpha)
        assert v.reason[0, 0] == 0  # ub_mcclelland applicable
    stack = (1, 10, 10)
    assert calls == [stack, (10, 10)] + [stack] * (len(DEFAULT_ALPHA_GRID) - 1)
    # Sweeps never certify, so they never solve the adjacency spectrum.
    calls.clear()
    harness.run_sweep([("P", petersen())], [0.5, 0.9])
    assert calls == [(2, 10, 10)]
    # No alpha at all: no spectrum, and nothing solved.
    assert graph_spectra(g, []) == ()
    assert calls == [(2, 10, 10)]
