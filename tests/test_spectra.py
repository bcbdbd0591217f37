import math

import numpy as np
import pytest

import oracles
from alphaenergy import densela, graphcore
from alphaenergy.graphcore import Graph, complete, cycle, delete_edge, path, petersen, star
from alphaenergy.harness import DEFAULT_ALPHA_GRID
from alphaenergy.spectra import (
    AlphaOutOfRangeError,
    alpha_matrix,
    alpha_spectrum,
    two_s,
    zagreb_index,
)

SQRT3 = math.sqrt(3.0)


def test_alpha_matrix_endpoints():
    k2 = complete(2)
    assert alpha_matrix(k2, 0.0).entries.tolist() == [[0, 1], [1, 0]]
    assert np.allclose(alpha_matrix(k2, 1.0).entries, np.eye(2))


def test_alpha_matrix_k4_half():
    a = alpha_matrix(complete(4), 0.5).entries
    assert np.allclose(np.diag(a), 1.5)
    off = a[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.5)
    eigs = densela.eigendecompose(alpha_matrix(complete(4), 0.5)).eigenvalues
    assert np.allclose(eigs, [3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_alpha_matrix_signless_identity():
    g = petersen()
    q = 2.0 * alpha_matrix(g, 0.5).entries
    d_plus_a = np.diag(g.degrees()) + graphcore.adjacency_matrix(g).entries
    assert np.array_equal(q, d_plus_a)


def test_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRangeError):
        alpha_matrix(complete(3), -0.1)
    with pytest.raises(AlphaOutOfRangeError):
        alpha_spectrum(complete(3), 1.5)


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
    # and at alpha = 0 where it is |det A(K4)| = 3.
    for alpha, gamma in ((0.5, 0.1875), (0.0, 3.0)):
        sp = alpha_spectrum(complete(4), alpha)
        shifted = oracles.alpha_matrix(complete(4), alpha) - sp.shift * np.eye(4)
        assert sp.gamma_det == pytest.approx(gamma, abs=1e-10)
        assert sp.gamma_det == pytest.approx(abs(oracles.det_cofactor(shifted)), abs=1e-10)


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
    assert zagreb_index(complete(4)) == 36
    assert zagreb_index(star(3)) == 12
    assert zagreb_index(Graph(3)) == 0


def test_two_s_values():
    assert two_s(complete(4), 0.5) == pytest.approx(3.0, abs=1e-12)
    assert two_s(star(3), 0.0) == pytest.approx(6.0, abs=1e-12)
    assert two_s(star(3), 0.5) == pytest.approx(2.25, abs=1e-12)


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
        diff = alpha_matrix(g, alpha).entries - alpha_matrix(delete_edge(g, *edge), alpha).entries
        eigs = np.sort(np.linalg.eigvalsh(diff))[::-1]
        expected = np.sort(np.array([1.0, 2 * alpha - 1.0] + [0.0] * (g.n - 2)))[::-1]
        assert np.allclose(eigs, expected, atol=1e-9)


def test_gamma_singular_shift_clamped():
    sp = alpha_spectrum(cycle(4), 0.5)
    assert np.allclose(sp.rho, [2.0, 1.0, 1.0, 0.0], atol=1e-10)
    assert sp.gamma_det == 0.0
    # Regular graph at alpha = 1: A_alpha = k*I, so every s_i is zero.
    assert alpha_spectrum(cycle(5), 1.0).gamma_det == 0.0


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
