import numpy as np
import pytest

import oracles
from alphaenergy.densela import NoConvergenceError, eigendecompose

K4_ADJ = np.ones((4, 4)) - np.eye(4)


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return (a + a.T) / 2.0


def test_scalar_matrix():
    assert eigendecompose(np.array([[5.0]])).tolist() == [5.0]


def test_identity_matrix():
    assert eigendecompose(np.eye(3)).tolist() == [1.0, 1.0, 1.0]


def test_k4_adjacency_spectrum():
    w = eigendecompose(K4_ADJ)
    assert np.allclose(w, [3.0, -1.0, -1.0, -1.0], atol=1e-12)


def test_eigenvalues_sorted_descending():
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert np.all(np.diff(eigendecompose(random_symmetric(rng, 9))) <= 0)


def test_eigenvalue_residuals():
    # Each eigenvalue makes M - lambda*I singular up to rounding.
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(2, 16))
        m = random_symmetric(rng, n, scale=float(rng.uniform(0.5, 10.0)))
        fro = np.linalg.norm(m)
        for lam in eigendecompose(m):
            assert oracles.eigenvalue_residual(m, lam) <= 1e-10 * (1 + fro)


def test_matches_jacobi_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = random_symmetric(rng, int(rng.integers(1, 12)))
        assert oracles.spectra_agree(eigendecompose(m), oracles.jacobi_eigvals(m), m, 1e-11)
    # Repeated eigenvalues and a matrix that is already diagonal.
    for a in (K4_ADJ, np.diag([2.0, -1.0, 2.0, 0.0])):
        got = eigendecompose(a)
        assert oracles.spectra_agree(got, oracles.jacobi_eigvals(a), a, 1e-13)


def test_deterministic_bitwise():
    rng = np.random.default_rng(29)
    m = random_symmetric(rng, 10)
    a = eigendecompose(m)
    b = eigendecompose(m)
    assert a.tobytes() == b.tobytes()


def test_trace_identity():
    rng = np.random.default_rng(31)
    for _ in range(15):
        m = random_symmetric(rng, int(rng.integers(1, 14)))
        trace = float(np.trace(m))
        assert abs(float(eigendecompose(m).sum()) - trace) <= 1e-9 * (1 + abs(trace))


def test_frobenius_identity():
    rng = np.random.default_rng(37)
    for _ in range(15):
        m = random_symmetric(rng, int(rng.integers(1, 14)))
        fro2 = float(np.sum(m**2))
        assert abs(float(np.sum(eigendecompose(m)**2)) - fro2) <= 1e-9 * (1 + fro2)


def test_weyl_inequalities():
    # e_k(X+Y) <= e_j(X) + e_{k-j+1}(Y) for j <= k, on random pairs.
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        x = random_symmetric(rng, n)
        y = random_symmetric(rng, n)
        z = x + y
        ex = eigendecompose(x)
        ey = eigendecompose(y)
        ez = eigendecompose(z)
        for k in range(n):
            for j in range(k + 1):
                assert ez[k] <= ex[j] + ey[k - j] + 1e-9


def shifted_abs_det(m, shift):
    """|det(m - shift*I)| as the product of shifted eigenvalues, the form
    AlphaSpectrum.gamma_det takes."""
    return abs(float(np.prod(eigendecompose(m) - shift)))


def test_shifted_abs_determinant_k4():
    assert shifted_abs_det(K4_ADJ, 0.0) == pytest.approx(3.0, abs=1e-10)
    assert shifted_abs_det(K4_ADJ, 0.0) == pytest.approx(
        abs(oracles.det_cofactor(K4_ADJ)), abs=1e-10
    )


def test_shifted_abs_determinant_singular_shift():
    assert shifted_abs_det(np.eye(5), 1.0) == pytest.approx(0.0, abs=1e-12)


def test_shifted_abs_determinant_alpha_half_k4():
    a_half = 0.5 * 3.0 * np.eye(4) + 0.5 * K4_ADJ
    got = shifted_abs_det(a_half, 1.5)
    assert got == pytest.approx(0.1875, abs=1e-12)
    shifted = a_half - 1.5 * np.eye(4)
    assert got == pytest.approx(abs(oracles.det_cofactor(shifted)), abs=1e-12)


def test_stack_solve_matches_per_slice_bitwise():
    rng = np.random.default_rng(43)
    for n in (1, 2, 7, 20):
        slices = [random_symmetric(rng, n) for _ in range(5)]
        stacked = eigendecompose(np.stack(slices))
        assert stacked.shape == (5, n)
        for i, m in enumerate(slices):
            assert stacked[i].tobytes() == eigendecompose(m).tobytes()
            assert np.all(np.diff(stacked[i]) <= 0)


def test_tiny_asymmetry_tolerated():
    # eigvalsh reads one triangle: a tiny asymmetry moves the spectrum by at most its size.
    a = np.array([[1.0, 2.0], [2.0 + 5e-13, 1.0]])
    assert np.allclose(eigendecompose(a), [3.0, -1.0], atol=1e-9)


def test_no_convergence_raises(monkeypatch):
    def failing_eigvalsh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        eigendecompose(K4_ADJ)


def test_entries_are_readonly():
    # The eigenvalue arrays, single and stacked, cannot be written.
    for w in (eigendecompose(np.eye(3)), eigendecompose(np.stack([np.eye(3)] * 2))):
        assert isinstance(w, np.ndarray) and not w.flags.writeable
        with pytest.raises(ValueError):
            w[..., 0] = 0.0
