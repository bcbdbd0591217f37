import numpy as np
import pytest

import oracles
from alphaenergy.densela import (
    EigenDecomposition,
    NoConvergenceError,
    NonSymmetricError,
    SymmetricMatrix,
    eigendecompose,
)

K4_ADJ = np.ones((4, 4)) - np.eye(4)


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(size=(n, n)) * scale
    return SymmetricMatrix((a + a.T) / 2.0)


def test_scalar_matrix():
    dec = eigendecompose(SymmetricMatrix([[5.0]]))
    assert dec.eigenvalues.tolist() == [5.0]


def test_identity_matrix():
    dec = eigendecompose(SymmetricMatrix(np.eye(3)))
    assert dec.eigenvalues.tolist() == [1.0, 1.0, 1.0]


def test_k4_adjacency_spectrum():
    dec = eigendecompose(SymmetricMatrix(K4_ADJ))
    assert np.allclose(dec.eigenvalues, [3.0, -1.0, -1.0, -1.0], atol=1e-12)


def test_eigenvalues_sorted_descending():
    rng = np.random.default_rng(5)
    for _ in range(10):
        dec = eigendecompose(random_symmetric(rng, 9))
        assert np.all(np.diff(dec.eigenvalues) <= 0)


def test_reconstruction_and_orthogonality():
    rng = np.random.default_rng(11)
    for _ in range(12):
        n = int(rng.integers(2, 16))
        m = random_symmetric(rng, n, scale=float(rng.uniform(0.5, 10.0)))
        dec = eigendecompose(m)
        v, w = dec.eigenvectors, dec.eigenvalues
        fro = np.linalg.norm(m.entries)
        recon = np.linalg.norm(m.entries - v @ np.diag(w) @ v.T)
        assert recon <= 1e-10 * (1 + fro)
        assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-10 * n


def test_matches_jacobi_oracle():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = random_symmetric(rng, int(rng.integers(1, 12)))
        dec = eigendecompose(m)
        assert np.allclose(dec.eigenvalues, oracles.jacobi_eigvals(m.entries),
                           atol=1e-10)
    # Repeated eigenvalues and a matrix that is already diagonal.
    for a in (K4_ADJ, np.diag([2.0, -1.0, 2.0, 0.0])):
        got = eigendecompose(SymmetricMatrix(a)).eigenvalues
        assert np.allclose(got, oracles.jacobi_eigvals(a), atol=1e-12)


def test_deterministic_bitwise():
    rng = np.random.default_rng(29)
    m = random_symmetric(rng, 10)
    a = eigendecompose(m)
    b = eigendecompose(m)
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


def test_trace_identity():
    rng = np.random.default_rng(31)
    for _ in range(15):
        m = random_symmetric(rng, int(rng.integers(1, 14)))
        dec = eigendecompose(m)
        trace = float(np.trace(m.entries))
        assert abs(float(dec.eigenvalues.sum()) - trace) <= 1e-9 * (1 + abs(trace))


def test_frobenius_identity():
    rng = np.random.default_rng(37)
    for _ in range(15):
        m = random_symmetric(rng, int(rng.integers(1, 14)))
        dec = eigendecompose(m)
        fro2 = float(np.sum(m.entries**2))
        assert abs(float(np.sum(dec.eigenvalues**2)) - fro2) <= 1e-9 * (1 + fro2)


def test_weyl_inequalities():
    # e_k(X+Y) <= e_j(X) + e_{k-j+1}(Y) for j <= k, on random pairs.
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        x = random_symmetric(rng, n)
        y = random_symmetric(rng, n)
        z = SymmetricMatrix(x.entries + y.entries)
        ex = eigendecompose(x).eigenvalues
        ey = eigendecompose(y).eigenvalues
        ez = eigendecompose(z).eigenvalues
        for k in range(n):
            for j in range(k + 1):
                assert ez[k] <= ex[j] + ey[k - j] + 1e-9


def shifted_abs_det(m, shift):
    """|det(m - shift*I)| as the product of shifted eigenvalues, the form
    AlphaSpectrum.gamma_det takes."""
    return abs(float(np.prod(eigendecompose(m).eigenvalues - shift)))


def test_shifted_abs_determinant_k4():
    m = SymmetricMatrix(K4_ADJ)
    assert shifted_abs_det(m, 0.0) == pytest.approx(3.0, abs=1e-10)
    assert shifted_abs_det(m, 0.0) == pytest.approx(
        abs(oracles.det_cofactor(K4_ADJ)), abs=1e-10
    )


def test_shifted_abs_determinant_singular_shift():
    assert shifted_abs_det(SymmetricMatrix(np.eye(5)), 1.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_shifted_abs_determinant_alpha_half_k4():
    a_half = 0.5 * 3.0 * np.eye(4) + 0.5 * K4_ADJ
    got = shifted_abs_det(SymmetricMatrix(a_half), 1.5)
    assert got == pytest.approx(0.1875, abs=1e-12)
    shifted = a_half - 1.5 * np.eye(4)
    assert got == pytest.approx(abs(oracles.det_cofactor(shifted)), abs=1e-12)


def test_nonsymmetric_rejected():
    with pytest.raises(NonSymmetricError):
        SymmetricMatrix([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(NonSymmetricError):
        SymmetricMatrix(np.zeros((2, 3)))


def _stack_with(bad_slice):
    """Three 2x2 identity slices with the middle one replaced."""
    stack = np.stack([np.eye(2)] * 3)
    stack[1] = bad_slice
    return stack


@pytest.mark.parametrize("matrices, match", [
    pytest.param([[[bad]], [[0.0, bad], [bad, 0.0]], [[1.0, 2.0], [2.0, bad]]],
                 "non-finite", id=str(bad))
    for bad in (np.nan, np.inf, -np.inf)
] + [
    pytest.param([_stack_with([[0.0, np.nan], [np.nan, 0.0]])],
                 "slice 1 of the stack has non-finite", id="nan-slice"),
    pytest.param([_stack_with([[0.0, 1.0], [0.5, 0.0]])],
                 "slice 1 of the stack is not symmetric", id="asymmetric-slice"),
])
def test_non_finite_rejected(matrices, match):
    for m in matrices:
        with pytest.raises(NonSymmetricError, match=match):
            SymmetricMatrix(m)


def test_stack_shapes_rejected():
    for shape in ((2, 2, 3), (0, 2, 2), (2, 2, 2, 2), (3,)):
        with pytest.raises(NonSymmetricError, match="square"):
            SymmetricMatrix(np.zeros(shape))


def test_stack_solve_matches_per_slice_bitwise():
    rng = np.random.default_rng(43)
    for n in (1, 2, 7, 20):
        slices = [random_symmetric(rng, n) for _ in range(5)]
        stacked = eigendecompose(SymmetricMatrix(np.stack([m.entries for m in slices])))
        assert stacked.eigenvalues.shape == (5, n)
        assert stacked.eigenvectors.shape == (5, n, n)
        for i, m in enumerate(slices):
            one = eigendecompose(m)
            assert stacked.eigenvalues[i].tobytes() == one.eigenvalues.tobytes()
            assert stacked.eigenvectors[i].tobytes() == one.eigenvectors.tobytes()
            assert np.all(np.diff(stacked.eigenvalues[i]) <= 0)


def test_tiny_asymmetry_tolerated():
    a = np.array([[1.0, 2.0], [2.0 + 5e-13, 1.0]])
    dec = eigendecompose(SymmetricMatrix(a))
    assert np.allclose(dec.eigenvalues, [3.0, -1.0], atol=1e-9)


def test_no_convergence_raises(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        eigendecompose(SymmetricMatrix(K4_ADJ))


def test_entries_are_readonly():
    m = SymmetricMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 2.0
    dec = eigendecompose(m)
    assert isinstance(dec, EigenDecomposition)
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 0.0
