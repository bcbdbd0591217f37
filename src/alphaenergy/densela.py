"""Dense real symmetric matrices and their eigendecomposition.

`SymmetricMatrix` validates its entries once (square, finite, symmetric
within SYMMETRY_ATOL) and freezes them. `eigendecompose` hands the
symmetrised matrix to LAPACK through `numpy.linalg.eigh` and returns the
eigenvalues in descending order with their eigenvectors as paired columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_ATOL = 1e-12


class NonSymmetricError(ValueError):
    """Input matrix is not square, not finite, or not symmetric within tolerance."""


class NoConvergenceError(RuntimeError):
    """LAPACK's symmetric eigensolver reported that it failed to converge."""


@dataclass(frozen=True)
class SymmetricMatrix:
    """Immutable dense real symmetric matrix."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise NonSymmetricError(f"expected a square matrix, got shape {a.shape}")
        # Before the symmetry test: NaN compares false against any tolerance.
        if not np.all(np.isfinite(a)):
            raise NonSymmetricError("matrix has non-finite entries")
        if a.shape[0] > 1 and float(np.max(np.abs(a - a.T))) > SYMMETRY_ATOL:
            raise NonSymmetricError(
                f"matrix is not symmetric within {SYMMETRY_ATOL:g} absolute"
            )
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending with column-paired orthogonal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigendecompose(m: SymmetricMatrix) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix via LAPACK.

    Eigenvalues come out descending, column i of the eigenvectors paired
    with eigenvalue i. Raises NoConvergenceError if LAPACK fails.
    """
    a = m.entries
    try:
        w, v = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    w = w[::-1]
    v = v[:, ::-1]
    w.setflags(write=False)
    v.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)
