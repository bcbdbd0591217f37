"""Dense real symmetric matrices and their eigenvalues.

`SymmetricMatrix` holds one (n, n) matrix or a (k, n, n) stack of them. It
validates every slice once (square, finite, symmetric within SYMMETRY_ATOL)
and freezes the entries. `eigendecompose` hands the symmetrised matrix or
stack to LAPACK in one `numpy.linalg.eigvalsh` call and returns each slice's
eigenvalues, descending, without eigenvectors: nothing the package derives
reads them. A stacked solve gives the same bits as one solve per slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_ATOL = 1e-12


class NonSymmetricError(ValueError):
    """Input matrix is not square, not finite, or not symmetric within tolerance."""


class NoConvergenceError(RuntimeError):
    """LAPACK's symmetric eigensolver reported that it failed to converge."""


def _first_bad(per_slice: np.ndarray) -> str:
    """'matrix' or 'slice i of the stack', naming the first flagged slice."""
    if per_slice.ndim == 0:
        return "matrix"
    return f"slice {int(np.argmax(per_slice))} of the stack"


@dataclass(frozen=True)
class SymmetricMatrix:
    """Immutable dense real symmetric matrix, or a (k, n, n) stack of them."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.float64)
        if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or 0 in a.shape:
            raise NonSymmetricError(
                f"expected a square matrix or a stack of them, got shape {a.shape}"
            )
        # Before the symmetry test: NaN compares false against any tolerance.
        finite = np.all(np.isfinite(a), axis=(-2, -1))
        if not np.all(finite):
            raise NonSymmetricError(f"{_first_bad(~finite)} has non-finite entries")
        skew = np.max(np.abs(a - a.swapaxes(-2, -1)), axis=(-2, -1))
        if np.any(skew > SYMMETRY_ATOL):
            raise NonSymmetricError(
                f"{_first_bad(skew > SYMMETRY_ATOL)} is not symmetric within "
                f"{SYMMETRY_ATOL:g} absolute"
            )
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)


def eigendecompose(m: SymmetricMatrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix or stack via LAPACK: a read-only
    (n,) or (k, n) array, descending per slice. Raises NoConvergenceError if
    LAPACK fails."""
    a = m.entries
    try:
        w = np.linalg.eigvalsh((a + a.swapaxes(-2, -1)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    w = w[..., ::-1]
    w.setflags(write=False)
    return w
