"""Eigenvalues of dense real symmetric matrices.

`eigendecompose` hands one (n, n) matrix or a (k, n, n) stack straight to
LAPACK in one `numpy.linalg.eigvalsh` call and returns each slice's
eigenvalues, descending, without eigenvectors: nothing the package derives
reads them. It neither copies, checks nor symmetrises its input: every
matrix the package solves is built from a graph's 0/1 `Graph.adjacency`
and its degrees with alpha in [0, 1], so it is finite and exactly
symmetric, and `eigvalsh` reads one triangle anyway. A stacked solve gives
the same bits as one solve per slice.
"""

from __future__ import annotations

import numpy as np


class NoConvergenceError(RuntimeError):
    """LAPACK's symmetric eigensolver reported that it failed to converge."""


def eigendecompose(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix or stack via LAPACK: a read-only
    (n,) or (k, n) array, descending per slice. Raises NoConvergenceError if
    LAPACK fails."""
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    w = w[..., ::-1]
    w.setflags(write=False)
    return w
