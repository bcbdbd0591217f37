"""Independent oracles for the test suite.

Everything here deliberately avoids the package's own code: matrices are
built from edge lists, spectra come from LAPACK (numpy.linalg.eigvalsh) or,
independently of LAPACK, from a cyclic Jacobi sweep; characteristic
polynomials from the Faddeev-LeVerrier recursion, determinants from cofactor
expansion.
"""

from __future__ import annotations

import math

import numpy as np


def adjacency(g) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def alpha_matrix(g, alpha: float) -> np.ndarray:
    a = adjacency(g)
    return alpha * np.diag(a.sum(axis=1)) + (1.0 - alpha) * a


def alpha_eigs(g, alpha: float) -> np.ndarray:
    """Descending eigenvalues of alpha*D + (1-alpha)*A via LAPACK."""
    return np.sort(np.linalg.eigvalsh(alpha_matrix(g, alpha)))[::-1]


def energy(g, alpha: float) -> float:
    rho = alpha_eigs(g, alpha)
    shift = 2.0 * alpha * g.m / g.n
    return float(np.abs(rho - shift).sum())


def signless_energy(g) -> float:
    """Energy of D + A, computed without the package's alpha machinery."""
    a = adjacency(g)
    q = np.sort(np.linalg.eigvalsh(np.diag(a.sum(axis=1)) + a))
    return float(np.abs(q - 2.0 * g.m / g.n).sum())


def charpoly_coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - M), highest power first (Faddeev-LeVerrier)."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.eye(n)
    for k in range(1, n + 1):
        mk = m @ mk
        c = -np.trace(mk) / k
        coeffs[k] = c
        mk = mk + c * np.eye(n)
    return coeffs


def charpoly_eigs(m: np.ndarray) -> np.ndarray:
    """Descending real roots of the characteristic polynomial."""
    roots = np.roots(charpoly_coefficients(m))
    return np.sort(roots.real)[::-1]


def det_cofactor(m) -> float:
    """Recursive cofactor-expansion determinant; fine for tiny matrices."""
    rows = [list(map(float, row)) for row in m]
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1.0) ** j * rows[0][j] * det_cofactor(minor)
    return total


def jacobi_eigvals(m, rtol: float = 1e-14, max_sweeps: int = 100) -> np.ndarray:
    """Descending eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Uses no LAPACK routine, so it checks the package's solver independently.
    Rotations run in fixed row-major (p, q) order until the off-diagonal
    Frobenius norm falls below rtol * (1 + ||m||_F).
    """
    a = np.array(m, dtype=np.float64)
    n = a.shape[0]
    off = ~np.eye(n, dtype=bool)
    tol = rtol * (1.0 + math.sqrt(float(np.sum(a * a))))
    for _ in range(max_sweeps):
        if math.sqrt(float(np.sum(a[off] ** 2))) <= tol:
            return np.sort(np.diagonal(a))[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if apq == 0.0:
                    continue
                # Python floats: a huge theta becomes inf (t = 0), never a warning.
                theta = float(a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                rp, rq = a[p].copy(), a[q].copy()
                a[p], a[q] = c * rp - s * rq, s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p], a[:, q] = c * cp - s * cq, s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    raise AssertionError(f"Jacobi oracle did not converge in {max_sweeps} sweeps")


def energy_via_partial_sums(rho: np.ndarray, shift: float) -> float:
    """2 * max over j of (sum of the j largest eigenvalues minus j * shift).

    Tie-robust identity for the energy sum |rho_i - shift| when the
    eigenvalues sum to n * shift.
    """
    partial = np.cumsum(rho) - shift * np.arange(1, len(rho) + 1)
    return 2.0 * float(np.max(partial))
