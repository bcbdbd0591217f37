"""Convex-combination adjacency/degree matrices, their spectra, and the
scalar invariants the bound verdicts consume.

For a graph with adjacency A and degree matrix D, the matrix under study is
alpha*D + (1-alpha)*A. Its eigenvalues rho_i (descending), centered copies
s_i = rho_i - 2*alpha*m/n, and the derived scalars (energy, eta, 2S, the
shifted determinant Gamma, theta) are packed into one AlphaSpectrum record.

What depends on the graph alone (order, size, degrees, Zagreb index,
connectivity, adjacency spectrum and inertia, complete/regular/star flags)
lives in one GraphInvariants record, built once per graph and shared by all
its AlphaSpectrum records. `graph_spectra` solves a graph's whole alpha list,
plus alpha = 0 for the adjacency spectrum when the list lacks it, in one
stacked LAPACK call (`densela.eigendecompose`) for eigenvalues only. The
stacked solve gives the same bits as one solve per alpha, and repeated runs
with the same numpy/LAPACK build give bit-identical spectra; another build
may differ in the last few digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densela, graphcore
from .densela import SymmetricMatrix
from .graphcore import Graph

SHIFT_TIE_TOL = 1e-9     # eigenvalues within this of the shift count as >=
SINGULAR_SHIFT_TOL = 1e-10  # any |rho_i - shift| below this zeroes gamma_det
INERTIA_TOL = 1e-9       # adjacency eigenvalues within this of 0 count as zero


class AlphaOutOfRangeError(ValueError):
    """alpha outside the closed interval [0, 1]."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRangeError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


@dataclass(frozen=True)
class GraphInvariants:
    """Everything the bound verdicts read that depends on the graph alone."""

    n: int
    m: int
    degrees: np.ndarray                  # per vertex, read-only
    degree_sequence: tuple[int, ...]     # non-increasing
    zagreb: int                          # sum of squared degrees
    connected: bool
    adjacency_eigenvalues: np.ndarray    # descending
    adjacency_inertia: tuple[int, int, int]  # (positive, zero, negative) counts
    is_complete: bool
    is_regular: bool
    is_star: bool


@dataclass(frozen=True)
class AlphaSpectrum:
    """Spectrum of alpha*D + (1-alpha)*A plus every derived scalar."""

    alpha: float
    graph: GraphInvariants
    rho: np.ndarray          # eigenvalues, descending
    shift: float             # 2*alpha*m/n, the eigenvalue mean
    s: np.ndarray            # rho - shift; sums to zero
    energy: float            # sum |s_i|
    eta: int                 # count of rho_i >= shift (tolerance SHIFT_TIE_TOL)
    two_s: float             # sum s_i^2, via the degree closed form
    gamma_det: float         # |prod s_i|, clamped to 0 near a singular shift
    theta: float             # sqrt(Zg/n) - shift

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def zagreb(self) -> int:
        return self.graph.zagreb

    @property
    def connected(self) -> bool:
        return self.graph.connected


def _stack(a: np.ndarray, d: np.ndarray, alphas) -> np.ndarray:
    """(k, n, n) array of alpha*D + (1-alpha)*A, one slice per checked alpha."""
    al = np.array(alphas, dtype=np.float64)[:, None, None]
    return al * np.diag(d.astype(np.float64)) + (1.0 - al) * a


def alpha_matrices(g: Graph, alphas) -> SymmetricMatrix:
    """alpha*D + (1-alpha)*A for each alpha, as one (k, n, n) stack."""
    a = graphcore.adjacency_matrix(g).entries
    return SymmetricMatrix(_stack(a, g.degrees(), [_check_alpha(x) for x in alphas]))


def alpha_matrix(g: Graph, alpha: float) -> SymmetricMatrix:
    """alpha*D + (1-alpha)*A as a dense symmetric matrix."""
    return SymmetricMatrix(alpha_matrices(g, [alpha]).entries[0])


def _two_s(d: np.ndarray, n: int, m: int, alpha: float) -> float:
    """(1-alpha)^2 * 2m plus the squared deviation of alpha-scaled degrees
    from their mean; equals the sum of squared centered eigenvalues."""
    d = d.astype(np.float64)
    mean = 2.0 * alpha * m / n
    return float((1.0 - alpha) ** 2 * 2.0 * m + np.sum((alpha * d - mean) ** 2))


def _spectrum(inv: GraphInvariants, alpha: float, rho: np.ndarray) -> AlphaSpectrum:
    shift = 2.0 * alpha * inv.m / inv.n
    s = rho - shift
    s.setflags(write=False)
    if float(np.min(np.abs(s))) < SINGULAR_SHIFT_TOL:
        gamma = 0.0
    else:
        gamma = abs(float(np.prod(s)))
    return AlphaSpectrum(
        alpha=alpha,
        graph=inv,
        rho=rho,
        shift=shift,
        s=s,
        energy=float(np.sum(np.abs(s))),
        eta=int(np.sum(rho >= shift - SHIFT_TIE_TOL)),
        two_s=_two_s(inv.degrees, inv.n, inv.m, alpha),
        gamma_det=gamma,
        theta=math.sqrt(inv.zagreb / inv.n) - shift,
    )


def graph_spectra(g: Graph, alphas) -> tuple[AlphaSpectrum, ...]:
    """One AlphaSpectrum per alpha, in order, all sharing one GraphInvariants.

    The alpha matrices, and the adjacency matrix when alpha = 0 is not in
    the list, are solved in one stacked LAPACK call.
    """
    alphas = [_check_alpha(x) for x in alphas]
    grid = alphas if 0.0 in alphas else alphas + [0.0]
    d = g.degrees()
    a = graphcore.adjacency_matrix(g).entries
    rho = densela.eigendecompose(SymmetricMatrix(_stack(a, d, grid)))
    seq = g.degree_sequence
    adj = rho[grid.index(0.0)]
    pos = int(np.sum(adj > INERTIA_TOL))
    neg = int(np.sum(adj < -INERTIA_TOL))
    inv = GraphInvariants(
        n=g.n,
        m=g.m,
        degrees=d,
        degree_sequence=seq,
        zagreb=int(np.sum(d * d)),
        connected=graphcore.is_connected(g),
        adjacency_eigenvalues=adj,
        adjacency_inertia=(pos, g.n - pos - neg, neg),
        is_complete=g.m == g.n * (g.n - 1) // 2,
        is_regular=seq[0] == seq[-1],
        is_star=g.m == g.n - 1 and seq[0] == g.n - 1,
    )
    return tuple(_spectrum(inv, alpha, r) for alpha, r in zip(alphas, rho))


def alpha_spectrum(g: Graph, alpha: float) -> AlphaSpectrum:
    """Eigenvalues of alpha*D + (1-alpha)*A and every derived field."""
    return graph_spectra(g, [alpha])[0]
