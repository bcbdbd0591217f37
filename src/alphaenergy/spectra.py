"""Convex-combination adjacency/degree matrices, their spectra, and the
scalar invariants the bound verdicts consume.

For a graph with adjacency A and degree matrix D, the matrix under study is
alpha*D + (1-alpha)*A. Its eigenvalues rho_i (descending), centered copies
s_i = rho_i - 2*alpha*m/n, and the derived scalars (energy, eta, 2S, the
shifted determinant Gamma, theta) are packed into one AlphaSpectrum record.

What depends on the graph alone (adjacency matrix, degrees, Zagreb index,
connectivity, adjacency inertia, complete/regular/star flags) is cached on
the `Graph` itself, which every AlphaSpectrum of that graph holds.
`graph_spectra` builds a graph's whole alpha list from the cached adjacency
with `alpha_matrices` as one plain (k, n, n) array, solves that array as it
stands in one stacked LAPACK call (`densela.eigendecompose`) for eigenvalues
only, and derives each scalar with one reduction along the rows of that
solve. A stacked solve gives the same bits as one solve per alpha, and
repeated runs with the same numpy/LAPACK build give bit-identical spectra;
another build may differ in the last few digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import densela
from .graphcore import Graph

SHIFT_TIE_TOL = 1e-9     # eigenvalues within this of the shift count as >=
SINGULAR_SHIFT_TOL = 1e-10  # any |rho_i - shift| below this zeroes gamma_det


class AlphaOutOfRangeError(ValueError):
    """alpha outside the closed interval [0, 1]."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRangeError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


@dataclass(frozen=True)
class AlphaSpectrum:
    """Spectrum of alpha*D + (1-alpha)*A plus every derived scalar."""

    alpha: float
    graph: Graph
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


def alpha_matrices(g: Graph, alphas) -> np.ndarray:
    """alpha*D + (1-alpha)*A for each alpha, as one fresh float64 (k, n, n)
    stack: finite and exactly symmetric, since both terms are."""
    al = np.array([_check_alpha(x) for x in alphas], dtype=np.float64)[:, None, None]
    d = np.diag(g.degrees().astype(np.float64))
    return al * d + (1.0 - al) * g.adjacency


def graph_spectra(g: Graph, alphas) -> tuple[AlphaSpectrum, ...]:
    """One AlphaSpectrum per alpha, in order, all holding `g`.

    The alpha matrices are solved in one stacked LAPACK call, and each
    derived scalar is one reduction along the rows of that solve.
    """
    alphas = list(alphas)
    if not alphas:
        return ()
    rho = densela.eigendecompose(alpha_matrices(g, alphas))  # checks each alpha
    d = g.degrees()
    al = np.array(alphas, dtype=np.float64)
    shift = 2.0 * al * g.m / g.n
    s = rho - shift[:, None]
    s.setflags(write=False)
    abs_s = np.abs(s)
    gamma = np.where(np.min(abs_s, axis=1) < SINGULAR_SHIFT_TOL, 0.0, np.abs(np.prod(s, axis=1)))
    # 2S by the degree closed form: (1-alpha)^2 * 2m plus the squared
    # deviation of the alpha-scaled degrees from their mean, the shift.
    # float_power squares through C pow, as Python does for one alpha.
    two_s = (np.float_power(1.0 - al, 2) * 2.0 * g.m
             + np.sum((al[:, None] * d - shift[:, None]) ** 2, axis=1))
    return tuple(AlphaSpectrum(alpha, g, *row) for alpha, *row in zip(
        al.tolist(), rho, shift.tolist(), s, np.sum(abs_s, axis=1).tolist(),
        np.sum(rho >= (shift - SHIFT_TIE_TOL)[:, None], axis=1).tolist(),
        two_s.tolist(), gamma.tolist(), (math.sqrt(g.zagreb / g.n) - shift).tolist(),
    ))
