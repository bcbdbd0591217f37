"""Convex-combination adjacency/degree matrices, their spectra, and the
scalar invariants the bound verdicts consume.

For a graph with adjacency A and degree matrix D, the matrix under study is
alpha*D + (1-alpha)*A. Its eigenvalues rho_i (descending), centered copies
s_i = rho_i - 2*alpha*m/n, and the derived scalars (energy, eta, 2S, the
shifted determinant Gamma, theta, Zagreb index) are packed into one record.

The eigenvalues come from one LAPACK solve (`densela.eigendecompose`) per
(graph, alpha). Repeated runs with the same numpy/LAPACK build give
bit-identical spectra; another build may differ in the last few digits.
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
    n: int
    m: int
    rho: np.ndarray          # eigenvalues, descending
    shift: float             # 2*alpha*m/n, the eigenvalue mean
    s: np.ndarray            # rho - shift; sums to zero
    energy: float            # sum |s_i|
    eta: int                 # count of rho_i >= shift (tolerance SHIFT_TIE_TOL)
    two_s: float             # sum s_i^2, via the degree closed form
    gamma_det: float         # |prod s_i|, clamped to 0 near a singular shift
    theta: float             # sqrt(Zg/n) - shift
    zagreb: int              # sum of squared degrees
    connected: bool


def alpha_matrix(g: Graph, alpha: float) -> SymmetricMatrix:
    """alpha*D + (1-alpha)*A as a dense symmetric matrix."""
    alpha = _check_alpha(alpha)
    a = graphcore.adjacency_matrix(g).entries
    d = g.degrees().astype(np.float64)
    return SymmetricMatrix(alpha * np.diag(d) + (1.0 - alpha) * a)


def zagreb_index(g: Graph) -> int:
    """Sum of squared vertex degrees."""
    d = g.degrees()
    return int(np.sum(d * d))


def two_s(g: Graph, alpha: float) -> float:
    """(1-alpha)^2 * 2m plus the squared deviation of alpha-scaled degrees
    from their mean; equals the sum of squared centered eigenvalues."""
    alpha = _check_alpha(alpha)
    d = g.degrees().astype(np.float64)
    mean = 2.0 * alpha * g.m / g.n
    return float((1.0 - alpha) ** 2 * 2.0 * g.m + np.sum((alpha * d - mean) ** 2))


def alpha_spectrum(g: Graph, alpha: float) -> AlphaSpectrum:
    """Eigendecompose alpha*D + (1-alpha)*A and populate every derived field."""
    alpha = _check_alpha(alpha)
    dec = densela.eigendecompose(alpha_matrix(g, alpha))
    rho = dec.eigenvalues
    shift = 2.0 * alpha * g.m / g.n
    s = rho - shift
    s.setflags(write=False)
    if float(np.min(np.abs(s))) < SINGULAR_SHIFT_TOL:
        gamma = 0.0
    else:
        gamma = abs(float(np.prod(s)))
    zg = zagreb_index(g)
    return AlphaSpectrum(
        alpha=alpha,
        n=g.n,
        m=g.m,
        rho=rho,
        shift=shift,
        s=s,
        energy=float(np.sum(np.abs(s))),
        eta=int(np.sum(rho >= shift - SHIFT_TIE_TOL)),
        two_s=two_s(g, alpha),
        gamma_det=gamma,
        theta=math.sqrt(zg / g.n) - shift,
        zagreb=zg,
        connected=graphcore.is_connected(g),
    )
