"""Convex-combination adjacency/degree matrices, their spectra, and the
scalar invariants the bound verdicts consume.

For a graph with adjacency A and degree matrix D, the matrix under study is
alpha*D + (1-alpha)*A. Its eigenvalues rho_i (descending), centered copies
s_i = rho_i - 2*alpha*m/n, and the derived scalars (energy, eta, 2S, the
shifted determinant Gamma, theta) are packed into one AlphaSpectrum record.

What depends on the graph alone (order, size, degrees, Zagreb index,
connectivity, adjacency spectrum and inertia, complete/regular/star flags)
lives in one GraphInvariants record, built once per graph and shared by all
its AlphaSpectrum records. `graph_spectra` solves a graph's whole alpha list
in one stacked LAPACK call (`densela.eigendecompose`) for eigenvalues only,
and derives each scalar with one reduction along the rows of that solve. The
adjacency spectrum is its alpha = 0 slice, or, when the list lacks 0, is
solved on the first read of `adjacency_eigenvalues` or `adjacency_inertia`.
A stacked solve gives the same bits as one solve per alpha, and repeated
runs with the same numpy/LAPACK build give bit-identical spectra; another
build may differ in the last few digits.
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


class _AdjacencySlice:
    """A GraphInvariants field left None by `graph_spectra` when the alpha
    list lacks 0, and computed on first read."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, inv, owner=None):
        if inv is not None and inv.__dict__[self.name] is None:
            inv.__dict__[self.name] = self.compute(inv)
        return None if inv is None else inv.__dict__[self.name]  # None: field default

    def __set__(self, inv, value):
        inv.__dict__[self.name] = value


def _inertia(inv: GraphInvariants) -> tuple[int, int, int]:
    adj = inv.adjacency_eigenvalues
    pos, neg = int(np.sum(adj > INERTIA_TOL)), int(np.sum(adj < -INERTIA_TOL))
    return (pos, inv.n - pos - neg, neg)


@dataclass(frozen=True)
class GraphInvariants:
    """Everything the bound verdicts read that depends on the graph alone."""

    n: int
    m: int
    degrees: np.ndarray                  # per vertex, read-only
    degree_sequence: tuple[int, ...]     # non-increasing
    zagreb: int                          # sum of squared degrees
    connected: bool
    adjacency: np.ndarray                # 0/1 matrix, read-only
    is_complete: bool
    is_regular: bool
    is_star: bool
    adjacency_eigenvalues: np.ndarray = _AdjacencySlice(  # descending
        lambda inv: densela.eigendecompose(SymmetricMatrix(inv.adjacency)))
    adjacency_inertia: tuple[int, int, int] = _AdjacencySlice(_inertia)  # (+, 0, -) counts


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


def graph_spectra(g: Graph, alphas) -> tuple[AlphaSpectrum, ...]:
    """One AlphaSpectrum per alpha, in order, all sharing one GraphInvariants.

    The alpha matrices are solved in one stacked LAPACK call, and each
    derived scalar is one reduction along the rows of that solve.
    """
    alphas = [_check_alpha(x) for x in alphas]
    if not alphas:
        return ()
    d = g.degrees()
    a = graphcore.adjacency_matrix(g).entries
    rho = densela.eigendecompose(SymmetricMatrix(_stack(a, d, alphas)))
    seq = g.degree_sequence
    inv = GraphInvariants(
        n=g.n,
        m=g.m,
        degrees=d,
        degree_sequence=seq,
        zagreb=int(np.sum(d * d)),
        connected=graphcore.is_connected(g),
        adjacency=a,
        is_complete=g.m == g.n * (g.n - 1) // 2,
        is_regular=seq[0] == seq[-1],
        is_star=g.m == g.n - 1 and seq[0] == g.n - 1,
        adjacency_eigenvalues=rho[alphas.index(0.0)] if 0.0 in alphas else None,
    )
    al = np.array(alphas)
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
    return tuple(AlphaSpectrum(alpha, inv, *row) for alpha, *row in zip(
        alphas, rho, shift.tolist(), s, np.sum(abs_s, axis=1).tolist(),
        np.sum(rho >= (shift - SHIFT_TIE_TOL)[:, None], axis=1).tolist(),
        two_s.tolist(), gamma.tolist(), (math.sqrt(inv.zagreb / inv.n) - shift).tolist(),
    ))


def alpha_spectrum(g: Graph, alpha: float) -> AlphaSpectrum:
    """Eigenvalues of alpha*D + (1-alpha)*A and every derived field."""
    return graph_spectra(g, [alpha])[0]
