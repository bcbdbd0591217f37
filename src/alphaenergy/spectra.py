"""Convex-combination adjacency/degree matrices, their spectra, and the
scalar invariants the bound verdicts consume, as columns over a call's rows.

For a graph with adjacency A and degree matrix D, the matrix under study is
alpha*D + (1-alpha)*A. Its eigenvalues rho_i (descending), centered copies
s_i = rho_i - 2*alpha*m/n, and the derived scalars (energy, eta, 2S,
log Gamma = sum log|s_i| for the shifted determinant Gamma = |prod s_i|,
theta) are what the bounds read.

Whether the shift is singular is decided here and nowhere else: a row with
some |s_i| below `SINGULAR_SHIFT_TOL` has log Gamma = -inf. Carrying the
logarithm keeps Gamma's range: the product itself overflows a float64 on a
dense graph of a few hundred vertices and can underflow while every |s_i|
is far from zero.

`spectrum_tables` is the one solve path. It takes (graphs, alphas) groups,
one `SpectrumTable` each, with rows graph-major then alpha. It builds the
alpha matrices of every row of one order into one plain (rows, n, n) stack,
in chunks of whole graphs of at most `STACK_ENTRIES` matrix entries, and
solves each chunk in one LAPACK call (`densela.eigendecompose`) for
eigenvalues only. Every scalar is one reduction along the rows of that
solve, so a call pays one eigensolve per order and chunk, whichever groups
its rows come from. A row's reductions read that row alone, so they give the
same bits however the rows are stacked; repeated runs with the same
numpy/LAPACK build give bit-identical spectra, another build may differ in
the last few digits.

A table hands the bound pass its `Columns`; an `AlphaSpectrum` record is
built only for a row that is asked for by index (`graph_spectra` and
certificates), and only there is Gamma itself formed. What depends on the
graph alone (adjacency matrix, degrees, Zagreb index, connectivity, common
neighbours, adjacency inertia, complete/regular/star flags) is cached on the
`Graph` itself.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

from . import densela
from .graphcore import Graph

SHIFT_TIE_TOL = 1e-9     # eigenvalues within this of the shift count as >=
SINGULAR_SHIFT_TOL = 1e-10  # any |rho_i - shift| below this makes log_gamma -inf
# Matrix entries in one stacked solve (8 MB of float64). A graph's alpha list
# is never split, so one graph's stack may exceed it.
STACK_ENTRIES = 1 << 20


class AlphaOutOfRangeError(ValueError):
    """alpha outside the closed interval [0, 1]."""


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRangeError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


class AlphaSpectrum:
    """Spectrum of alpha*D + (1-alpha)*A plus every derived scalar."""

    __slots__ = ("alpha", "graph", "rho", "shift", "s", "energy", "eta", "two_s", "gamma_det",
                 "theta")

    def __init__(self, alpha: float, graph: Graph, rho: np.ndarray, shift: float,
                 s: np.ndarray, energy: float, eta: int, two_s: float, gamma_det: float,
                 theta: float):
        self.alpha = alpha
        self.graph = graph
        self.rho = rho              # eigenvalues, descending
        self.shift = shift          # 2*alpha*m/n, the eigenvalue mean
        self.s = s                  # rho - shift; sums to zero
        self.energy = energy        # sum |s_i|
        self.eta = eta              # count of rho_i >= shift (tolerance SHIFT_TIE_TOL)
        self.two_s = two_s          # sum s_i^2, via the degree closed form
        self.gamma_det = gamma_det  # |prod s_i|: 0 at a singular shift, inf on overflow
        self.theta = theta          # sqrt(Zg/n) - shift

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


# The scalars the bound table reads, one entry per (graph, alpha) row: float64
# (exact for the integers), but `eta` is the int64 count and `connected` is
# boolean.
Columns = namedtuple("Columns", "n m zagreb max_degree alpha shift energy eta two_s "
                                "log_gamma theta rho_1 connected")


class SpectrumTable:
    """Every graph in `graphs` at every alpha in `alphas`, as columns: row r
    is graph `graphs[r // k]` at `alphas[r % k]`, k = len(alphas). `rho[r]`
    is row r's eigenvalues, descending; `shift`, `energy`, `eta` (int64),
    `two_s`, `log_gamma` (-inf at a singular shift), `theta` and `rho_1`
    are read-only arrays with one entry per row. `table[r]` builds row r's
    AlphaSpectrum. (A plain class: a dataclass would cost its import a
    generated `__init__`.)"""

    def __init__(self, graphs: tuple[Graph, ...], alphas: tuple[float, ...],
                 rho: tuple[np.ndarray, ...], shift, energy, eta, two_s, log_gamma, theta,
                 rho_1):
        self.graphs, self.alphas, self.rho = graphs, alphas, rho
        self.shift, self.energy, self.eta, self.two_s = shift, energy, eta, two_s
        self.log_gamma, self.theta, self.rho_1 = log_gamma, theta, rho_1

    def __len__(self) -> int:
        return len(self.rho)

    def __getitem__(self, r: int) -> AlphaSpectrum:
        r = range(len(self.rho))[r]
        k = len(self.alphas)
        rho, shift = self.rho[r], float(self.shift[r])
        s = rho - shift
        s.setflags(write=False)
        gamma_det = 0.0
        if self.log_gamma[r] > -np.inf:
            with np.errstate(over="ignore"):
                gamma_det = abs(float(np.prod(s)))
        return AlphaSpectrum(self.alphas[r % k], self.graphs[r // k], rho, shift, s,
                             float(self.energy[r]), int(self.eta[r]), float(self.two_s[r]),
                             gamma_det, float(self.theta[r]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.rho)))

    @cached_property
    def columns(self) -> Columns:
        """The bound table's columns; the graph fields are read, and
        connectivity decided, on first access."""
        per_graph = np.array(
            [(g.n, g.m, g.zagreb, g.degree_sequence[0], g.connected) for g in self.graphs],
            dtype=np.float64).reshape(len(self.graphs), 5)
        if len(self.alphas) != 1:
            per_graph = per_graph.repeat(len(self.alphas), axis=0)
        n, m, zagreb, max_degree, connected = per_graph.T
        return Columns(n, m, zagreb, max_degree, np.array(self.alphas * len(self.graphs)),
                       self.shift, self.energy, self.eta, self.two_s, self.log_gamma,
                       self.theta, self.rho_1, connected != 0.0)


def _fill(out: np.ndarray, diag: np.ndarray, g: Graph, al: np.ndarray) -> None:
    """Write alpha*D + (1-alpha)*A for each alpha in `al` into the (k, n, n)
    `out`, and its diagonal, the alpha-scaled degrees, into the (k, n)
    `diag`. (1-alpha)*A with alpha*d on the diagonal has, entry for entry,
    the bits of alpha*D + (1-alpha)*A: A's diagonal and D's off-diagonal
    entries are zero, and adding +0.0 changes no bit of a non-negative
    product."""
    np.multiply((1.0 - al)[:, None, None], g.adjacency, out=out)
    np.multiply(al[:, None], g.degrees(), out=diag)
    out.reshape(len(al), g.n * g.n)[:, ::g.n + 1] = diag


def _chunks(n: int, blocks: list):
    """`blocks` of order n, (first row, graph, alphas) each, in runs of at
    most STACK_ENTRIES matrix entries; a block is never split."""
    chunk, size = [], 0
    for block in blocks:
        entries = len(block[2]) * n * n
        if chunk and size + entries > STACK_ENTRIES:
            yield chunk
            chunk, size = [], 0
        chunk.append(block)
        size += entries
    yield chunk


def spectrum_tables(*groups) -> tuple[SpectrumTable, ...]:
    """One SpectrumTable per (graphs, alphas) group, every group's rows of
    one order solved together.

    Rows are solved grouped by graph order, in chunks of whole graphs
    (`_chunks`), and put in table order at the end. A chunk's stack is a
    fresh float64 array holding its graphs' alpha matrices, each written by
    `_fill`, and each scalar is one reduction along the rows of its solve.
    """
    groups = [(tuple(graphs), tuple(_check_alpha(x) for x in alphas))
              for graphs, alphas in groups]
    by_order: dict[int, list] = {}  # order -> [(first table row, graph, alphas)]
    total = 0
    for graphs, alphas in groups:
        if not alphas:
            continue
        for g in graphs:
            by_order.setdefault(g.n, []).append((total, g, alphas))
            total += len(alphas)
    blocks = [block for same_order in by_order.values() for block in same_order]
    # alpha, m and the Zagreb index of each row, in solve order.
    al, m, zagreb = np.array([(a, g.m, g.zagreb) for _, g, alphas in blocks for a in alphas],
                             dtype=np.float64).reshape(total, 3).T
    rho: list[np.ndarray] = []
    out = np.empty((6, total))  # shift, energy, two_s, log_gamma, theta, rho_1
    eta = np.empty(total, dtype=np.int64)
    for n, same_order in by_order.items():
        for chunk in _chunks(n, same_order):
            size = sum(len(alphas) for _, _, alphas in chunk)
            rows = slice(len(rho), len(rho) + size)
            stack, diag = np.empty((size, n, n)), np.empty((size, n))
            i = 0
            for _, g, alphas in chunk:
                j = i + len(alphas)
                _fill(stack[i:j], diag[i:j], g, al[rows][i:j])
                i = j
            w = densela.eigendecompose(stack)
            shift = 2.0 * al[rows] * m[rows] / n
            s = w - shift[:, None]
            abs_s = np.abs(s)
            # 2S by the degree closed form: (1-alpha)^2 * 2m plus the squared
            # deviation of the alpha-scaled degrees from their mean, the
            # shift. float_power squares through C pow, as Python does.
            two_s = (np.float_power(1.0 - al[rows], 2) * 2.0 * m[rows]
                     + ((diag - shift[:, None]) ** 2).sum(axis=1))
            with np.errstate(divide="ignore"):  # log 0 is -inf, as the test below gives
                log_gamma = np.where(abs_s.min(axis=1) < SINGULAR_SHIFT_TOL, -np.inf,
                                     np.log(abs_s).sum(axis=1))
            out[:, rows] = (shift, abs_s.sum(axis=1), two_s, log_gamma,
                            np.sqrt(zagreb[rows] / n) - shift, w[:, 0])
            eta[rows] = (w >= (shift - SHIFT_TIE_TOL)[:, None]).sum(axis=1)
            rho.extend(w)
    if len(by_order) > 1:  # solve order to table order
        order = np.argsort([r + i for r, _, alphas in blocks for i in range(len(alphas))])
        out, eta, rho = out[:, order], eta[order], [rho[j] for j in order.tolist()]
    out.setflags(write=False)
    eta.setflags(write=False)
    shift, energy, two_s, log_gamma, theta, rho_1 = out
    tables, first = [], 0
    for graphs, alphas in groups:
        cut = slice(first, first + len(graphs) * len(alphas))
        tables.append(SpectrumTable(graphs, alphas, tuple(rho[cut]), shift[cut], energy[cut],
                                    eta[cut], two_s[cut], log_gamma[cut], theta[cut], rho_1[cut]))
        first = cut.stop
    return tuple(tables)


def graph_spectra(g: Graph, alphas) -> tuple[AlphaSpectrum, ...]:
    """One AlphaSpectrum per alpha, in order, all holding `g`: the rows of
    `g`'s one-graph SpectrumTable."""
    table, = spectrum_tables(((g,), alphas))
    return tuple(table)
