"""Convex-combination adjacency/degree matrices, their spectra, and the
scalar invariants of their spectra, one array entry per row of a call.

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

`spectrum_tables` takes (graphs, alphas) groups, one `SpectrumTable` each,
with rows graph-major then alpha. It has two paths, which give the same
bits; the row count picks one. Two or more rows take the stacked path: the
rows of one order are solved in chunks of whole graphs of at most
`STACK_ENTRIES` matrix entries. A chunk stands alone: it builds its plain
(rows, n, n) stack in one broadcast, solves it in one LAPACK call
(`densela.eigendecompose`) for eigenvalues only, reduces every scalar along
the rows of that solve and writes each row at its table index, so its rows
are final once it is solved. A call pays one eigensolve per order and
chunk, whichever groups its rows come from. One row, one graph at one alpha
as `bounds` and `spectrum` on a graph, `harness.analyze` and a one-graph
sweep ask for, takes the one-row path (`_one_row`): it solves its one
(1, n, n) stack and reduces it on Python floats, with numpy only for the
sums whose bits depend on numpy's summation order and for the eta count. On
one row, grouping, chunking and numpy's per-operation dispatch cost more
than the arithmetic. A row's reductions read that row alone, so they give
the same bits however the rows are stacked, or alone; repeated runs with
the same numpy/LAPACK build give bit-identical spectra, another build may
differ in the last few digits.

A row is its index into its table and has no other representation: its
consumers read the table's arrays at that index. This module solves and
reduces; what the bound table reads of a row is `bounds.Terms`, built from
the table and its graphs there. Certificates read a row's eigenvalues; only
`spectrum`'s writer forms the centered eigenvalues and Gamma itself. What
depends on the graph alone (adjacency matrix, degrees, Zagreb index,
connectivity, common neighbours, adjacency inertia, complete/regular/star
flags) is cached on the `Graph` itself.
"""

from __future__ import annotations

import math

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
    return alpha + 0.0  # -0.0 is 0.0, in every matrix, scalar and report


class SpectrumTable:
    """Every graph in `graphs` at every alpha in `alphas`, as columns: row r
    is graph `graphs[r // k]` at `alphas[r % k]`, k = len(alphas), and is
    index r into every array. `rho[r]` is row r's eigenvalues, descending;
    `shift` (2*alpha*m/n, the eigenvalue mean), `energy`, `eta` (int64),
    `two_s`, `log_gamma` (-inf at a singular shift), `theta` (sqrt(Zg/n) -
    shift) and `rho_1` are read-only arrays with one entry per row. (A
    plain class: a dataclass would cost its import a generated `__init__`.)"""

    def __init__(self, graphs: tuple[Graph, ...], alphas: tuple[float, ...],
                 rho: tuple[np.ndarray, ...], shift, energy, eta, two_s, log_gamma, theta,
                 rho_1):
        self.graphs, self.alphas, self.rho = graphs, alphas, rho
        self.shift, self.energy, self.eta, self.two_s = shift, energy, eta, two_s
        self.log_gamma, self.theta, self.rho_1 = log_gamma, theta, rho_1

    def __len__(self) -> int:
        return len(self.rho)


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

    A call of one graph at one alpha is `_one_row`. Otherwise rows are solved
    grouped by graph order, in chunks of whole graphs (`_chunks`), each chunk
    on its own. Its stack is one array of its graphs' adjacency matrices, a
    copy per alpha, scaled in place by 1 - alpha, with the alpha-scaled
    degrees written over the diagonal: entry for entry the bits of
    alpha*D + (1-alpha)*A, since A's diagonal and D's off-diagonal entries
    are zero and adding +0.0 changes no bit of a non-negative product. Each
    scalar is one reduction along the rows of the chunk's solve, written at
    the rows' table indices.
    """
    groups = [(tuple(graphs), tuple(_check_alpha(x) for x in alphas))
              for graphs, alphas in groups]
    if len(groups) == 1 and len(groups[0][0]) == len(groups[0][1]) == 1:
        (g,), (alpha,) = groups[0]
        return (_one_row(g, alpha),)
    by_order: dict[int, list] = {}  # order -> [(first table row, graph, alphas)]
    total = 0
    for graphs, alphas in groups:
        if not alphas:
            continue
        for g in graphs:
            by_order.setdefault(g.n, []).append((total, g, alphas))
            total += len(alphas)
    rho = [None] * total  # each row's eigenvalues
    out = np.empty((6, total))  # shift, energy, two_s, log_gamma, theta, rho_1
    eta = np.empty(total, dtype=np.int64)
    for n, same_order in by_order.items():
        for chunk in _chunks(n, same_order):
            at = np.array([r + i for r, _, alphas in chunk for i in range(len(alphas))])
            # alpha, m and the Zagreb index of each row.
            al, m, zagreb = np.array([(a, g.m, g.zagreb) for _, g, alphas in chunk
                                      for a in alphas], dtype=np.float64).T
            reps = [len(alphas) for _, _, alphas in chunk]  # rows per graph
            stack = np.array([g.adjacency for _, g, _ in chunk]).repeat(reps, axis=0)
            diag = al[:, None] * np.array([g.degrees() for _, g, _ in chunk]).repeat(reps, axis=0)
            stack *= (1.0 - al)[:, None, None]
            stack.reshape(len(at), n * n)[:, ::n + 1] = diag
            w = densela.eigendecompose(stack)
            shift = 2.0 * al * m / n
            s = w - shift[:, None]
            abs_s = np.abs(s)
            # 2S by the degree closed form: (1-alpha)^2 * 2m plus the squared
            # deviation of the alpha-scaled degrees from their mean, the
            # shift. float_power squares through C pow, as Python does.
            two_s = (np.float_power(1.0 - al, 2) * 2.0 * m
                     + ((diag - shift[:, None]) ** 2).sum(axis=1))
            with np.errstate(divide="ignore"):  # log 0 is -inf, as the test below gives
                log_gamma = np.where(abs_s.min(axis=1) < SINGULAR_SHIFT_TOL, -np.inf,
                                     np.log(abs_s).sum(axis=1))
            out[:, at] = (shift, abs_s.sum(axis=1), two_s, log_gamma,
                          np.sqrt(zagreb / n) - shift, w[:, 0])
            eta[at] = (w >= (shift - SHIFT_TIE_TOL)[:, None]).sum(axis=1)
            for r, row in zip(at.tolist(), w):
                rho[r] = row
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


def _one_row(g: Graph, alpha: float) -> SpectrumTable:
    """The table of one graph at one alpha, with the bits of its row in a
    stacked solve. Its one (1, n, n) stack has the bits of a chunk's.
    numpy sums |s_i|, log|s_i| and (alpha*d_i - shift)^2, whose bits depend
    on its summation order, and counts eta; the other scalars are Python
    floats from the expressions the stacked path evaluates on columns, and
    the singular-shift test is a Python `if`."""
    n, m = g.n, float(g.m)
    diag = alpha * g.degrees()
    a = (1.0 - alpha) * g.adjacency
    a.reshape(n * n)[::n + 1] = diag
    rho, = densela.eigendecompose(a[None])
    shift = 2.0 * alpha * m / n
    abs_s = np.abs(rho - shift)
    two_s = (1.0 - alpha) ** 2 * 2.0 * m + ((diag - shift) ** 2).sum()
    log_gamma = -np.inf
    if min(abs_s.tolist()) >= SINGULAR_SHIFT_TOL:
        log_gamma = np.log(abs_s).sum()
    out = np.array([[shift], [abs_s.sum()], [two_s], [log_gamma],
                    [math.sqrt(g.zagreb / n) - shift], [rho[0]]])
    eta = np.array([np.count_nonzero(rho >= shift - SHIFT_TIE_TOL)], dtype=np.int64)
    out.setflags(write=False)
    eta.setflags(write=False)
    return SpectrumTable((g,), (alpha,), (rho,), *out[:2], eta, *out[2:])

