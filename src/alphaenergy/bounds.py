"""The published bounds on the centered-spectrum energy (or the spectral
radius) as one table, evaluated over columns or on one row's floats, with the
stated equality classes decided from the graph.

`BOUNDS` holds one `Bound` row per bound, in `BOUND_IDS` order. A row is data:

- `guards`: ordered (reason, predicate) pairs, the bound's hypotheses. The
  first predicate that is false makes the bound not applicable with that
  reason. Hypothesis failures are reported, never raised, so sweeps walk
  straight through hypothesis-violating regions.
- `value(t)`: the bound's closed form.
- `target(t)`: the quantity it constrains, the energy unless stated.
- `claim(g, alpha)`: whether the graph lies in the equality class the paper
  names, or None when the paper names none. Every class is a property of the
  `Graph`'s integers (regularity, completeness, star shape, the number of
  common neighbours every two vertices share); only the log class also
  tests alpha.

Guards, value and target are expressions over `Terms`: the scalars of
`spectra.Columns`, and the terms several closed forms share (2m/n,
sqrt(Zg/n), 1 - alpha, alpha^2 Zg + (1-alpha)^2 2m, 4 alpha m/n,
2 alpha m/n^2, the star radius bound and n - 1), each computed once per call
in the expression tree the forms would use inline, so sharing changes no
bit. The same expressions run on arrays, one entry per (graph, alpha) row,
or on the Python floats of one row: their squares, square roots and maxima
with 0 go through `_sq`, `_sqrt` and `_max0`, which take numpy on a column
and Python's own arithmetic, with the same bits, on a float. Only the log
forms' `np.log` stays numpy on a float (`math.log` differs from it in the
last bit).

`evaluate_many` evaluates a call's `spectra.SpectrumTable` into (15, R)
`Verdicts`, the call's one verdict record, with one of two passes chosen by
the row count; both give the same bits.
- Two or more rows (a sweep, a fuzz): one pass over the table's columns. Its
  guard table evaluates each distinct predicate once and gathers them into a
  (15, guards, R) array whose first false entry per bound is the reason code.
  Every closed form runs on whole columns, and the rows where its bound is
  not applicable are set to NaN afterwards.
- One row (`bounds` on one graph at one alpha, `harness.analyze`): the table
  bound by bound on Python floats, stopping at each bound's first failing
  guard. On length-1 columns numpy's dispatch, paid per operation and, in a
  fresh process, on the first use of each kernel, costs several times the
  arithmetic, and a CLI call pays it once per process.
`Verdicts.claims(r)` reads row r's claims from its graph and alpha only when
asked, and solves nothing. `certify` is hunt-equality's per-hit certificate.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from .graphcore import Graph
from .spectra import Columns, SpectrumTable

HOLDS_RTOL = 1e-9
EQUALITY_RTOL = 1e-7
DISTINCT_EIG_TOL = 1e-7


# The structural facts hunt-equality writes next to each hit; the inertia is
# the adjacency spectrum's (positive, zero, negative) counts. (Records here
# are namedtuples or plain classes: a dataclass would cost every import its
# generated methods.)
ExtremalCertificate = namedtuple(
    "ExtremalCertificate",
    "is_complete is_regular is_star distinct_alpha_eigenvalue_count adjacency_inertia")


def certify(g: Graph, rho: np.ndarray) -> ExtremalCertificate:
    """Structural certificate of one row, graph `g` with alpha-eigenvalues
    `rho` (descending): completeness, regularity, star shape, the count of
    distinct alpha-eigenvalues (clusters chained by consecutive gaps of at
    most DISTINCT_EIG_TOL) and the adjacency inertia, which `g` solves once,
    on its first certificate."""
    return ExtremalCertificate(
        is_complete=g.is_complete,
        is_regular=g.is_regular,
        is_star=g.is_star,
        distinct_alpha_eigenvalue_count=1 + int(np.count_nonzero(
            rho[:-1] - rho[1:] > DISTINCT_EIG_TOL)),
        adjacency_inertia=g.adjacency_inertia,
    )


# What guards, closed forms and targets read: a call's `Columns`, or one
# row's scalars, then the terms that several closed forms share, computed
# once per call.
Terms = namedtuple("Terms", Columns._fields + (
    "avg",              # 2m/n
    "root_zn",          # sqrt(Zg/n)
    "one_minus_alpha",  # 1 - alpha
    "frob",             # alpha^2 Zg + (1-alpha)^2 2m
    "four_amn",         # 4 alpha m/n
    "two_amn2",         # 2 alpha m/n^2
    "star",             # the star radius bound, `_star_radius_bound`
    "n_minus_1",        # n - 1
))


def _terms(c: Columns) -> Terms:
    """`c` and its shared terms, each in the expression tree the closed
    forms wrote inline, so every value keeps its bits."""
    one_minus_alpha = 1.0 - c.alpha
    return Terms(*c, 2.0 * c.m / c.n, _sqrt(c.zagreb / c.n), one_minus_alpha,
                 _sq(c.alpha) * c.zagreb + _sq(one_minus_alpha) * 2.0 * c.m,
                 4.0 * c.alpha * c.m / c.n, 2.0 * c.alpha * c.m / c.n ** 2,
                 _star_radius_bound(c), c.n - 1)


Guard = tuple[str, Callable[[Terms], np.ndarray]]


# Targets as named functions: the column pass computes each distinct one once.
def _energy(t: Terms) -> np.ndarray:
    return t.energy


def _rho_1(t: Terms) -> np.ndarray:
    return t.rho_1


class Bound:
    """One published bound: hypotheses, closed form, constrained quantity
    and stated equality class (decided from the row's graph and alpha).
    Whether it holds is its gap test between closed form and target alone."""

    __slots__ = ("id", "kind", "guards", "value", "target", "claim")

    def __init__(self, id: str, kind: str, guards: tuple[Guard, ...],
                 value: Callable[[Terms], np.ndarray],
                 target: Callable[[Terms], np.ndarray] = _energy,
                 claim: Callable[[Graph, float], bool | None] = lambda g, alpha: None):
        self.id, self.kind, self.guards, self.value = id, kind, guards, value
        self.target, self.claim = target, claim


# The closed forms' square, square root and max with 0, on a column through
# numpy and on a Python float through Python, with the same bits: both
# squares are C pow (numpy's x ** 2 is x * x, which differs from pow in the
# last bit for about 1 in 1,200), both square roots are correctly rounded,
# and the max keeps numpy's NaN and -0.0. A float Python would raise on (a
# square past 1e154, a negative square root) goes to numpy, which gives inf
# or NaN.


def _sq(x: np.ndarray) -> np.ndarray:
    if type(x) is float and abs(x) < 1e154:
        return x ** 2.0
    return np.float_power(x, 2)


def _sqrt(x: np.ndarray) -> np.ndarray:
    if type(x) is float and x >= 0.0:
        return math.sqrt(x)
    return np.sqrt(x)


def _max0(x: np.ndarray) -> np.ndarray:
    """np.maximum(x, 0.0): 0.0 for -0.0, and NaN stays NaN."""
    if type(x) is float:
        return 0.0 if x <= 0.0 else x
    return np.maximum(x, 0.0)


# -- hypotheses -------------------------------------------------------------


def _alpha_below_1(t: Terms) -> np.ndarray:
    return t.alpha < 1.0


_CONNECTED: Guard = ("requires connected", lambda t: t.connected)
_N_AT_LEAST_3: Guard = ("requires n >= 3", lambda t: t.n >= 3)
_ALPHA_BELOW_1: Guard = ("requires alpha in [0, 1)", _alpha_below_1)
_LOG_GUARDS: tuple[Guard, ...] = (
    _CONNECTED,
    _N_AT_LEAST_3,
    ("requires alpha <= 1 - n/(2m)", lambda t: t.alpha <= 1.0 - t.n / (2.0 * t.m)),
    ("singular shift", lambda t: t.log_gamma > -np.inf),
    ("requires theta > 0", lambda t: t.theta > 0.0),
)


def _zagreb_side_condition(t: Terms) -> np.ndarray:
    """For alpha > 1/2, Zg lies above 8m^2/n - 2m or below 4m^2/n."""
    return (
        (t.alpha <= 0.5)
        | (t.zagreb > 8.0 * t.m * t.m / t.n - 2.0 * t.m)
        | (t.zagreb < 4.0 * t.m * t.m / t.n)
    )


# -- closed forms -------------------------------------------------------------


def _koolen_alpha(t: Terms) -> np.ndarray:
    inner = t.two_s - _sq(t.one_minus_alpha) * t.avg * t.avg
    return t.one_minus_alpha * t.avg + _sqrt(t.n_minus_1 * _max0(inner))


def _koolen_energy(t: Terms) -> np.ndarray:
    return t.avg + _sqrt(t.n_minus_1 * _max0(2.0 * t.m - t.avg * t.avg))


def _koolen_signless(t: Terms) -> np.ndarray:
    inner = 2.0 * t.m + t.zagreb - (4.0 * t.m * t.m / t.n) * (1.0 + 1.0 / t.n)
    return t.avg + _sqrt(t.n_minus_1 * _max0(inner))


def _log_zagreb(t: Terms) -> np.ndarray:
    return (
        t.frob
        - t.two_amn2 * (2.0 * t.alpha * t.n * t.m + 2.0 * t.alpha * t.m + t.n)
        + (np.log(t.theta) - t.log_gamma)
        + t.four_amn * t.root_zn
        - t.root_zn * (t.root_zn - 1.0)
    )


def _log_degree(t: Terms) -> np.ndarray:
    return (
        t.frob
        + (np.log(2.0 * t.m * t.one_minus_alpha / t.n) - t.log_gamma)
        - t.two_amn2 * (2.0 * t.n * t.alpha * t.m + 2.0 * t.alpha * t.m - 4.0 * t.m + t.n)
        - (2.0 * t.m / t.n ** 2) * (2.0 * t.m - t.n)
    )


def _star_radius_bound(c: Columns) -> np.ndarray:
    """a(D+1) + sqrt(a^2 (D+1)^2 + 4D(1-2a)), D the maximum degree."""
    alpha, max_deg = c.alpha, c.max_degree
    disc = _sq(alpha) * (max_deg + 1) ** 2 + 4.0 * max_deg * (1.0 - 2.0 * alpha)
    return alpha * (max_deg + 1) + _sqrt(_max0(disc))


# -- equality classes -----------------------------------------------------------
#
# Each bound's guards make its graph connected, with n >= 3 where the class
# needs it, before a claim is read.


def _koolen_claim(g: Graph, alpha: float) -> bool:
    """Koolen and Moulton's class ("Maximal energy graphs", 2001): K_n, or a
    k-regular graph where every two vertices share mu neighbours (strongly
    regular with lambda = mu). Then A^2 = (k - mu) I + mu J, so the
    eigenvalues other than k are +-sqrt(k - mu), the Cauchy-Schwarz radius,
    and alpha*D + (1-alpha)*A has the stated ones for every alpha."""
    return g.is_regular and g.common_neighbours is not None


def _log_claim(g: Graph, alpha: float) -> bool:
    """Regular with alpha-eigenvalues k and alpha*k +- 1: a Koolen graph whose
    (1 - alpha) sqrt(k - mu) is 1 within DISTINCT_EIG_TOL. K_n has
    k - mu = 1, so it is in the class for alpha <= DISTINCT_EIG_TOL."""
    return _koolen_claim(g, alpha) and abs(
        (1.0 - alpha) * math.sqrt(g.degree_sequence[0] - g.common_neighbours) - 1.0
    ) <= DISTINCT_EIG_TOL


def _complete_claim(g: Graph, alpha: float) -> bool:
    """Regular with adjacency inertia (1, 0, n - 1). By J. H. Smith's theorem
    (1970) a connected graph with one positive eigenvalue is complete
    multipartite, and zero is not an eigenvalue only when every part is a
    single vertex: the class is K_n."""
    return g.is_complete


_COMMON_GUARDS = (_CONNECTED, _N_AT_LEAST_3, _ALPHA_BELOW_1)

BOUNDS: tuple[Bound, ...] = (
    # Cauchy-Schwarz: sqrt(2S n).
    Bound("ub_mcclelland", "upper", (_CONNECTED,),
          lambda t: _sqrt(t.two_s * t.n)),
    # (1-a)(2m/n) + sqrt((n-1)[2S - (1-a)^2 (2m/n)^2]).
    Bound("ub_koolen_alpha", "upper",
          (_CONNECTED, _N_AT_LEAST_3, ("requires alpha < 1", _alpha_below_1),
           ("zagreb side condition fails for alpha > 1/2", _zagreb_side_condition)),
          _koolen_alpha, claim=_koolen_claim),
    # 2m/n + sqrt((n-1)[2m - (2m/n)^2]) on the plain energy.
    Bound("ub_koolen_energy", "upper",
          (_CONNECTED, ("requires alpha = 0", lambda t: t.alpha == 0.0), _N_AT_LEAST_3),
          _koolen_energy, claim=_koolen_claim),
    # 2m/n + sqrt((n-1)[2m + Zg - (4m^2/n)(1 + 1/n)]) against twice the
    # alpha = 1/2 energy (the signless-Laplacian energy).
    Bound("ub_koolen_signless", "upper",
          (_CONNECTED, ("requires alpha = 1/2", lambda t: t.alpha == 0.5), _N_AT_LEAST_3),
          _koolen_signless, target=lambda t: 2.0 * t.energy, claim=_koolen_claim),
    # 2(n-1) + 2(eta-1)(alpha n - 1) - 4 alpha eta m / n.
    Bound("ub_eta", "upper",
          (_CONNECTED, _N_AT_LEAST_3,
           ("requires alpha in [1/2, 1)", lambda t: (0.5 <= t.alpha) & (t.alpha < 1.0))),
          lambda t: (2.0 * t.n_minus_1 + 2.0 * (t.eta - 1) * (t.alpha * t.n - 1.0)
                     - 4.0 * t.alpha * t.eta * t.m / t.n),
          claim=_complete_claim),
    # Log-determinant upper bounds through sqrt(Zg/n) and through 2m/n.
    Bound("ub_log_zagreb", "upper", _LOG_GUARDS, _log_zagreb, claim=_log_claim),
    Bound("ub_log_degree", "upper", _LOG_GUARDS, _log_degree, claim=_log_claim),
    # sqrt(2(a^2 Zg + (1-a)^2 2m - 2(a m)^2/n)), evaluated exactly as printed.
    # Known to exceed the energy for alpha > 0 on some graphs; the verdict
    # records the violation rather than papering over it.
    Bound("lb_frobenius_asstated", "lower", _COMMON_GUARDS,
          lambda t: _sqrt(2.0 * _max0(t.frob - 2.0 * _sq(t.alpha * t.m) / t.n))),
    # sqrt(2S): what the Cauchy-Schwarz argument supports once the centered
    # eigenvalues are used throughout.
    Bound("lb_frobenius_repaired", "lower", _COMMON_GUARDS,
          lambda t: _sqrt(2.0 * t.two_s)),
    Bound("lb_average_degree", "lower", _COMMON_GUARDS,
          lambda t: 4.0 * t.one_minus_alpha * t.m / t.n, claim=_complete_claim),
    Bound("lb_zagreb", "lower", _COMMON_GUARDS,
          lambda t: 2.0 * t.root_zn - t.four_amn, claim=_complete_claim),
    Bound("lb_maxdeg", "lower", _COMMON_GUARDS,
          lambda t: t.star - t.four_amn, claim=lambda g, alpha: g.is_star),
    # sqrt(Zg/n) + (n-1) + ln(Gamma/theta) - 2am/n. The trailing -2am/n keeps
    # the bound below the energy for alpha > 0; the uncentered variant without
    # it overshoots on dense graphs.
    Bound("lb_log", "lower", _LOG_GUARDS,
          lambda t: t.root_zn + t.n_minus_1 + (t.log_gamma - np.log(t.theta)) - t.shift,
          claim=_log_claim),
    # Half the star radius bound, on the spectral radius.
    Bound("rho_lb_star", "lower",
          (_CONNECTED, _ALPHA_BELOW_1, ("requires n >= 2", lambda t: t.n >= 2)),
          lambda t: 0.5 * t.star, target=_rho_1, claim=lambda g, alpha: g.is_star),
    # Chain rho_1 >= sqrt(Zg/n) >= 2m/n. sqrt(Zg/n) >= 2m/n is Cauchy-Schwarz,
    # n Zg >= (sum d_i)^2 = 4m^2, equal iff regular: true on every graph.
    Bound("rho_lb_chain", "lower", (_CONNECTED,),
          lambda t: t.root_zn, target=_rho_1, claim=lambda g, alpha: g.is_regular),
)

BOUND_IDS = tuple(b.id for b in BOUNDS)
_UPPER = np.array([[b.kind == "upper"] for b in BOUNDS])

# The guard table: every distinct predicate once, in order of first use, and
# per bound the indices of its guards into that list, padded to a common
# width with the index of an extra all-false row. The first false entry of a
# bound's gathered guards is its first failing guard, or the padding when
# every guard holds.
_PREDICATES = tuple({pred: None for b in BOUNDS for _, pred in b.guards})
_WIDTH = 1 + max(len(b.guards) for b in BOUNDS)
_GUARD_ROWS = np.array([[_PREDICATES.index(pred) for _, pred in b.guards]
                        + [len(_PREDICATES)] * (_WIDTH - len(b.guards)) for b in BOUNDS])
_GUARD_COUNTS = np.array([[len(b.guards)] for b in BOUNDS])
# Every distinct target once, and per bound the index of its own.
_TARGETS = tuple({b.target: None for b in BOUNDS})
_TARGET_ROWS = np.array([_TARGETS.index(b.target) for b in BOUNDS])


class Verdicts:
    """Every bound on R (graph, alpha) rows. Row r is row r of `spectra`:
    graph `spectra.graphs[r // k]`, named `graph_ids[r // k]`, at
    `spectra.alphas[r % k]`, k = len(spectra.alphas). `graph_ids` holds one
    id per graph, as `spectra.graphs` holds one graph each. The verdicts are
    (15, R) arrays, rows of BOUNDS in BOUND_IDS order. `gap` is value -
    target for upper bounds and target - value for lower ones; holds means
    gap >= -HOLDS_RTOL * (1 + |value|), for every bound. Where a bound is
    not applicable its value, target and gap are NaN and holds and equality
    are False. The fourth verdict, the stated-class claim, is read per row
    from the row's graph and alpha by `claims(r)`."""

    __slots__ = ("graph_ids", "spectra", "reason", "value", "target", "gap", "holds",
                 "equality")

    def __init__(self, graph_ids: tuple[str, ...], spectra: SpectrumTable,
                 reason: np.ndarray, value: np.ndarray, target: np.ndarray, gap: np.ndarray,
                 holds: np.ndarray, equality: np.ndarray):
        self.graph_ids, self.spectra = graph_ids, spectra
        self.reason = reason  # int8: 0 if applicable, else 1 + index of the first false guard
        self.value = value
        self.target = target  # the constrained quantity: energy, 2x energy or rho_1
        self.gap, self.holds, self.equality = gap, holds, equality

    def claims(self, r: int) -> tuple[bool | None, ...]:
        """Row r's claims in BOUND_IDS order: whether the graph lies in each
        applicable bound's stated equality class, None where the bound is not
        applicable or names no class."""
        k = len(self.spectra.alphas)
        g, alpha = self.spectra.graphs[r // k], self.spectra.alphas[r % k]
        return tuple(None if code else b.claim(g, alpha)
                     for b, code in zip(BOUNDS, self.reason[:, r].tolist()))


def _holds(gap, value):
    """gap >= -HOLDS_RTOL * (1 + |value|), on columns or on floats: every
    bound's whole holds test."""
    return gap >= -HOLDS_RTOL * (1.0 + abs(value))


def _equality(gap, target, tol: float):
    """|gap| <= tol * (1 + |target|), on columns or on floats."""
    return abs(gap) <= tol * (1.0 + abs(target))


def evaluate_many(graph_ids: Sequence[str], spectra: SpectrumTable,
                  equality_tol: float = EQUALITY_RTOL) -> Verdicts:
    """Every bound on every row of `spectra`, `graph_ids` naming its graphs,
    one id per graph: row r's graph is `graph_ids[r // len(spectra.alphas)]`.

    Two passes read the one table and give the same bits; the row count
    picks one. A table of two or more rows is evaluated over its columns
    (`_column_pass`), where numpy's per-operation dispatch is shared by the
    rows. A one-row table, one graph at one alpha as `bounds` on a graph and
    `harness.analyze` ask for, is walked bound by bound on Python floats
    (`_row_pass`): on length-1 columns that dispatch, and in a fresh process
    the first use of each kernel, costs more than the arithmetic. Both run
    under errstate: the column pass meets inf and NaN on the rows where a
    bound is not applicable, and on one row the float helpers hand numpy
    any NaN, inf or negative argument they get."""
    with np.errstate(all="ignore"):
        if len(spectra) == 1:
            verdicts = _row_pass(spectra, equality_tol)
        else:
            verdicts = _column_pass(spectra, equality_tol)
    return Verdicts(tuple(graph_ids), spectra, *verdicts)


def _column_pass(spectra: SpectrumTable, equality_tol: float) -> tuple[np.ndarray, ...]:
    """The (reason, value, target, gap, holds, equality) arrays of every row,
    in one pass over the table's columns: each distinct guard predicate,
    shared term and target once, and every closed form on whole columns, with
    the rows where the bound is not applicable set to NaN afterwards. A form
    may give inf or NaN on such a row (log theta at theta <= 0, -log Gamma at
    a singular shift); errstate keeps that silent and the NaN overwrites it."""
    t = _terms(spectra.columns)
    ok = np.zeros((len(_PREDICATES) + 1, len(spectra)), dtype=bool)  # the last row stays false
    for j, pred in enumerate(_PREDICATES):
        ok[j] = pred(t)
    first = ok[_GUARD_ROWS].argmin(axis=1)
    reason = np.where(first < _GUARD_COUNTS, first + 1, 0).astype(np.int8)
    not_applicable = reason != 0
    value = np.empty(reason.shape)
    for i, b in enumerate(BOUNDS):
        value[i] = b.value(t)
    value[not_applicable] = np.nan
    target = np.array([f(t) for f in _TARGETS])[_TARGET_ROWS]
    target[not_applicable] = np.nan
    gap = np.where(_UPPER, value - target, target - value)
    return reason, value, target, gap, _holds(gap, value), _equality(gap, target, equality_tol)


def _row_pass(spectra: SpectrumTable, equality_tol: float) -> tuple[np.ndarray, ...]:
    """The same arrays for a one-row table, bound by bound on Python floats.
    The `Terms` come from the graph's integers and the row's scalars. A
    bound stops at its first failing guard, so a closed form runs only where
    its bound applies. The stop is needed, not only cheaper: the log guard
    divides by m, which is 0 on an edgeless graph, and a Python float raises
    there where a column gives inf. The log forms read the row's log Gamma
    as a float and take `np.log` of a float, which has the bits of `np.log`
    on a column, so the two passes agree."""
    g, = spectra.graphs
    alpha, = spectra.alphas
    t = _terms(Columns(
        float(g.n), float(g.m), float(g.zagreb), float(g.degree_sequence[0]), alpha,
        spectra.shift.item(), spectra.energy.item(), spectra.eta.item(), spectra.two_s.item(),
        spectra.log_gamma.item(), spectra.theta.item(), spectra.rho_1.item(), g.connected))
    rows = []
    for b in BOUNDS:
        for code, (_, pred) in enumerate(b.guards, 1):
            if not pred(t):
                rows.append((code, math.nan, math.nan, math.nan, False, False))
                break
        else:
            value, target = b.value(t), b.target(t)
            gap = value - target if b.kind == "upper" else target - value
            rows.append((0, value, target, gap, _holds(gap, value),
                         _equality(gap, target, equality_tol)))
    reason, value, target, gap, holds, equality = zip(*rows)
    return (np.array(reason, dtype=np.int8)[:, None], np.array(value)[:, None],
            np.array(target)[:, None], np.array(gap)[:, None],
            np.array(holds, dtype=bool)[:, None], np.array(equality, dtype=bool)[:, None])
