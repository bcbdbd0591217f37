"""The published bounds on the centered-spectrum energy (or the spectral
radius) as one table evaluated over columns, with numerical certification of
the stated equality classes.

`BOUNDS` holds one `Bound` row per bound, in `BOUND_IDS` order. A row is data:

- `guards`: ordered (reason, predicate) pairs, the bound's hypotheses. The
  first predicate that is false makes the bound not applicable with that
  reason. Hypothesis failures are reported, never raised, so sweeps walk
  straight through hypothesis-violating regions.
- `value(c)`: the bound's closed form.
- `target(c)`: the quantity it constrains, the energy unless stated.
- `claim(sp, cert)`: whether the graph lies in the equality class the paper
  names, or None when the paper names none.

Guards, value and target are array expressions over `spectra.Columns`, one
entry per (graph, alpha) row. `evaluate_many` runs the table once over the
columns of a call's `spectra.SpectrumTable` into (15, R) `Verdicts`, the
call's one verdict record; `Verdicts.claims(r)` builds row r's
AlphaSpectrum, certifies it and reads its claims only when asked.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Sequence

import numpy as np

from .spectra import AlphaSpectrum, Columns, SpectrumTable

HOLDS_RTOL = 1e-9
EQUALITY_RTOL = 1e-7
DISTINCT_EIG_TOL = 1e-7
GAMMA_FLOOR = 1e-10


# Structural facts used to check the stated equality classes; the inertia is
# the adjacency spectrum's (positive, zero, negative) counts. (Records here
# are namedtuples or plain classes: a dataclass would cost every import its
# generated methods.)
ExtremalCertificate = namedtuple(
    "ExtremalCertificate",
    "is_complete is_regular is_star distinct_alpha_eigenvalue_count adjacency_inertia")


def _merged_eigenvalues(values: np.ndarray) -> list[float]:
    """Collapse a descending eigenvalue sequence into per-cluster means."""
    groups: list[list[float]] = []
    for x in values.tolist():
        if groups and groups[-1][-1] - x <= DISTINCT_EIG_TOL:
            groups[-1].append(x)
        else:
            groups.append([x])
    return [sum(grp) / len(grp) for grp in groups]


def _matches_values(observed: np.ndarray, stated: list[float]) -> bool:
    """Do the merged distinct eigenvalues equal the stated ones?"""
    merged = _merged_eigenvalues(observed)
    expect = sorted(stated, reverse=True)
    return len(merged) == len(expect) and all(
        abs(a - b) <= DISTINCT_EIG_TOL for a, b in zip(merged, expect)
    )


def certify(sp: AlphaSpectrum) -> ExtremalCertificate:
    """Structural certificate for the equality classes: completeness,
    regularity, star shape, distinct eigenvalue count, adjacency inertia.
    Reads the graph's cached invariants from `sp.graph`, which solves the
    adjacency spectrum once per graph, on its first certificate."""
    g = sp.graph
    return ExtremalCertificate(
        is_complete=g.is_complete,
        is_regular=g.is_regular,
        is_star=g.is_star,
        distinct_alpha_eigenvalue_count=len(_merged_eigenvalues(sp.rho)),
        adjacency_inertia=g.adjacency_inertia,
    )


Guard = tuple[str, Callable[[Columns], np.ndarray]]


class Bound:
    """One published bound: hypotheses, closed form, constrained quantity
    and stated equality class (read from one row's spectrum and certificate).
    `second_link(c, value)` must also be true for the bound to hold (the
    chain bound's middle inequality)."""

    __slots__ = ("id", "kind", "guards", "value", "target", "claim", "second_link")

    def __init__(self, id: str, kind: str, guards: tuple[Guard, ...],
                 value: Callable[[Columns], np.ndarray],
                 target: Callable[[Columns], np.ndarray] = lambda c: c.energy,
                 claim: Callable[[AlphaSpectrum, ExtremalCertificate], bool | None]
                 = lambda sp, cert: None,
                 second_link: Callable[[Columns, np.ndarray], np.ndarray] | None = None):
        self.id, self.kind, self.guards, self.value = id, kind, guards, value
        self.target, self.claim, self.second_link = target, claim, second_link


def _sq(x: np.ndarray) -> np.ndarray:
    """x ** 2 through C pow, as Python squares a float; numpy's x ** 2 is
    x * x, which differs from pow in the last bit for about 1 in 1,200."""
    return np.float_power(x, 2)


def _log(x: np.ndarray) -> np.ndarray:
    """math.log per entry: the bits of the scalar formula, and a raised
    ValueError, never a silent NaN, on a non-positive argument."""
    return np.array([math.log(v) for v in x.tolist()], dtype=np.float64)


# -- hypotheses -------------------------------------------------------------

_CONNECTED: Guard = ("requires connected", lambda c: c.connected)
_N_AT_LEAST_3: Guard = ("requires n >= 3", lambda c: c.n >= 3)
_ALPHA_BELOW_1: Guard = ("requires alpha in [0, 1)", lambda c: c.alpha < 1.0)
_LOG_GUARDS: tuple[Guard, ...] = (
    _CONNECTED,
    _N_AT_LEAST_3,
    ("requires alpha <= 1 - n/(2m)", lambda c: c.alpha <= 1.0 - c.n / (2.0 * c.m)),
    ("singular shift", lambda c: c.gamma_det > GAMMA_FLOOR),
    ("requires theta > 0", lambda c: c.theta > 0.0),
)


def _zagreb_side_condition(c: Columns) -> np.ndarray:
    """For alpha > 1/2, Zg lies above 8m^2/n - 2m or below 4m^2/n."""
    return (
        (c.alpha <= 0.5)
        | (c.zagreb > 8.0 * c.m * c.m / c.n - 2.0 * c.m)
        | (c.zagreb < 4.0 * c.m * c.m / c.n)
    )


# -- closed forms -------------------------------------------------------------


def _koolen_alpha(c: Columns) -> np.ndarray:
    avg = 2.0 * c.m / c.n
    inner = c.two_s - _sq(1.0 - c.alpha) * avg * avg
    return (1.0 - c.alpha) * avg + np.sqrt((c.n - 1) * np.maximum(inner, 0.0))


def _koolen_energy(c: Columns) -> np.ndarray:
    avg = 2.0 * c.m / c.n
    return avg + np.sqrt((c.n - 1) * np.maximum(2.0 * c.m - avg * avg, 0.0))


def _koolen_signless(c: Columns) -> np.ndarray:
    avg = 2.0 * c.m / c.n
    inner = 2.0 * c.m + c.zagreb - (4.0 * c.m * c.m / c.n) * (1.0 + 1.0 / c.n)
    return avg + np.sqrt((c.n - 1) * np.maximum(inner, 0.0))


def _log_zagreb(c: Columns) -> np.ndarray:
    sq = np.sqrt(c.zagreb / c.n)
    return (
        _sq(c.alpha) * c.zagreb
        + _sq(1.0 - c.alpha) * 2.0 * c.m
        - (2.0 * c.alpha * c.m / c.n ** 2)
        * (2.0 * c.alpha * c.n * c.m + 2.0 * c.alpha * c.m + c.n)
        + _log(c.theta / c.gamma_det)
        + (4.0 * c.alpha * c.m / c.n) * sq
        - sq * (sq - 1.0)
    )


def _log_degree(c: Columns) -> np.ndarray:
    return (
        _sq(c.alpha) * c.zagreb
        + _sq(1.0 - c.alpha) * 2.0 * c.m
        + _log(2.0 * c.m * (1.0 - c.alpha) / (c.n * c.gamma_det))
        - (2.0 * c.alpha * c.m / c.n ** 2)
        * (2.0 * c.n * c.alpha * c.m + 2.0 * c.alpha * c.m - 4.0 * c.m + c.n)
        - (2.0 * c.m / c.n ** 2) * (2.0 * c.m - c.n)
    )


def _star_radius_bound(c: Columns) -> np.ndarray:
    """a(D+1) + sqrt(a^2 (D+1)^2 + 4D(1-2a)), D the maximum degree."""
    alpha, max_deg = c.alpha, c.max_degree
    disc = _sq(alpha) * (max_deg + 1) ** 2 + 4.0 * max_deg * (1.0 - 2.0 * alpha)
    return alpha * (max_deg + 1) + np.sqrt(np.maximum(disc, 0.0))


# -- equality classes -----------------------------------------------------------


def _average_and_radius(sp: AlphaSpectrum) -> tuple[float, float]:
    """2m/n and the Cauchy-Schwarz radius sqrt((2m - (2m/n)^2) / (n - 1))."""
    avg = 2.0 * sp.m / sp.n
    return avg, math.sqrt(max(2.0 * sp.m - avg * avg, 0.0) / (sp.n - 1))


def _koolen_claim(sp: AlphaSpectrum, cert: ExtremalCertificate) -> bool:
    # Complete graphs, or regular graphs whose three distinct eigenvalues are
    # the average degree and the two symmetric Cauchy-Schwarz saturation values.
    if cert.is_complete:
        return True
    if not cert.is_regular:
        return False
    avg, r = _average_and_radius(sp)
    sat = (1.0 - sp.alpha) * r
    return _matches_values(sp.rho, [avg, sp.alpha * avg + sat, sp.alpha * avg - sat])


def _signless_claim(sp: AlphaSpectrum, cert: ExtremalCertificate) -> bool:
    if cert.is_complete:
        return True
    if not cert.is_regular:
        return False
    avg, r = _average_and_radius(sp)
    return _matches_values(2.0 * sp.rho, [2.0 * avg, avg + r, avg - r])


def _log_claim(sp: AlphaSpectrum, cert: ExtremalCertificate) -> bool:
    if cert.is_complete and sp.alpha == 0.0:
        return True
    if not cert.is_regular:
        return False
    k = float(sp.graph.degree_sequence[0])
    return _matches_values(sp.rho, [k, sp.alpha * k + 1.0, sp.alpha * k - 1.0])


def _inertia_claim(sp: AlphaSpectrum, cert: ExtremalCertificate) -> bool:
    return cert.is_regular and cert.adjacency_inertia == (1, 0, sp.n - 1)


_COMMON_GUARDS = (_CONNECTED, _N_AT_LEAST_3, _ALPHA_BELOW_1)

BOUNDS: tuple[Bound, ...] = (
    # Cauchy-Schwarz: sqrt(2S n).
    Bound("ub_mcclelland", "upper", (_CONNECTED,),
          lambda c: np.sqrt(c.two_s * c.n)),
    # (1-a)(2m/n) + sqrt((n-1)[2S - (1-a)^2 (2m/n)^2]).
    Bound("ub_koolen_alpha", "upper",
          (_CONNECTED, _N_AT_LEAST_3, ("requires alpha < 1", lambda c: c.alpha < 1.0),
           ("zagreb side condition fails for alpha > 1/2", _zagreb_side_condition)),
          _koolen_alpha, claim=_koolen_claim),
    # 2m/n + sqrt((n-1)[2m - (2m/n)^2]) on the plain energy.
    Bound("ub_koolen_energy", "upper",
          (_CONNECTED, ("requires alpha = 0", lambda c: c.alpha == 0.0), _N_AT_LEAST_3),
          _koolen_energy, claim=_koolen_claim),
    # 2m/n + sqrt((n-1)[2m + Zg - (4m^2/n)(1 + 1/n)]) against twice the
    # alpha = 1/2 energy (the signless-Laplacian energy).
    Bound("ub_koolen_signless", "upper",
          (_CONNECTED, ("requires alpha = 1/2", lambda c: c.alpha == 0.5), _N_AT_LEAST_3),
          _koolen_signless, target=lambda c: 2.0 * c.energy, claim=_signless_claim),
    # 2(n-1) + 2(eta-1)(alpha n - 1) - 4 alpha eta m / n.
    Bound("ub_eta", "upper",
          (_CONNECTED, _N_AT_LEAST_3,
           ("requires alpha in [1/2, 1)", lambda c: (0.5 <= c.alpha) & (c.alpha < 1.0))),
          lambda c: (2.0 * (c.n - 1) + 2.0 * (c.eta - 1) * (c.alpha * c.n - 1.0)
                     - 4.0 * c.alpha * c.eta * c.m / c.n),
          claim=lambda sp, cert: cert.is_complete),
    # Log-determinant upper bounds through sqrt(Zg/n) and through 2m/n.
    Bound("ub_log_zagreb", "upper", _LOG_GUARDS, _log_zagreb, claim=_log_claim),
    Bound("ub_log_degree", "upper", _LOG_GUARDS, _log_degree, claim=_log_claim),
    # sqrt(2(a^2 Zg + (1-a)^2 2m - 2(a m)^2/n)), evaluated exactly as printed.
    # Known to exceed the energy for alpha > 0 on some graphs; the verdict
    # records the violation rather than papering over it.
    Bound("lb_frobenius_asstated", "lower", _COMMON_GUARDS,
          lambda c: np.sqrt(2.0 * np.maximum(
              _sq(c.alpha) * c.zagreb + _sq(1.0 - c.alpha) * 2.0 * c.m
              - 2.0 * _sq(c.alpha * c.m) / c.n, 0.0))),
    # sqrt(2S): what the Cauchy-Schwarz argument supports once the centered
    # eigenvalues are used throughout.
    Bound("lb_frobenius_repaired", "lower", _COMMON_GUARDS,
          lambda c: np.sqrt(2.0 * c.two_s)),
    Bound("lb_average_degree", "lower", _COMMON_GUARDS,
          lambda c: 4.0 * (1.0 - c.alpha) * c.m / c.n, claim=_inertia_claim),
    Bound("lb_zagreb", "lower", _COMMON_GUARDS,
          lambda c: 2.0 * np.sqrt(c.zagreb / c.n) - 4.0 * c.alpha * c.m / c.n,
          claim=_inertia_claim),
    Bound("lb_maxdeg", "lower", _COMMON_GUARDS,
          lambda c: _star_radius_bound(c) - 4.0 * c.alpha * c.m / c.n,
          claim=lambda sp, cert: cert.is_star),
    # sqrt(Zg/n) + (n-1) + ln(Gamma/theta) - 2am/n. The trailing -2am/n keeps
    # the bound below the energy for alpha > 0; the uncentered variant without
    # it overshoots on dense graphs.
    Bound("lb_log", "lower", _LOG_GUARDS,
          lambda c: (np.sqrt(c.zagreb / c.n) + (c.n - 1)
                     + _log(c.gamma_det / c.theta) - c.shift),
          claim=_log_claim),
    # Half the star radius bound, on the spectral radius.
    Bound("rho_lb_star", "lower",
          (_CONNECTED, _ALPHA_BELOW_1, ("requires n >= 2", lambda c: c.n >= 2)),
          lambda c: 0.5 * _star_radius_bound(c),
          target=lambda c: c.rho_1, claim=lambda sp, cert: cert.is_star),
    # Chain rho_1 >= sqrt(Zg/n) >= 2m/n; holds requires both links.
    Bound("rho_lb_chain", "lower", (_CONNECTED,),
          lambda c: np.sqrt(c.zagreb / c.n),
          target=lambda c: c.rho_1, claim=lambda sp, cert: cert.is_regular,
          second_link=lambda c, value: (
              value >= 2.0 * c.m / c.n - HOLDS_RTOL * (1.0 + np.abs(value)))),
)

BOUND_IDS = tuple(b.id for b in BOUNDS)
_UPPER = np.array([[b.kind == "upper"] for b in BOUNDS])


class Verdicts:
    """Every bound on R (graph, alpha) rows. Row r is the graph
    `graph_ids[r]` at row r of `spectra`, whose `spectra[r]` builds that
    row's AlphaSpectrum; the verdicts are (15, R) arrays, rows of BOUNDS in
    BOUND_IDS order. `gap` is value - target for upper bounds and
    target - value for lower ones; holds means gap >= -HOLDS_RTOL *
    (1 + |value|) and the bound's `second_link`. Where a bound is not
    applicable its value, target and gap are NaN and holds and equality are
    False. The fourth verdict, the stated-class claim, is read per row by
    `claims(r)`."""

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
        """Row r's claims in BOUND_IDS order, certified once: whether the
        graph lies in each applicable bound's stated equality class, None
        where the bound is not applicable or names no class."""
        sp = self.spectra[r]
        cert = certify(sp)
        return tuple(None if code else b.claim(sp, cert)
                     for b, code in zip(BOUNDS, self.reason[:, r].tolist()))


def evaluate_many(graph_ids: Sequence[str], spectra: SpectrumTable,
                  equality_tol: float = EQUALITY_RTOL) -> Verdicts:
    """Every bound on every row of `spectra`, row r named `graph_ids[r]`,
    in one pass over its columns. Values and targets are computed on
    applicable rows only; guards run on all, under errstate."""
    c = spectra.columns
    reason = np.zeros((len(BOUNDS), len(spectra)), dtype=np.int8)
    value = np.full(reason.shape, np.nan)
    target = value.copy()
    link = np.ones(reason.shape, dtype=bool)
    shared = {}  # bounds with one guard tuple share its reasons and rows
    with np.errstate(all="ignore"):
        for i, b in enumerate(BOUNDS):
            if id(b.guards) not in shared:
                code = reason[i]
                for j in range(len(b.guards), 0, -1):
                    code[~b.guards[j - 1][1](c)] = j
                rows = (code == 0).nonzero()[0]
                if len(rows) == len(spectra):  # writing through a slice is cheaper
                    rows, sub = slice(None), c
                else:
                    sub = Columns(*(col[rows] for col in c)) if len(rows) else None
                shared[id(b.guards)] = code, rows, sub
            code, rows, sub = shared[id(b.guards)]
            reason[i] = code
            if sub is None:
                continue
            value[i, rows] = b.value(sub)
            target[i, rows] = b.target(sub)
            if b.second_link is not None:
                link[i, rows] = b.second_link(sub, value[i, rows])
        gap = np.where(_UPPER, value - target, target - value)
        holds = (gap >= -HOLDS_RTOL * (1.0 + np.abs(value))) & link
        equality = np.abs(gap) <= equality_tol * (1.0 + np.abs(target))
    return Verdicts(tuple(graph_ids), spectra, reason, value, target, gap, holds, equality)
