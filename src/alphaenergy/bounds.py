"""The published bounds on the centered-spectrum energy (or the spectral
radius) as one table, with numerical certification of the stated equality
classes.

`BOUNDS` holds one `Bound` row per bound, in `BOUND_IDS` order. A row is data:

- `guards`: ordered (reason, predicate) pairs, the bound's hypotheses. The
  first predicate that is false makes the bound not applicable with that
  reason. Hypothesis failures are reported, never raised, so sweeps walk
  straight through hypothesis-violating regions.
- `value(sp)`: the bound's closed form.
- `target(sp)`: the quantity it constrains, the energy unless stated.
- `claim(sp, cert)`: whether the graph lies in the equality class the paper
  names, or None when the paper names none.

Every row reads the spectrum at one alpha and the graph's invariants
(degrees, flags, adjacency spectrum) from its GraphInvariants, so no row
recomputes or re-solves them. `evaluate` certifies a spectrum once and runs
every row on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectra
from .graphcore import Graph
from .spectra import AlphaSpectrum

HOLDS_RTOL = 1e-9
EQUALITY_RTOL = 1e-7
DISTINCT_EIG_TOL = 1e-7
GAMMA_FLOOR = 1e-10


@dataclass(frozen=True)
class BoundEvaluation:
    """Verdict for one bound on one (graph, alpha) pair.

    `energy` holds whatever quantity the bound constrains: the energy for
    most bounds, twice the energy for the signless-Laplacian corollary, and
    the spectral radius for the rho_* bounds. `gap` is value - energy for
    upper bounds and energy - value for lower bounds, so holds means
    gap >= -1e-9 * (1 + |value|).
    """

    bound_id: str
    kind: str
    applicable: bool
    reason: str | None
    value: float | None
    energy: float | None
    holds: bool | None
    gap: float | None
    equality: bool | None
    equality_claim_matched: bool | None


@dataclass(frozen=True)
class ExtremalCertificate:
    """Structural facts used to check the stated equality classes."""

    is_complete: bool
    is_regular: bool
    is_star: bool
    distinct_alpha_eigenvalue_count: int
    adjacency_inertia: tuple[int, int, int]


def _merged_eigenvalues(values: np.ndarray, tol: float = DISTINCT_EIG_TOL) -> list[float]:
    """Collapse a descending eigenvalue sequence into per-cluster means."""
    groups: list[list[float]] = []
    for x in values.tolist():
        if groups and groups[-1][-1] - x <= tol:
            groups[-1].append(x)
        else:
            groups.append([x])
    return [sum(grp) / len(grp) for grp in groups]


def _matches_values(observed: np.ndarray, stated: list[float], tol: float = DISTINCT_EIG_TOL) -> bool:
    """Do the merged distinct eigenvalues equal the stated ones within tol?"""
    merged = _merged_eigenvalues(observed, tol)
    expect = sorted(stated, reverse=True)
    return len(merged) == len(expect) and all(
        abs(a - b) <= tol for a, b in zip(merged, expect)
    )


def certify(sp: AlphaSpectrum) -> ExtremalCertificate:
    """Structural certificate for the equality classes: completeness,
    regularity, star shape, distinct eigenvalue count, adjacency inertia.
    Reads the graph's invariants from `sp`; solves nothing."""
    inv = sp.graph
    return ExtremalCertificate(
        is_complete=inv.is_complete,
        is_regular=inv.is_regular,
        is_star=inv.is_star,
        distinct_alpha_eigenvalue_count=len(_merged_eigenvalues(sp.rho)),
        adjacency_inertia=inv.adjacency_inertia,
    )


Guard = tuple[str, Callable[[AlphaSpectrum], bool]]


@dataclass(frozen=True)
class Bound:
    """One published bound: hypotheses, closed form, constrained quantity
    and stated equality class. `second_link(sp, value)` must also be true for
    the bound to hold (the chain bound's middle inequality)."""

    id: str
    kind: str
    guards: tuple[Guard, ...]
    value: Callable[[AlphaSpectrum], float]
    target: Callable[[AlphaSpectrum], float] = lambda sp: sp.energy
    claim: Callable[[AlphaSpectrum, ExtremalCertificate], bool | None] = lambda sp, cert: None
    second_link: Callable[[AlphaSpectrum, float], bool] = lambda sp, value: True

    def evaluate(self, sp: AlphaSpectrum, cert: ExtremalCertificate,
                 equality_tol: float = EQUALITY_RTOL) -> BoundEvaluation:
        """This bound's verdict on one spectrum, given its certificate."""
        for reason, ok in self.guards:
            if not ok(sp):
                return BoundEvaluation(
                    bound_id=self.id, kind=self.kind, applicable=False,
                    reason=reason, value=None, energy=None, holds=None,
                    gap=None, equality=None, equality_claim_matched=None,
                )
        value = self.value(sp)
        target = self.target(sp)
        gap = (value - target) if self.kind == "upper" else (target - value)
        holds = bool(gap >= -HOLDS_RTOL * (1.0 + abs(value))) and self.second_link(sp, value)
        return BoundEvaluation(
            bound_id=self.id,
            kind=self.kind,
            applicable=True,
            reason=None,
            value=float(value),
            energy=float(target),
            holds=holds,
            gap=float(gap),
            equality=bool(abs(gap) <= equality_tol * (1.0 + abs(target))),
            equality_claim_matched=self.claim(sp, cert),
        )


# -- hypotheses -------------------------------------------------------------

_CONNECTED: Guard = ("requires connected", lambda sp: sp.connected)
_N_AT_LEAST_3: Guard = ("requires n >= 3", lambda sp: sp.n >= 3)
_ALPHA_BELOW_1: Guard = ("requires alpha in [0, 1)", lambda sp: sp.alpha < 1.0)
_LOG_GUARDS: tuple[Guard, ...] = (
    _CONNECTED,
    _N_AT_LEAST_3,
    ("requires alpha <= 1 - n/(2m)", lambda sp: sp.alpha <= 1.0 - sp.n / (2.0 * sp.m)),
    ("singular shift", lambda sp: sp.gamma_det > GAMMA_FLOOR),
    ("requires theta > 0", lambda sp: sp.theta > 0.0),
)


def _zagreb_side_condition(sp: AlphaSpectrum) -> bool:
    """For alpha > 1/2, Zg lies above 8m^2/n - 2m or below 4m^2/n."""
    return (
        sp.alpha <= 0.5
        or sp.zagreb > 8.0 * sp.m * sp.m / sp.n - 2.0 * sp.m
        or sp.zagreb < 4.0 * sp.m * sp.m / sp.n
    )


# -- closed forms -------------------------------------------------------------


def _koolen_alpha(sp: AlphaSpectrum) -> float:
    avg = 2.0 * sp.m / sp.n
    inner = sp.two_s - (1.0 - sp.alpha) ** 2 * avg * avg
    return (1.0 - sp.alpha) * avg + math.sqrt((sp.n - 1) * max(inner, 0.0))


def _koolen_energy(sp: AlphaSpectrum) -> float:
    avg = 2.0 * sp.m / sp.n
    return avg + math.sqrt((sp.n - 1) * max(2.0 * sp.m - avg * avg, 0.0))


def _koolen_signless(sp: AlphaSpectrum) -> float:
    avg = 2.0 * sp.m / sp.n
    inner = 2.0 * sp.m + sp.zagreb - (4.0 * sp.m * sp.m / sp.n) * (1.0 + 1.0 / sp.n)
    return avg + math.sqrt((sp.n - 1) * max(inner, 0.0))


def _log_zagreb(sp: AlphaSpectrum) -> float:
    sq = math.sqrt(sp.zagreb / sp.n)
    return (
        sp.alpha ** 2 * sp.zagreb
        + (1.0 - sp.alpha) ** 2 * 2.0 * sp.m
        - (2.0 * sp.alpha * sp.m / sp.n ** 2)
        * (2.0 * sp.alpha * sp.n * sp.m + 2.0 * sp.alpha * sp.m + sp.n)
        + math.log(sp.theta / sp.gamma_det)
        + (4.0 * sp.alpha * sp.m / sp.n) * sq
        - sq * (sq - 1.0)
    )


def _log_degree(sp: AlphaSpectrum) -> float:
    return (
        sp.alpha ** 2 * sp.zagreb
        + (1.0 - sp.alpha) ** 2 * 2.0 * sp.m
        + math.log(2.0 * sp.m * (1.0 - sp.alpha) / (sp.n * sp.gamma_det))
        - (2.0 * sp.alpha * sp.m / sp.n ** 2)
        * (2.0 * sp.n * sp.alpha * sp.m + 2.0 * sp.alpha * sp.m - 4.0 * sp.m + sp.n)
        - (2.0 * sp.m / sp.n ** 2) * (2.0 * sp.m - sp.n)
    )


def _star_radius_bound(sp: AlphaSpectrum) -> float:
    """a(D+1) + sqrt(a^2 (D+1)^2 + 4D(1-2a)), D the maximum degree."""
    alpha, max_deg = sp.alpha, sp.graph.degree_sequence[0]
    disc = alpha ** 2 * (max_deg + 1) ** 2 + 4.0 * max_deg * (1.0 - 2.0 * alpha)
    return alpha * (max_deg + 1) + math.sqrt(max(disc, 0.0))


# -- equality classes -----------------------------------------------------------


def _koolen_claim(sp: AlphaSpectrum, cert: ExtremalCertificate) -> bool:
    # Complete graphs, or regular graphs whose three distinct eigenvalues are
    # the average degree and the two symmetric Cauchy-Schwarz saturation values.
    if cert.is_complete:
        return True
    if not cert.is_regular:
        return False
    avg = 2.0 * sp.m / sp.n
    r = math.sqrt(max(2.0 * sp.m - avg * avg, 0.0) / (sp.n - 1))
    sat = (1.0 - sp.alpha) * r
    return _matches_values(sp.rho, [avg, sp.alpha * avg + sat, sp.alpha * avg - sat])


def _signless_claim(sp: AlphaSpectrum, cert: ExtremalCertificate) -> bool:
    if cert.is_complete:
        return True
    if not cert.is_regular:
        return False
    avg = 2.0 * sp.m / sp.n
    r = math.sqrt(max(2.0 * sp.m - avg * avg, 0.0) / (sp.n - 1))
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
          lambda sp: math.sqrt(sp.two_s * sp.n)),
    # (1-a)(2m/n) + sqrt((n-1)[2S - (1-a)^2 (2m/n)^2]).
    Bound("ub_koolen_alpha", "upper",
          (_CONNECTED, _N_AT_LEAST_3, ("requires alpha < 1", lambda sp: sp.alpha < 1.0),
           ("zagreb side condition fails for alpha > 1/2", _zagreb_side_condition)),
          _koolen_alpha, claim=_koolen_claim),
    # 2m/n + sqrt((n-1)[2m - (2m/n)^2]) on the plain energy.
    Bound("ub_koolen_energy", "upper",
          (_CONNECTED, ("requires alpha = 0", lambda sp: sp.alpha == 0.0), _N_AT_LEAST_3),
          _koolen_energy, claim=_koolen_claim),
    # 2m/n + sqrt((n-1)[2m + Zg - (4m^2/n)(1 + 1/n)]) against twice the
    # alpha = 1/2 energy (the signless-Laplacian energy).
    Bound("ub_koolen_signless", "upper",
          (_CONNECTED, ("requires alpha = 1/2", lambda sp: sp.alpha == 0.5), _N_AT_LEAST_3),
          _koolen_signless, target=lambda sp: 2.0 * sp.energy, claim=_signless_claim),
    # 2(n-1) + 2(eta-1)(alpha n - 1) - 4 alpha eta m / n.
    Bound("ub_eta", "upper",
          (_CONNECTED, _N_AT_LEAST_3,
           ("requires alpha in [1/2, 1)", lambda sp: 0.5 <= sp.alpha < 1.0)),
          lambda sp: (2.0 * (sp.n - 1) + 2.0 * (sp.eta - 1) * (sp.alpha * sp.n - 1.0)
                      - 4.0 * sp.alpha * sp.eta * sp.m / sp.n),
          claim=lambda sp, cert: cert.is_complete),
    # Log-determinant upper bounds through sqrt(Zg/n) and through 2m/n.
    Bound("ub_log_zagreb", "upper", _LOG_GUARDS, _log_zagreb, claim=_log_claim),
    Bound("ub_log_degree", "upper", _LOG_GUARDS, _log_degree, claim=_log_claim),
    # sqrt(2(a^2 Zg + (1-a)^2 2m - 2(a m)^2/n)), evaluated exactly as printed.
    # Known to exceed the energy for alpha > 0 on some graphs; the verdict
    # records the violation rather than papering over it.
    Bound("lb_frobenius_asstated", "lower", _COMMON_GUARDS,
          lambda sp: math.sqrt(2.0 * max(
              sp.alpha ** 2 * sp.zagreb + (1.0 - sp.alpha) ** 2 * 2.0 * sp.m
              - 2.0 * (sp.alpha * sp.m) ** 2 / sp.n, 0.0))),
    # sqrt(2S): what the Cauchy-Schwarz argument supports once the centered
    # eigenvalues are used throughout.
    Bound("lb_frobenius_repaired", "lower", _COMMON_GUARDS,
          lambda sp: math.sqrt(2.0 * sp.two_s)),
    Bound("lb_average_degree", "lower", _COMMON_GUARDS,
          lambda sp: 4.0 * (1.0 - sp.alpha) * sp.m / sp.n, claim=_inertia_claim),
    Bound("lb_zagreb", "lower", _COMMON_GUARDS,
          lambda sp: 2.0 * math.sqrt(sp.zagreb / sp.n) - 4.0 * sp.alpha * sp.m / sp.n,
          claim=_inertia_claim),
    Bound("lb_maxdeg", "lower", _COMMON_GUARDS,
          lambda sp: _star_radius_bound(sp) - 4.0 * sp.alpha * sp.m / sp.n,
          claim=lambda sp, cert: cert.is_star),
    # sqrt(Zg/n) + (n-1) + ln(Gamma/theta) - 2am/n. The trailing -2am/n keeps
    # the bound below the energy for alpha > 0; the uncentered variant without
    # it overshoots on dense graphs.
    Bound("lb_log", "lower", _LOG_GUARDS,
          lambda sp: (math.sqrt(sp.zagreb / sp.n) + (sp.n - 1)
                      + math.log(sp.gamma_det / sp.theta) - sp.shift),
          claim=_log_claim),
    # Half the star radius bound, on the spectral radius.
    Bound("rho_lb_star", "lower",
          (_CONNECTED, _ALPHA_BELOW_1, ("requires n >= 2", lambda sp: sp.n >= 2)),
          lambda sp: 0.5 * _star_radius_bound(sp),
          target=lambda sp: float(sp.rho[0]), claim=lambda sp, cert: cert.is_star),
    # Chain rho_1 >= sqrt(Zg/n) >= 2m/n; holds requires both links.
    Bound("rho_lb_chain", "lower", (_CONNECTED,),
          lambda sp: math.sqrt(sp.zagreb / sp.n),
          target=lambda sp: float(sp.rho[0]), claim=lambda sp, cert: cert.is_regular,
          second_link=lambda sp, value: (
              value >= 2.0 * sp.m / sp.n - HOLDS_RTOL * (1.0 + abs(value)))),
)

BOUND_IDS = tuple(b.id for b in BOUNDS)


def evaluate(
    sp: AlphaSpectrum, equality_tol: float = EQUALITY_RTOL
) -> tuple[BoundEvaluation, ...]:
    """Every bound on one graph's spectrum at one alpha, in BOUND_IDS order,
    certified once."""
    cert = certify(sp)
    return tuple(b.evaluate(sp, cert, equality_tol) for b in BOUNDS)


def evaluate_all(
    g: Graph, alpha: float, equality_tol: float = EQUALITY_RTOL
) -> tuple[BoundEvaluation, ...]:
    """Evaluate every bound on one (graph, alpha) pair, in BOUND_IDS order."""
    return evaluate(spectra.alpha_spectrum(g, alpha), equality_tol)
