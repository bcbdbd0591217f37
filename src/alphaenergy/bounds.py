"""One verdict per published bound on the centered-spectrum energy (or the
spectral radius), with numerical certification of the stated equality classes.

Every operation takes the graph plus its precomputed AlphaSpectrum and
returns a BoundEvaluation. Facts about the graph alone (degrees, flags,
adjacency spectrum) are read from the spectrum's GraphInvariants, so no
operation recomputes or re-solves them. Hypothesis failures are reported as
applicable=False with a reason, never raised: sweeps must be able to walk
straight through hypothesis-violating regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .graphcore import Graph
from .spectra import AlphaSpectrum

HOLDS_RTOL = 1e-9
EQUALITY_RTOL = 1e-7
DISTINCT_EIG_TOL = 1e-7
GAMMA_FLOOR = 1e-10

BOUND_IDS = (
    "ub_mcclelland",
    "ub_koolen_alpha",
    "ub_koolen_energy",
    "ub_koolen_signless",
    "ub_eta",
    "ub_log_zagreb",
    "ub_log_degree",
    "lb_frobenius_asstated",
    "lb_frobenius_repaired",
    "lb_average_degree",
    "lb_zagreb",
    "lb_maxdeg",
    "lb_log",
    "rho_lb_star",
    "rho_lb_chain",
)


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


def _na(bound_id: str, kind: str, reason: str) -> BoundEvaluation:
    return BoundEvaluation(
        bound_id=bound_id,
        kind=kind,
        applicable=False,
        reason=reason,
        value=None,
        energy=None,
        holds=None,
        gap=None,
        equality=None,
        equality_claim_matched=None,
    )


def _verdict(
    bound_id: str,
    kind: str,
    value: float,
    target: float,
    claim: bool | None,
    equality_tol: float,
    extra_holds: bool = True,
) -> BoundEvaluation:
    gap = (value - target) if kind == "upper" else (target - value)
    holds = bool(gap >= -HOLDS_RTOL * (1.0 + abs(value))) and extra_holds
    equality = bool(abs(gap) <= equality_tol * (1.0 + abs(target)))
    return BoundEvaluation(
        bound_id=bound_id,
        kind=kind,
        applicable=True,
        reason=None,
        value=float(value),
        energy=float(target),
        holds=holds,
        gap=float(gap),
        equality=equality,
        equality_claim_matched=claim,
    )


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


def certify(g: Graph, sp: AlphaSpectrum) -> ExtremalCertificate:
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


def _cert(g: Graph, sp: AlphaSpectrum, cert: ExtremalCertificate | None) -> ExtremalCertificate:
    return cert if cert is not None else certify(g, sp)


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


def _log_claim(sp: AlphaSpectrum, cert: ExtremalCertificate) -> bool:
    if cert.is_complete and sp.alpha == 0.0:
        return True
    if not cert.is_regular:
        return False
    k = float(sp.graph.degree_sequence[0])
    return _matches_values(sp.rho, [k, sp.alpha * k + 1.0, sp.alpha * k - 1.0])


def _inertia_claim(cert: ExtremalCertificate, n: int) -> bool:
    return cert.is_regular and cert.adjacency_inertia == (1, 0, n - 1)


# -- upper bounds ---------------------------------------------------------


def ub_mcclelland(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """Cauchy-Schwarz upper bound sqrt(2S * n) on the energy."""
    if not sp.connected:
        return _na("ub_mcclelland", "upper", "requires connected")
    return _verdict(
        "ub_mcclelland", "upper", math.sqrt(sp.two_s * sp.n), sp.energy,
        None, equality_tol,
    )


def ub_koolen_alpha(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """(1-a)(2m/n) + sqrt((n-1)[2S - (1-a)^2 (2m/n)^2]) upper bound."""
    if not sp.connected:
        return _na("ub_koolen_alpha", "upper", "requires connected")
    if sp.n < 3:
        return _na("ub_koolen_alpha", "upper", "requires n >= 3")
    if sp.alpha >= 1.0:
        return _na("ub_koolen_alpha", "upper", "requires alpha < 1")
    if sp.alpha > 0.5:
        zg_high = sp.zagreb > 8.0 * sp.m * sp.m / sp.n - 2.0 * sp.m
        zg_low = sp.zagreb < 4.0 * sp.m * sp.m / sp.n
        if not (zg_high or zg_low):
            return _na(
                "ub_koolen_alpha", "upper",
                "zagreb side condition fails for alpha > 1/2",
            )
    avg = 2.0 * sp.m / sp.n
    inner = sp.two_s - (1.0 - sp.alpha) ** 2 * avg * avg
    value = (1.0 - sp.alpha) * avg + math.sqrt((sp.n - 1) * max(inner, 0.0))
    return _verdict(
        "ub_koolen_alpha", "upper", value, sp.energy,
        _koolen_claim(sp, _cert(g, sp, cert)), equality_tol,
    )


def ub_koolen_energy(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """2m/n + sqrt((n-1)[2m - (2m/n)^2]) upper bound on the plain energy (alpha = 0)."""
    if not sp.connected:
        return _na("ub_koolen_energy", "upper", "requires connected")
    if sp.alpha != 0.0:
        return _na("ub_koolen_energy", "upper", "requires alpha = 0")
    if sp.n < 3:
        return _na("ub_koolen_energy", "upper", "requires n >= 3")
    avg = 2.0 * sp.m / sp.n
    value = avg + math.sqrt((sp.n - 1) * max(2.0 * sp.m - avg * avg, 0.0))
    return _verdict(
        "ub_koolen_energy", "upper", value, sp.energy,
        _koolen_claim(sp, _cert(g, sp, cert)), equality_tol,
    )


def ub_koolen_signless(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """2m/n + sqrt((n-1)[2m + Zg - (4m^2/n)(1 + 1/n)]) against twice the
    alpha = 1/2 energy (the signless-Laplacian energy)."""
    if not sp.connected:
        return _na("ub_koolen_signless", "upper", "requires connected")
    if sp.alpha != 0.5:
        return _na("ub_koolen_signless", "upper", "requires alpha = 1/2")
    if sp.n < 3:
        return _na("ub_koolen_signless", "upper", "requires n >= 3")
    avg = 2.0 * sp.m / sp.n
    inner = 2.0 * sp.m + sp.zagreb - (4.0 * sp.m * sp.m / sp.n) * (1.0 + 1.0 / sp.n)
    value = avg + math.sqrt((sp.n - 1) * max(inner, 0.0))
    cert = _cert(g, sp, cert)
    if cert.is_complete:
        claim = True
    elif cert.is_regular:
        r = math.sqrt(max(2.0 * sp.m - avg * avg, 0.0) / (sp.n - 1))
        claim = _matches_values(2.0 * sp.rho, [2.0 * avg, avg + r, avg - r])
    else:
        claim = False
    return _verdict(
        "ub_koolen_signless", "upper", value, 2.0 * sp.energy, claim, equality_tol,
    )


def ub_eta(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """2(n-1) + 2(eta-1)(alpha n - 1) - 4 alpha eta m / n upper bound."""
    if not sp.connected:
        return _na("ub_eta", "upper", "requires connected")
    if sp.n < 3:
        return _na("ub_eta", "upper", "requires n >= 3")
    if not 0.5 <= sp.alpha < 1.0:
        return _na("ub_eta", "upper", "requires alpha in [1/2, 1)")
    value = (
        2.0 * (sp.n - 1)
        + 2.0 * (sp.eta - 1) * (sp.alpha * sp.n - 1.0)
        - 4.0 * sp.alpha * sp.eta * sp.m / sp.n
    )
    return _verdict(
        "ub_eta", "upper", value, sp.energy,
        _cert(g, sp, cert).is_complete, equality_tol,
    )


def _log_applicability(bound_id: str, kind: str, sp: AlphaSpectrum) -> BoundEvaluation | None:
    if not sp.connected:
        return _na(bound_id, kind, "requires connected")
    if sp.n < 3:
        return _na(bound_id, kind, "requires n >= 3")
    if sp.alpha > 1.0 - sp.n / (2.0 * sp.m):
        return _na(bound_id, kind, "requires alpha <= 1 - n/(2m)")
    if sp.gamma_det <= GAMMA_FLOOR:
        return _na(bound_id, kind, "singular shift")
    if sp.theta <= 0.0:
        return _na(bound_id, kind, "requires theta > 0")
    return None


def ub_log_zagreb(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """Log-determinant upper bound through sqrt(Zg/n)."""
    na = _log_applicability("ub_log_zagreb", "upper", sp)
    if na is not None:
        return na
    sq = math.sqrt(sp.zagreb / sp.n)
    value = (
        sp.alpha ** 2 * sp.zagreb
        + (1.0 - sp.alpha) ** 2 * 2.0 * sp.m
        - (2.0 * sp.alpha * sp.m / sp.n ** 2)
        * (2.0 * sp.alpha * sp.n * sp.m + 2.0 * sp.alpha * sp.m + sp.n)
        + math.log(sp.theta / sp.gamma_det)
        + (4.0 * sp.alpha * sp.m / sp.n) * sq
        - sq * (sq - 1.0)
    )
    return _verdict(
        "ub_log_zagreb", "upper", value, sp.energy,
        _log_claim(sp, _cert(g, sp, cert)), equality_tol,
    )


def ub_log_degree(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """Log-determinant upper bound through the average degree 2m/n."""
    na = _log_applicability("ub_log_degree", "upper", sp)
    if na is not None:
        return na
    value = (
        sp.alpha ** 2 * sp.zagreb
        + (1.0 - sp.alpha) ** 2 * 2.0 * sp.m
        + math.log(2.0 * sp.m * (1.0 - sp.alpha) / (sp.n * sp.gamma_det))
        - (2.0 * sp.alpha * sp.m / sp.n ** 2)
        * (2.0 * sp.n * sp.alpha * sp.m + 2.0 * sp.alpha * sp.m - 4.0 * sp.m + sp.n)
        - (2.0 * sp.m / sp.n ** 2) * (2.0 * sp.m - sp.n)
    )
    return _verdict(
        "ub_log_degree", "upper", value, sp.energy,
        _log_claim(sp, _cert(g, sp, cert)), equality_tol,
    )


# -- lower bounds ---------------------------------------------------------


def lb_frobenius_asstated(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """sqrt(2(a^2 Zg + (1-a)^2 2m - 2(a m)^2/n)), evaluated exactly as
    printed. Known to exceed the energy for alpha > 0 on some graphs; the
    verdict records the violation rather than papering over it."""
    if not sp.connected:
        return _na("lb_frobenius_asstated", "lower", "requires connected")
    if sp.n < 3:
        return _na("lb_frobenius_asstated", "lower", "requires n >= 3")
    if sp.alpha >= 1.0:
        return _na("lb_frobenius_asstated", "lower", "requires alpha in [0, 1)")
    inner = (
        sp.alpha ** 2 * sp.zagreb
        + (1.0 - sp.alpha) ** 2 * 2.0 * sp.m
        - 2.0 * (sp.alpha * sp.m) ** 2 / sp.n
    )
    return _verdict(
        "lb_frobenius_asstated", "lower", math.sqrt(2.0 * max(inner, 0.0)),
        sp.energy, None, equality_tol,
    )


def lb_frobenius_repaired(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """sqrt(2 * sum s_i^2): the inequality the Cauchy-Schwarz argument
    actually supports once the centered eigenvalues are used throughout."""
    if not sp.connected:
        return _na("lb_frobenius_repaired", "lower", "requires connected")
    if sp.n < 3:
        return _na("lb_frobenius_repaired", "lower", "requires n >= 3")
    if sp.alpha >= 1.0:
        return _na("lb_frobenius_repaired", "lower", "requires alpha in [0, 1)")
    return _verdict(
        "lb_frobenius_repaired", "lower", math.sqrt(2.0 * sp.two_s),
        sp.energy, None, equality_tol,
    )


def lb_average_degree(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """4(1-alpha)m/n lower bound."""
    if not sp.connected:
        return _na("lb_average_degree", "lower", "requires connected")
    if sp.n < 3:
        return _na("lb_average_degree", "lower", "requires n >= 3")
    if sp.alpha >= 1.0:
        return _na("lb_average_degree", "lower", "requires alpha in [0, 1)")
    return _verdict(
        "lb_average_degree", "lower", 4.0 * (1.0 - sp.alpha) * sp.m / sp.n,
        sp.energy, _inertia_claim(_cert(g, sp, cert), sp.n), equality_tol,
    )


def lb_zagreb(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """2 sqrt(Zg/n) - 4 alpha m / n lower bound."""
    if not sp.connected:
        return _na("lb_zagreb", "lower", "requires connected")
    if sp.n < 3:
        return _na("lb_zagreb", "lower", "requires n >= 3")
    if sp.alpha >= 1.0:
        return _na("lb_zagreb", "lower", "requires alpha in [0, 1)")
    value = 2.0 * math.sqrt(sp.zagreb / sp.n) - 4.0 * sp.alpha * sp.m / sp.n
    return _verdict(
        "lb_zagreb", "lower", value, sp.energy,
        _inertia_claim(_cert(g, sp, cert), sp.n), equality_tol,
    )


def _star_radius_bound(alpha: float, max_deg: int) -> float:
    disc = alpha ** 2 * (max_deg + 1) ** 2 + 4.0 * max_deg * (1.0 - 2.0 * alpha)
    return alpha * (max_deg + 1) + math.sqrt(max(disc, 0.0))


def lb_maxdeg(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """a(D+1) + sqrt(a^2 (D+1)^2 + 4D(1-2a)) - 4am/n lower bound, D = max degree."""
    if not sp.connected:
        return _na("lb_maxdeg", "lower", "requires connected")
    if sp.n < 3:
        return _na("lb_maxdeg", "lower", "requires n >= 3")
    if sp.alpha >= 1.0:
        return _na("lb_maxdeg", "lower", "requires alpha in [0, 1)")
    value = _star_radius_bound(sp.alpha, sp.graph.degree_sequence[0]) - 4.0 * sp.alpha * sp.m / sp.n
    return _verdict(
        "lb_maxdeg", "lower", value, sp.energy,
        _cert(g, sp, cert).is_star, equality_tol,
    )


def lb_log(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """Log-determinant lower bound sqrt(Zg/n) + (n-1) + ln(Gamma/theta) - 2am/n.

    The trailing -2am/n keeps the bound below the energy for alpha > 0; the
    uncentered variant without it overshoots on dense graphs.
    """
    na = _log_applicability("lb_log", "lower", sp)
    if na is not None:
        return na
    value = (
        math.sqrt(sp.zagreb / sp.n)
        + (sp.n - 1)
        + math.log(sp.gamma_det / sp.theta)
        - sp.shift
    )
    return _verdict(
        "lb_log", "lower", value, sp.energy,
        _log_claim(sp, _cert(g, sp, cert)), equality_tol,
    )


# -- spectral-radius bounds ------------------------------------------------


def rho_lb_star(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """(a(D+1) + sqrt(a^2 (D+1)^2 + 4D(1-2a)))/2 lower bound on the
    spectral radius (not the energy)."""
    if not sp.connected:
        return _na("rho_lb_star", "lower", "requires connected")
    if sp.alpha >= 1.0:
        return _na("rho_lb_star", "lower", "requires alpha in [0, 1)")
    if sp.n < 2:
        return _na("rho_lb_star", "lower", "requires n >= 2")
    value = 0.5 * _star_radius_bound(sp.alpha, sp.graph.degree_sequence[0])
    return _verdict(
        "rho_lb_star", "lower", value, float(sp.rho[0]),
        _cert(g, sp, cert).is_star, equality_tol,
    )


def rho_lb_chain(g, sp, cert=None, equality_tol=EQUALITY_RTOL):
    """Chain rho_1 >= sqrt(Zg/n) >= 2m/n on the spectral radius; holds
    requires both links."""
    if not sp.connected:
        return _na("rho_lb_chain", "lower", "requires connected")
    value = math.sqrt(sp.zagreb / sp.n)
    second_link = value >= 2.0 * sp.m / sp.n - HOLDS_RTOL * (1.0 + abs(value))
    return _verdict(
        "rho_lb_chain", "lower", value, float(sp.rho[0]),
        _cert(g, sp, cert).is_regular, equality_tol, extra_holds=second_link,
    )


_OPS = (
    ub_mcclelland,
    ub_koolen_alpha,
    ub_koolen_energy,
    ub_koolen_signless,
    ub_eta,
    ub_log_zagreb,
    ub_log_degree,
    lb_frobenius_asstated,
    lb_frobenius_repaired,
    lb_average_degree,
    lb_zagreb,
    lb_maxdeg,
    lb_log,
    rho_lb_star,
    rho_lb_chain,
)


def evaluate(
    g: Graph, sp: AlphaSpectrum, equality_tol: float = EQUALITY_RTOL
) -> tuple[BoundEvaluation, ...]:
    """Every bound on one graph's spectrum at one alpha, in BOUND_IDS order,
    certified once."""
    cert = certify(g, sp)
    return tuple(op(g, sp, cert=cert, equality_tol=equality_tol) for op in _OPS)


def evaluate_all(
    g: Graph, alpha: float, equality_tol: float = EQUALITY_RTOL
) -> tuple[BoundEvaluation, ...]:
    """Evaluate every bound on one (graph, alpha) pair, in BOUND_IDS order."""
    return evaluate(g, spectra.alpha_spectrum(g, alpha), equality_tol)
