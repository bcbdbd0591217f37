"""Corpus drivers: single-graph reports, sweeps over alpha grids, randomized
fuzzing with edge-deletion monotonicity checks, and equality-case hunting.

Every driver goes through `analyze_graph`, or `spectra.graph_spectra` for the
hunt: a graph's invariants are built once and its whole alpha list is solved
in one stacked eigensolve. `analyze` is the one-alpha case of the same path.

Reports are plain dataclasses. The CSV writer formats each float once to 12
significant digits with `fmt12`; the JSON writer rounds each float through
`round12`, which parses that same string back. So the two formats carry
identical numeric values, and reruns produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass

import numpy as np

from . import bounds, densela, graphcore, spectra
from .bounds import BOUND_IDS, BoundEvaluation, ExtremalCertificate
from .graphcore import Graph

DEFAULT_ALPHA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)

# Expected to fail for alpha > 0; excluded from failure exit status unless
# the caller asks for strict accounting.
EXPECTED_VIOLATION_IDS = frozenset({"lb_frobenius_asstated"})

CSV_COLUMNS = (
    "graph_id", "n", "m", "zagreb", "alpha", "spectrum", "energy", "eta",
    "id", "kind", "applicable", "reason", "value", "holds", "gap", "equality",
)


@dataclass(frozen=True)
class Report:
    """All bound verdicts for one (graph, alpha) pair."""

    graph_id: str
    n: int
    m: int
    zagreb: int
    alpha: float
    spectrum: tuple[float, ...]
    energy: float
    eta: int
    evaluations: tuple[BoundEvaluation, ...]


@dataclass(frozen=True)
class EqualityHit:
    """One equality-case occurrence found by the hunt driver."""

    graph_id: str
    alpha: float
    bound_id: str
    value: float
    energy: float
    gap: float
    certificate: ExtremalCertificate
    claim_matched: bool | None

    @property
    def contradicts_claim(self) -> bool:
        return self.claim_matched is False


def analyze_graph(graph_id: str, g: Graph, alphas: list[float],
                  equality_tol: float = bounds.EQUALITY_RTOL) -> list[Report]:
    """Spectrum plus every bound verdict for one graph, one report per alpha."""
    return [
        Report(
            graph_id=graph_id,
            n=sp.n,
            m=sp.m,
            zagreb=sp.zagreb,
            alpha=sp.alpha,
            spectrum=tuple(sp.rho.tolist()),
            energy=sp.energy,
            eta=sp.eta,
            evaluations=bounds.evaluate(sp, equality_tol),
        )
        for sp in spectra.graph_spectra(g, alphas)
    ]


def analyze(graph_id: str, g: Graph, alpha: float,
            equality_tol: float = bounds.EQUALITY_RTOL) -> Report:
    """Spectrum plus every bound verdict for one graph at one alpha."""
    return analyze_graph(graph_id, g, [alpha], equality_tol)[0]


# -- corpus ingestion ------------------------------------------------------


def load_corpus(path: str) -> tuple[list[tuple[str, Graph]], list[str]]:
    """Read graphs from a file, auto-detected by its first payload line.

    A leading 'n m' integer pair means one edge-list graph; anything else is
    treated as graph6, one record per line. Returns (graphs, skipped) where
    skipped holds human-readable parse-failure notes.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("latin-1")
    first = ""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            first = stripped
            break
    fields = first.split()
    if len(fields) == 2 and all(f.lstrip("-").isdigit() for f in fields):
        try:
            g = graphcore.parse_edge_list(text)
        except graphcore.MalformedEdgeListError as exc:
            return [], [f"{path}: {exc}"]
        return [(f"{path}:1", g)], []
    graphs: list[tuple[str, Graph]] = []
    skipped: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        record = line.strip()
        if not record or record.startswith("#"):
            continue
        try:
            graphs.append((record, graphcore.parse_graph6(record)))
        except graphcore.MalformedGraph6Error as exc:
            skipped.append(f"{path}:{lineno}: {exc}")
    return graphs, skipped


# -- sweep ------------------------------------------------------------------


def run_sweep(corpus: list[tuple[str, Graph]], alphas: list[float],
              equality_tol: float = bounds.EQUALITY_RTOL) -> list[Report]:
    """One report per (graph, alpha), in corpus order then alpha order."""
    if not corpus:
        raise ValueError("empty corpus")
    return [
        rep
        for graph_id, g in corpus
        for rep in analyze_graph(graph_id, g, alphas, equality_tol)
    ]


def summarize(reports: list[Report]) -> dict[str, dict[str, int]]:
    """Per-bound counts of applicable / holds / violations / equalities."""
    summary = {
        bid: {"applicable": 0, "holds": 0, "violations": 0, "equalities": 0}
        for bid in BOUND_IDS
    }
    for rep in reports:
        for ev in rep.evaluations:
            row = summary[ev.bound_id]
            if not ev.applicable:
                continue
            row["applicable"] += 1
            if ev.holds:
                row["holds"] += 1
            else:
                row["violations"] += 1
            if ev.equality:
                row["equalities"] += 1
    return summary


def violations(reports: list[Report], strict: bool = False) -> list[tuple[str, float, str]]:
    """(graph_id, alpha, bound_id) triples where an applicable bound failed.

    Violations of the documented always-violated lower bound are excluded
    unless `strict` is set.
    """
    out = []
    for rep in reports:
        for ev in rep.evaluations:
            if not ev.applicable or ev.holds:
                continue
            if not strict and ev.bound_id in EXPECTED_VIOLATION_IDS:
                continue
            out.append((rep.graph_id, rep.alpha, ev.bound_id))
    return out


# -- fuzz --------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzResult:
    reports: tuple[Report, ...]
    monotonicity_violations: tuple[tuple[str, float, str], ...]
    generated: int


def _random_connected_graph(rng: np.random.Generator, n_min: int, n_max: int,
                            trial: int) -> Graph:
    # Every fourth graph comes from the pairing model (k <= 4 keeps the
    # rejection rate low); the rest are connectivity-retried G(n, p) draws.
    n = int(rng.integers(n_min, n_max + 1))
    if trial % 4 == 3 and n >= 4:
        for _ in range(50):
            k = int(rng.integers(2, min(5, n)))
            if (n * k) % 2 != 0:
                k = k - 1 if k > 2 else k + 1
            if not 2 <= k < n:
                continue
            g = graphcore.random_regular(n, k, int(rng.integers(0, 2**63)))
            if graphcore.is_connected(g):
                return g
    p = float(rng.uniform(0.25, 0.75))
    return graphcore.erdos_renyi(
        n, p, int(rng.integers(0, 2**63)), connected=True
    )


def run_fuzz(n_min: int, n_max: int, trials: int, seed: int,
             alphas: list[float],
             equality_tol: float = bounds.EQUALITY_RTOL) -> FuzzResult:
    """Evaluate every bound on random connected graphs, plus the
    edge-deletion monotonicity property for alpha >= 1/2."""
    if not 3 <= n_min <= n_max <= 62:
        raise ValueError(f"n range must satisfy 3 <= n_min <= n_max <= 62, got [{n_min}, {n_max}]")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    reports: list[Report] = []
    mono: list[tuple[str, float, str]] = []
    for trial in range(trials):
        g = _random_connected_graph(rng, n_min, n_max, trial)
        gid = graphcore.serialize_graph6(g).decode("ascii")
        graph_reports = analyze_graph(gid, g, alphas, equality_tol)
        reports.extend(graph_reports)
        if g.m == 0:
            continue
        edge = sorted(g.edges)[int(rng.integers(0, g.m))]
        checked = [rep for rep in graph_reports if 0.5 <= rep.alpha < 1.0]
        if not checked:
            continue
        smaller = graphcore.delete_edge(g, *edge)
        after = densela.eigendecompose(
            spectra.alpha_matrices(smaller, [rep.alpha for rep in checked])
        )
        for rep, rho in zip(checked, after):
            if np.any(rho > np.array(rep.spectrum) + 1e-9):
                mono.append((gid, rep.alpha, "edge_deletion_monotonicity"))
    return FuzzResult(tuple(reports), tuple(mono), trials)


# -- equality hunting ---------------------------------------------------------


def run_hunt(corpus: list[tuple[str, Graph]], alphas: list[float], bound_id: str,
             equality_tol: float = bounds.EQUALITY_RTOL) -> list[EqualityHit]:
    """Every (graph, alpha) where the bound is met with equality, paired with
    the structural certificate so claim contradictions stand out."""
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound_id {bound_id!r}")
    row = bounds.BOUNDS[BOUND_IDS.index(bound_id)]
    hits = []
    for graph_id, g in corpus:
        for sp in spectra.graph_spectra(g, alphas):
            cert = bounds.certify(sp)
            ev = row.evaluate(sp, cert, equality_tol)
            if ev.applicable and ev.equality:
                hits.append(EqualityHit(
                    graph_id=graph_id,
                    alpha=sp.alpha,
                    bound_id=bound_id,
                    value=ev.value,
                    energy=ev.energy,
                    gap=ev.gap,
                    certificate=cert,
                    claim_matched=ev.equality_claim_matched,
                ))
    return hits


# -- serialization -------------------------------------------------------------


def fmt12(x: float) -> str:
    """12 significant digits, lowercase exponent; round-trip stable."""
    return f"{x:.12g}"


def round12(x: float) -> float:
    return float(fmt12(x))


def _eval_to_dict(ev: BoundEvaluation) -> dict:
    return {
        "id": ev.bound_id,
        "kind": ev.kind,
        "applicable": ev.applicable,
        "reason": ev.reason,
        "value": None if ev.value is None else round12(ev.value),
        "holds": ev.holds,
        "gap": None if ev.gap is None else round12(ev.gap),
        "equality": ev.equality,
    }


def report_to_dict(rep: Report) -> dict:
    return {
        "graph_id": rep.graph_id,
        "n": rep.n,
        "m": rep.m,
        "zagreb": rep.zagreb,
        "alpha": round12(rep.alpha),
        "spectrum": [round12(x) for x in rep.spectrum],
        "energy": round12(rep.energy),
        "eta": rep.eta,
        "bounds": [_eval_to_dict(ev) for ev in rep.evaluations],
    }


def reports_to_json(reports: list[Report]) -> str:
    lines = [json.dumps(report_to_dict(rep), separators=(",", ":")) for rep in reports]
    return "\n".join(lines) + "\n"


# CSV quoting is csv.writer's, applied only where it can change a field: a
# graph id with a character outside the graph6 bytes 63..126 (which csv never
# quotes), and a reason string. Every other field is an integer, a formatted
# float, a bound id or kind, or true/false.
_GRAPH6_ID = re.compile("[?-~]+")
_CSV_BOOL = {None: "", True: "true", False: "false"}


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it inside a row, quoted only if needed.
    The CR LF terminator makes csv.writer quote a lone carriage return too."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((text, ""))
    return buf.getvalue()[:-3]


def reports_to_csv(reports: list[Report]) -> str:
    """One CSV row per (report, bound) under the `CSV_COLUMNS` header.

    Each float is formatted once with `fmt12`, which gives the same string
    as the JSON writer's `round12` value, so both formats carry the same
    numbers. A report's eight leading fields are built once and shared by
    its bound rows.
    """
    reasons = {None: ""}
    lines = [",".join(CSV_COLUMNS)]
    for rep in reports:
        gid = rep.graph_id
        prefix = ",".join((
            gid if _GRAPH6_ID.fullmatch(gid) else _csv_field(gid),
            str(rep.n), str(rep.m), str(rep.zagreb), fmt12(rep.alpha),
            ";".join(map(fmt12, rep.spectrum)), fmt12(rep.energy), str(rep.eta),
        ))
        for ev in rep.evaluations:
            reason = reasons.get(ev.reason)
            if reason is None:
                reason = reasons[ev.reason] = _csv_field(ev.reason)
            lines.append(",".join((
                prefix, ev.bound_id, ev.kind, _CSV_BOOL[ev.applicable], reason,
                "" if ev.value is None else fmt12(ev.value),
                _CSV_BOOL[ev.holds],
                "" if ev.gap is None else fmt12(ev.gap),
                _CSV_BOOL[ev.equality],
            )))
    return "\n".join(lines) + "\n"


def hit_to_dict(hit: EqualityHit) -> dict:
    cert = hit.certificate
    return {
        "graph_id": hit.graph_id,
        "alpha": round12(hit.alpha),
        "bound_id": hit.bound_id,
        "value": round12(hit.value),
        "energy": round12(hit.energy),
        "gap": round12(hit.gap),
        "claim_matched": hit.claim_matched,
        "contradicts_claim": hit.contradicts_claim,
        "certificate": {
            "is_complete": cert.is_complete,
            "is_regular": cert.is_regular,
            "is_star": cert.is_star,
            "distinct_alpha_eigenvalue_count": cert.distinct_alpha_eigenvalue_count,
            "adjacency_inertia": list(cert.adjacency_inertia),
        },
    }


def summary_lines(summary: dict[str, dict[str, int]]) -> list[str]:
    width = max(len(bid) for bid in summary)
    lines = [f"{'bound_id':<{width}}  applicable  holds  violations  equalities"]
    for bid in BOUND_IDS:
        row = summary[bid]
        lines.append(
            f"{bid:<{width}}  {row['applicable']:>10}  {row['holds']:>5}"
            f"  {row['violations']:>10}  {row['equalities']:>10}"
        )
    return lines
