"""Corpus drivers: single-graph verdicts, sweeps over alpha grids, randomized
fuzzing with edge-deletion monotonicity checks, and equality-case hunting.

`run_sweep` and `run_fuzz` solve a call's (graph, alpha) rows as one
`spectra.SpectrumTable`, one stacked eigensolve per order (the fuzz call's
edge-deleted graphs join the same stacks), then run the bound table once
over the table's columns, and return that one `bounds.Verdicts` table: row r
is the report on graph `graph_ids[r]` at row r of `spectra`, and
`Verdicts.claims(r)` builds and certifies that row's spectrum record for its
stated-class claims only when asked. `summarize`, `violations`,
hunt-equality's `equality_hits` and both writers read columns.
The CSV writer formats each float once to 12 significant digits with
`fmt12`; the JSON writer writes the `round12` value, the float that string
parses to, as `json.dumps` would, formatting each list of numbers in one `%`
call. So the two formats carry identical numeric values, and reruns produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import asdict

import numpy as np

from . import bounds, graphcore, pcg64, spectra
from .bounds import BOUND_IDS
from .graphcore import Graph

DEFAULT_ALPHA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)

# Expected to fail for alpha > 0; excluded from failure exit status unless
# the caller asks for strict accounting.
EXPECTED_VIOLATION_IDS = frozenset({"lb_frobenius_asstated"})

CSV_COLUMNS = (
    "graph_id", "n", "m", "zagreb", "alpha", "spectrum", "energy", "eta",
    "id", "kind", "applicable", "reason", "value", "holds", "gap", "equality",
)


def analyze(graph_id: str, g: Graph, alpha: float,
            equality_tol: float = bounds.EQUALITY_RTOL
            ) -> tuple[bounds.Verdicts, tuple[bool | None, ...]]:
    """Every bound verdict for one graph at one alpha: the one-row table and
    its certified claims."""
    v = run_sweep([(graph_id, g)], [alpha], equality_tol)
    return v, v.claims(0)


# -- corpus ingestion ------------------------------------------------------


def load_corpus(path: str) -> tuple[list[tuple[str, Graph]], list[str]]:
    """Read graphs from a file, auto-detected by its first payload line.

    A leading 'n m' integer pair means one edge-list graph; anything else is
    treated as graph6, one record per line; a record's optional leading
    `graphcore.GRAPH6_HEADER` is not part of its graph id. Returns (graphs,
    skipped) where skipped holds human-readable parse-failure notes.
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
        record = record.removeprefix(graphcore.GRAPH6_HEADER)
        try:
            graphs.append((record, graphcore.parse_graph6(record)))
        except graphcore.MalformedGraph6Error as exc:
            skipped.append(f"{path}:{lineno}: {exc}")
    return graphs, skipped


# -- sweep ------------------------------------------------------------------


def run_sweep(corpus: list[tuple[str, Graph]], alphas: list[float],
              equality_tol: float = bounds.EQUALITY_RTOL) -> bounds.Verdicts:
    """Every bound on each (graph, alpha) row, in corpus order then alpha
    order."""
    if not corpus:
        raise ValueError("empty corpus")
    table, = spectra.spectrum_tables(([g for _, g in corpus], alphas))
    return bounds.evaluate_many([gid for gid, _ in corpus for _ in table.alphas], table,
                                equality_tol)


def summarize(v: bounds.Verdicts) -> dict[str, dict[str, int]]:
    """Per-bound counts of applicable / holds / violations / equalities."""
    applicable = v.reason == 0
    counts = np.array([applicable, v.holds, applicable & ~v.holds, v.equality]).sum(axis=2)
    keys = ("applicable", "holds", "violations", "equalities")
    return {bid: dict(zip(keys, col)) for bid, col in zip(BOUND_IDS, counts.T.tolist())}


def violations(v: bounds.Verdicts, strict: bool = False) -> list[tuple[str, float, str]]:
    """(graph_id, alpha, bound_id) triples where an applicable bound failed,
    row by row, each row's in BOUND_IDS order.

    Violations of the documented always-violated lower bound are excluded
    unless `strict` is set.
    """
    counted = np.array([[strict or bid not in EXPECTED_VIOLATION_IDS] for bid in BOUND_IDS])
    rows, ids = ((v.reason == 0) & ~v.holds & counted).T.nonzero()
    alphas = v.spectra.alphas
    return [(v.graph_ids[r], alphas[r % len(alphas)], BOUND_IDS[i])
            for r, i in zip(rows.tolist(), ids.tolist())]


# -- fuzz --------------------------------------------------------------------


def _random_connected_graph(rng, n_min: int, n_max: int, trial: int) -> Graph:
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
            if g.connected:
                return g
    p = float(rng.uniform(0.25, 0.75))
    return graphcore.erdos_renyi(
        n, p, int(rng.integers(0, 2**63)), connected=True
    )


def run_fuzz(n_min: int, n_max: int, trials: int, seed: int,
             alphas: list[float],
             equality_tol: float = bounds.EQUALITY_RTOL
             ) -> tuple[bounds.Verdicts, tuple[tuple[str, float, str], ...]]:
    """Evaluate every bound on random connected graphs, plus the
    edge-deletion monotonicity property for alpha in [1/2, 1): the verdict
    table and the (graph_id, alpha, property) monotonicity violations.

    Each graph is drawn, then the edge it loses, indexed among its
    upper-triangle entries in row-major (sorted edge) order; the graphs and
    the edge-deleted graphs are solved together once all are drawn."""
    if not 3 <= n_min <= n_max <= 62:
        raise ValueError(f"n range must satisfy 3 <= n_min <= n_max <= 62, got [{n_min}, {n_max}]")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = pcg64.default_rng(seed)
    checked = [i for i, a in enumerate(alphas) if 0.5 <= float(a) < 1.0]
    graphs: list[Graph] = []
    smaller: list[tuple[int, Graph]] = []  # (trial, its edge-deleted graph)
    for trial in range(trials):
        g = _random_connected_graph(rng, n_min, n_max, trial)
        graphs.append(g)
        if g.m == 0:
            continue
        edge = int(rng.integers(0, g.m))
        if checked:
            u, v = np.nonzero(np.triu(g.adjacency, 1))
            smaller.append((trial, graphcore.delete_edge(g, int(u[edge]), int(v[edge]))))
    table, after = spectra.spectrum_tables(
        (graphs, alphas), ([h for _, h in smaller], [alphas[i] for i in checked]))
    gids = [graphcore.serialize_graph6(g).decode("ascii") for g in graphs]
    k, mono = len(table.alphas), []
    for j, (trial, _) in enumerate(smaller):
        for a, i in enumerate(checked):
            if np.any(after.rho[j * len(checked) + a] > table.rho[trial * k + i] + 1e-9):
                mono.append((gids[trial], table.alphas[i], "edge_deletion_monotonicity"))
    return bounds.evaluate_many([gid for gid in gids for _ in range(k)], table,
                                equality_tol), tuple(mono)


# -- equality hunting ---------------------------------------------------------


def equality_hits(v: bounds.Verdicts, bound_id: str) -> list[dict]:
    """The rows of `v` where the bound is met with equality, in row order, as
    the records hunt-equality writes: the row's numbers through `round12`,
    and its certificate once per hit, so claim contradictions stand out."""
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound_id {bound_id!r}")
    i = BOUND_IDS.index(bound_id)
    hits = []
    for r in np.flatnonzero(v.equality[i]).tolist():
        sp = v.spectra[r]
        cert = bounds.certify(sp)
        matched = bounds.BOUNDS[i].claim(sp, cert)
        hits.append({
            "graph_id": v.graph_ids[r],
            "alpha": round12(sp.alpha),
            "bound_id": bound_id,
            "value": round12(v.value[i, r]),
            "energy": round12(v.target[i, r]),
            "gap": round12(v.gap[i, r]),
            "claim_matched": matched,
            "contradicts_claim": matched is False,
            "certificate": asdict(cert),
        })
    return hits


# -- serialization -------------------------------------------------------------


def fmt12(x: float) -> str:
    """12 significant digits, lowercase exponent; round-trip stable."""
    return f"{x:.12g}"


def round12(x: float) -> float:
    return float(fmt12(x))


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_join(values: list[float]) -> str:
    """The round12 values of `values` as json.dumps writes them, joined by
    commas, formatted in one `%` call. A 12-digit string with a point and no
    exponent is already that float's repr: no shorter decimal string parses
    to the same float. Only when some string breaks that rule are the
    strings checked one by one."""
    text = ("%.12g," * len(values))[:-1] % tuple(values)  # fmt12 each
    if "e" in text or text.count(".") != len(values):
        return ",".join([p if "." in p and "e" not in p
                         else (_JSON_NONFINITE.get(p) or repr(float(p)))
                         for p in text.split(",")])
    return text


def _json_numbers(values: list[float]) -> list[str]:
    """`_json_join(values)` as a list of strings."""
    return _json_join(values).split(",") if values else []


def _csv_join(values: list[float]) -> str:
    """`fmt12` of each of `values`, joined by semicolons, in one `%` call."""
    return ("%.12g;" * len(values))[:-1] % tuple(values)


# CSV quoting is csv.writer's, applied only where it can change a field: a
# graph id with a character outside the graph6 bytes 63..126 (which csv never
# quotes), and a reason string. Every other field is an integer, a formatted
# float, a bound id or kind, or true/false.
_GRAPH6_ID = re.compile("[?-~]+")


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it inside a row, quoted only if needed.
    The CR LF terminator makes csv.writer quote a lone carriage return too."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((text, ""))
    return buf.getvalue()[:-3]


def _cell_format(templates: list[str], null: str, quote, spec: str, number):
    """A format's bound cells from one template per bound over (applicable,
    reason, value, holds, gap, equality): per bound, its not-applicable cell
    for each reason code and its applicable template, in which the numbers
    take `spec`, after `number` maps a list of them to strings when that is
    given."""
    cells = [
        ([""] + [tpl % ("false", quote(reason), null, null, null, null) for reason, _ in b.guards],
         tpl % ("true", null, spec, "%s", spec, "%s"))
        for tpl, b in zip(templates, bounds.BOUNDS)
    ]
    return cells, number


_JSON_CELLS = _cell_format(
    [f'{{"id":{json.dumps(b.id)},"kind":{json.dumps(b.kind)},"applicable":%s,"reason":%s,'
     '"value":%s,"holds":%s,"gap":%s,"equality":%s}' for b in bounds.BOUNDS],
    "null", json.dumps, "%s", _json_numbers)
_CSV_CELLS = _cell_format([f"{b.id},{b.kind},%s,%s,%s,%s,%s,%s" for b in bounds.BOUNDS],
                          "", _csv_field, "%.12g", None)
_BOOL = ("false", "true")


def _bound_cells(v: bounds.Verdicts, cell_format) -> list[tuple[str, ...]]:
    """Per row of `v`, its 15 bound cells in BOUND_IDS order, built bound by
    bound. Only the applicable cells' values and gaps are formatted, each
    list in one call, in the order the cells take them."""
    cells, number = cell_format
    applicable = v.reason == 0
    values, gaps = v.value[applicable].tolist(), v.gap[applicable].tolist()
    if number is not None:
        values, gaps = number(values), number(gaps)
    values, gaps = iter(values), iter(gaps)
    columns = []
    for (na, app), codes, holds, equal in zip(
            cells, v.reason.tolist(), v.holds.tolist(), v.equality.tolist()):
        columns.append([na[code] if code else app % (next(values), _BOOL[h], next(gaps), _BOOL[eq])
                        for code, h, eq in zip(codes, holds, equal)])
    return list(zip(*columns))


def reports_to_json(v: bounds.Verdicts) -> str:
    """One JSON object per row of `v`, one row per line, built directly with
    the bytes `json.dumps` writes for the same dict with compact separators:
    numbers are `round12` values and the graph id is `json.dumps`-escaped.
    A graph's integers and each alpha are formatted once per call."""
    t = v.spectra
    k = len(t.alphas)
    graphs = [f'"n":{g.n},"m":{g.m},"zagreb":{g.zagreb},"alpha":' for g in t.graphs]
    alphas = _json_numbers(list(t.alphas))
    lines = [
        f'{{"graph_id":{json.dumps(gid)},{graphs[r // k]}{alphas[r % k]},'
        f'"spectrum":[{_json_join(rho.tolist())}],"energy":{energy},'
        f'"eta":{eta},"bounds":[{",".join(row)}]}}'
        for r, (gid, rho, energy, eta, row) in enumerate(zip(
            v.graph_ids, t.rho, _json_numbers(t.energy.tolist()), t.eta.tolist(),
            _bound_cells(v, _JSON_CELLS)))
    ]
    return "\n".join(lines) + "\n"


def reports_to_csv(v: bounds.Verdicts) -> str:
    """One CSV row per (row of `v`, bound) under the `CSV_COLUMNS` header.

    Each float is formatted once with `fmt12`, which gives the same string
    as the JSON writer's `round12` value, so both formats carry the same
    numbers. A row's eight leading fields are built once and shared by its
    bound rows; a graph's integers and each alpha once per call.
    """
    t = v.spectra
    k = len(t.alphas)
    graphs = [f"{g.n},{g.m},{g.zagreb}," for g in t.graphs]
    alphas = list(map(fmt12, t.alphas))
    lines = [",".join(CSV_COLUMNS)]
    for r, (gid, rho, energy, eta, row) in enumerate(zip(
            v.graph_ids, t.rho, t.energy.tolist(), t.eta.tolist(), _bound_cells(v, _CSV_CELLS))):
        prefix = (f"{gid if _GRAPH6_ID.fullmatch(gid) else _csv_field(gid)},"
                  f"{graphs[r // k]}{alphas[r % k]},{_csv_join(rho.tolist())},"
                  f"{energy:.12g},{eta},")
        lines.extend(map(prefix.__add__, row))
    return "\n".join(lines) + "\n"


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
