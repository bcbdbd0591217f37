"""Corpus drivers, and every byte a call reads as a graph or writes as output:
`cli` only hands these strings to a stream or a file.

`read_record` names a graph6 record, positional or a corpus line, by its
text stripped of ASCII whitespace less one header; `load_corpus` reads a
file's `graphcore.split_lines` lines as one edge list when its first payload
line starts with an ASCII digit or '-' (every 'n m' header does, no graph6
record can), else as one such record per line.
`run_sweep` and `run_fuzz` solve a call's (graph, alpha) rows as one
`spectra.SpectrumTable` (fuzz's edge-deleted graphs share its stacked
solves), run the bound table once over it and return one `bounds.Verdicts`
table. Row r is graph `spectra.graphs[r // k]`, named `graph_ids[r // k]`,
at `spectra.alphas[r % k]`, k the call's alpha count; `summarize`,
`violations`, `equality_hits` and the writers read columns at row indices,
and `equality_hits` and `analyze` certify the rows they report. `run_fuzz`
draws everything from one `graphcore.seeded_rng(seed)`, so a seed gives the
same graphs in every process. The writers are `reports_to_csv` and
`reports_to_json` (picked by `reports_text`), `spectrum_to_json`,
`hits_to_json` and `verdict_tail`, stderr's summary table and `violation`
lines. CSV formats each float once with `fmt12`; JSON writes its `round12`
value as `json.dumps` would, so both carry the same numbers and reruns give
identical bytes. A row's 15 bound cells come from one `%` template per
distinct verdict pattern per call, filled by one `%` call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from . import bounds, graphcore, spectra
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


def analyze(graph_id: str, g: Graph, alpha: float
            ) -> tuple[bounds.Verdicts, tuple[bool | None, ...], bounds.ExtremalCertificate]:
    """Every bound verdict for one graph at one alpha: the one-row table, its
    claims and its certificate, as hunt-equality writes it."""
    v = run_sweep([(graph_id, g)], [alpha])
    return v, v.claims(0), bounds.certify(g, v.spectra.rho[0])


# -- corpus ingestion ------------------------------------------------------


def read_record(record: str) -> tuple[str, Graph]:
    """A graph6 record's (graph id, graph), positional or a corpus line:
    `graphcore.parse_graph6` reads it as it stands, and the id is the record
    stripped of the ASCII whitespace `parse_graph6` strips, less one header."""
    g = graphcore.parse_graph6(record)
    return record.strip(" \t\n\r\x0b\x0c").removeprefix(graphcore.GRAPH6_HEADER), g


def load_corpus(path: str) -> tuple[list[tuple[str, Graph]], list[str]]:
    """Read graphs from a file, its format picked by its first payload line.

    Lines are `graphcore.split_lines`'s; blank and '#' lines carry no payload.
    A first payload line led by an ASCII digit or '-', as every 'n m' header
    is and no graph6 record is, makes the file one edge list, whose error is
    its one note. Otherwise each payload line is one graph6 record, read by
    `read_record`. Returns (graphs, skipped) where skipped holds
    human-readable parse-failure notes.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = graphcore.split_lines(raw)
    first = next((line for line in lines if line and not line.startswith(b"#")), b"")
    if first[:1].isdigit() or first.startswith(b"-"):
        try:
            g = graphcore.parse_edge_list(raw.decode("latin-1"))
        except graphcore.MalformedEdgeListError as exc:
            return [], [f"{path}: {exc}"]
        return [(f"{path}:1", g)], []
    graphs: list[tuple[str, Graph]] = []
    skipped: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith(b"#"):
            continue
        try:
            graphs.append(read_record(line.decode("latin-1")))
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
    return bounds.evaluate_many([gid for gid, _ in corpus], table, equality_tol)


def summarize(v: bounds.Verdicts) -> dict[str, dict[str, int]]:
    """Per-bound counts of applicable / holds / violations / equalities."""
    applicable = v.reason == 0
    counts = np.array([applicable, v.holds, applicable & ~v.holds, v.equality]).sum(axis=2)
    keys = ("applicable", "holds", "violations", "equalities")
    return {bid: dict(zip(keys, col)) for bid, col in zip(BOUND_IDS, counts.T.tolist())}


# Per bound, whether its violations count: every bound's under strict
# accounting, all but the expected ones' otherwise.
_COUNTED_STRICT = np.ones((len(BOUND_IDS), 1), dtype=bool)
_COUNTED = np.array([[bid not in EXPECTED_VIOLATION_IDS] for bid in BOUND_IDS])


def violations(v: bounds.Verdicts, strict: bool = False) -> list[tuple[str, float, str]]:
    """(graph_id, alpha, bound_id) triples where an applicable bound failed,
    row by row, each row's in BOUND_IDS order.

    Violations of the documented always-violated lower bound are excluded
    unless `strict` is set.
    """
    counted = _COUNTED_STRICT if strict else _COUNTED
    rows, ids = ((v.reason == 0) & ~v.holds & counted).T.nonzero()
    alphas = v.spectra.alphas
    k = len(alphas)
    return [(v.graph_ids[r // k], alphas[r % k], BOUND_IDS[i])
            for r, i in zip(rows.tolist(), ids.tolist())]


# -- fuzz --------------------------------------------------------------------


def _random_connected_graph(rng, n_min: int, n_max: int, trial: int) -> Graph:
    # Every fourth graph comes from the pairing model (k <= 4 keeps the
    # rejection rate low); the rest are connectivity-retried G(n, p) draws.
    n = n_min + graphcore.randbelow(rng, n_max - n_min + 1)
    if trial % 4 == 3 and n >= 4:
        for _ in range(50):
            k = 2 + graphcore.randbelow(rng, min(5, n) - 2)
            if (n * k) % 2 != 0:  # k = 3 at odd n
                k -= 1
            g = graphcore.random_regular(n, k, rng.getrandbits(63))
            if g.connected:
                return g
    p = 0.25 + 0.5 * rng.random()
    return graphcore.erdos_renyi(n, p, rng.getrandbits(63), connected=True)


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
    if not 3 <= n_min <= n_max <= graphcore.GRAPH6_MAX_ORDER:  # fuzz names graphs by graph6
        raise ValueError("n range must satisfy 3 <= n_min <= n_max <= "
                         f"{graphcore.GRAPH6_MAX_ORDER}, got [{n_min}, {n_max}]")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = graphcore.seeded_rng(seed)
    checked = [i for i, a in enumerate(alphas) if 0.5 <= float(a) < 1.0]
    graphs: list[Graph] = []
    smaller: list[Graph] = []  # each graph less one edge, when checked
    for trial in range(trials):
        g = _random_connected_graph(rng, n_min, n_max, trial)
        graphs.append(g)
        edge = graphcore.randbelow(rng, g.m)
        if checked:
            u, v = np.nonzero(graphcore.upper_mask(g.n) & (g.adjacency > 0.0))
            smaller.append(graphcore.delete_edge(g, int(u[edge]), int(v[edge])))
    table, after = spectra.spectrum_tables(
        (graphs, alphas), (smaller, [alphas[i] for i in checked]))
    gids = [graphcore.serialize_graph6(g).decode("ascii") for g in graphs]
    k, mono = len(table.alphas), ()
    if len(after):
        # One comparison over every pair's spectra end to end, then one
        # any() per pair: pair (j, a) is after row j * len(checked) + a
        # against its graph's row at alpha index checked[a].
        pairs = [(trial, i) for trial in range(len(smaller)) for i in checked]
        before = np.concatenate([table.rho[trial * k + i] for trial, i in pairs])
        lifted = np.concatenate(after.rho) > before + 1e-9
        starts = np.cumsum([0] + [len(row) for row in after.rho[:-1]])
        any_lifted = np.logical_or.reduceat(lifted, starts).tolist()
        mono = tuple((gids[trial], table.alphas[i], "edge_deletion_monotonicity")
                     for (trial, i), bad in zip(pairs, any_lifted) if bad)
    return bounds.evaluate_many(gids, table, equality_tol), mono


# -- equality hunting ---------------------------------------------------------


def equality_hits(v: bounds.Verdicts, bound_id: str) -> list[dict]:
    """The rows of `v` where the bound is met with equality, in row order, as
    the records hunt-equality writes: the row's numbers through `round12`,
    and its certificate once per hit, so claim contradictions stand out."""
    if bound_id not in BOUND_IDS:
        raise ValueError(f"unknown bound_id {bound_id!r}")
    i = BOUND_IDS.index(bound_id)
    t = v.spectra
    k = len(t.alphas)
    hits = []
    for r in np.flatnonzero(v.equality[i]).tolist():
        g, alpha = t.graphs[r // k], t.alphas[r % k]
        cert = bounds.certify(g, t.rho[r])
        matched = bounds.BOUNDS[i].claim(g, alpha)
        hits.append({
            "graph_id": v.graph_ids[r // k],
            "alpha": round12(alpha),
            "bound_id": bound_id,
            "value": round12(v.value[i, r]),
            "energy": round12(v.target[i, r]),
            "gap": round12(v.gap[i, r]),
            "claim_matched": matched,
            "contradicts_claim": matched is False,
            "certificate": cert._asdict(),
        })
    return hits


# -- serialization -------------------------------------------------------------


def fmt12(x: float) -> str:
    """12 significant digits, lowercase exponent; round-trip stable."""
    return f"{x:.12g}"


def round12(x: float) -> float:
    return float(fmt12(x))


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(values: list[float]) -> list[str]:
    """The round12 values of `values` as json.dumps writes them, formatted in
    one `%` call and split once. A 12-digit string with a point and no
    exponent is already that float's repr: no shorter decimal string parses
    to the same float. Only when some string breaks that rule are the
    strings checked one by one, each kept or replaced by the float's repr or
    the non-finite name."""
    if not values:
        return []
    text = ("%.12g," * len(values))[:-1] % tuple(values)  # fmt12 each
    parts = text.split(",")
    if "e" in text or text.count(".") != len(parts):
        return [p if "." in p and "e" not in p else (_JSON_NONFINITE.get(p) or repr(float(p)))
                for p in parts]
    return parts


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


_BOOL = ("false", "true")


def _cell_templates(cell: str, quote, null: str, number: str) -> list:
    """Per bound, its cell for each verdict code as a `%` template: first
    indexed by reason code (the not-applicable cells; index 0 is unused),
    then by [holds][equality] (the applicable cells, whose value and gap are
    `number` placeholders). `cell` takes a bound's id, kind, applicable,
    reason, value, holds, gap and equality; `quote` writes the strings among
    them, and any '%' it leaves is doubled."""
    def text(s: str) -> str:
        return quote(s).replace("%", "%%")
    templates = []
    for b in bounds.BOUNDS:
        bid, kind = text(b.id), text(b.kind)
        templates.append((
            [None] + [cell % (bid, kind, "false", text(reason), null, null, null, null)
                      for reason, _ in b.guards],
            [[cell % (bid, kind, "true", null, number, h, number, eq) for eq in _BOOL]
             for h in _BOOL]))
    return templates


def _bound_texts(v: bounds.Verdicts, templates, sep: str, numbers=None) -> list[str]:
    """Per row of `v`, its 15 bound cells joined by `sep`.

    A row's text is fixed by its verdict pattern, the 15 (reason, holds,
    equality) codes, up to its applicable values and gaps. So each pattern's
    template is joined once per call from `templates` (`_cell_templates`),
    and each row is one `%` call on its own numbers. Those are read in one
    pass, every applicable cell's value then gap in row order, and passed
    through `numbers` first when it is given.
    """
    applicable = (v.reason == 0).T
    values, gaps = v.value.T[applicable].tolist(), v.gap.T[applicable].tolist()
    flat = values + gaps
    flat[::2], flat[1::2] = values, gaps
    flat = tuple(numbers(flat) if numbers else flat)
    # A row's pattern as bytes, one byte per code: reason is int8, holds and
    # equality are bool.
    width = len(bounds.BOUNDS)
    codes, holds, equal = v.reason.T.tobytes(), v.holds.T.tobytes(), v.equality.T.tobytes()
    patterns = {}  # pattern -> (its template, the count of its numbers)
    texts = []
    i = 0
    for start in range(0, len(codes), width):
        end = start + width
        key = codes[start:end] + holds[start:end] + equal[start:end]
        pattern = patterns.get(key)
        if pattern is None:
            row = zip(templates, key, key[width:], key[2 * width:])
            pattern = patterns[key] = (
                sep.join([na[code] if code else app[h][eq] for (na, app), code, h, eq in row]),
                2 * key[:width].count(0))
        j = i + pattern[1]
        texts.append(pattern[0] % flat[i:j])
        i = j
    return texts


_JSON_CELLS = _cell_templates(
    '{"id":%s,"kind":%s,"applicable":%s,"reason":%s,"value":%s,"holds":%s,"gap":%s,'
    '"equality":%s}', json.dumps, "null", "%s")
# A CSV row's bound text is its 15 lines, each led by _LEAD, which the writer
# replaces with the row's eight leading fields. No cell holds a NUL: cells
# are bound ids and kinds, true/false, reasons and formatted numbers.
_LEAD = "\0"
_CSV_CELLS = _cell_templates(_LEAD + "%s,%s,%s,%s,%s,%s,%s,%s\n", _csv_field, "", "%.12g")


def reports_text(v: bounds.Verdicts, fmt: str) -> str:
    """`v` in the report format `fmt`, "csv" or "json"."""
    return reports_to_csv(v) if fmt == "csv" else reports_to_json(v)


def reports_to_json(v: bounds.Verdicts) -> str:
    """One JSON object per row of `v`, one row per line, built directly with
    the bytes `json.dumps` writes for the same dict with compact separators:
    numbers are `round12` values and the graph id is `json.dumps`-escaped.
    A graph's id field and integers are formatted once per graph, each alpha
    once per call."""
    t = v.spectra
    alphas = [f',"alpha":{a},' for a in _json_numbers(list(t.alphas))]
    rows = zip(t.rho, _json_numbers(t.energy.tolist()), t.eta.tolist(),
               _bound_texts(v, _JSON_CELLS, ",", _json_numbers))
    lines = []
    for gid, g in zip(v.graph_ids, t.graphs):
        head = f'{{"graph_id":{json.dumps(gid)},"n":{g.n},"m":{g.m},"zagreb":{g.zagreb}'
        # alphas first: zip stops after the graph's last row, drawing no more.
        for alpha, (rho, energy, eta, body) in zip(alphas, rows):
            lines.append(f'{head}{alpha}"spectrum":[{",".join(_json_numbers(rho.tolist()))}],'
                         f'"energy":{energy},"eta":{eta},"bounds":[{body}]}}\n')
    return "".join(lines)


def spectrum_to_json(graph_ids: list[str], table: spectra.SpectrumTable) -> str:
    """`spectrum`'s output: one JSON object per row of `table`, one row per
    line, with the bytes `json.dumps` writes for the same dict with compact
    separators and every float through `round12`. A row's floats are
    formatted in one `_json_numbers` call, a graph's fields once per graph
    and each alpha once per call. The centered eigenvalues s_i and
    Gamma = |prod s_i| are formed here and nowhere else: Gamma is 0.0 at a
    singular shift, and null where the product overflows a float64, since
    JSON has no infinity."""
    alphas = _json_numbers(list(table.alphas))
    rows = zip(table.rho, table.shift.tolist(), table.energy.tolist(), table.eta.tolist(),
               table.two_s.tolist(), table.log_gamma.tolist(), table.theta.tolist())
    lines = []
    with np.errstate(over="ignore"):
        for gid, g in zip(graph_ids, table.graphs):
            n, head = g.n, f'{{"graph_id":{json.dumps(gid)},"alpha":'
            fields = (f',"n":{n},"m":{g.m},"zagreb":{g.zagreb},'
                      f'"connected":{"true" if g.connected else "false"},"spectrum":[')
            # alphas first: zip stops after the graph's last row, drawing no more.
            for alpha, (rho, shift, energy, eta, two_s, log_gamma, theta) in zip(alphas, rows):
                s = rho - shift
                gamma = abs(float(np.prod(s))) if log_gamma > -math.inf else 0.0
                x = _json_numbers(
                    rho.tolist() + [shift] + s.tolist() + [energy, two_s, gamma, theta])
                lines.append(
                    f'{head}{alpha}{fields}{",".join(x[:n])}],"shift":{x[n]},'
                    f'"centered":[{",".join(x[n + 1:-4])}],"energy":{x[-4]},"eta":{eta},'
                    f'"two_s":{x[-3]},"gamma_det":{x[-2] if math.isfinite(gamma) else "null"},'
                    f'"theta":{x[-1]}}}\n')
    return "".join(lines)


def reports_to_csv(v: bounds.Verdicts) -> str:
    """One CSV row per (row of `v`, bound) under the `CSV_COLUMNS` header.

    Each float is formatted once with `fmt12`, which gives the same string
    as the JSON writer's `round12` value, so both formats carry the same
    numbers. A row's eight leading fields are built once and shared by its
    bound rows; a graph's integers and id field (quoted only where csv.writer
    would quote it) once per graph, each alpha once per call.
    """
    t = v.spectra
    alphas = [f",{fmt12(a)}," for a in t.alphas]
    rows = zip(t.rho, t.energy.tolist(), t.eta.tolist(), _bound_texts(v, _CSV_CELLS, ""))
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for gid, g in zip(v.graph_ids, t.graphs):
        head = f"{gid if _GRAPH6_ID.fullmatch(gid) else _csv_field(gid)},{g.n},{g.m},{g.zagreb}"
        # alphas first: zip stops after the graph's last row, drawing no more.
        for alpha, (rho, energy, eta, body) in zip(alphas, rows):
            lines.append(body.replace(
                _LEAD, f"{head}{alpha}{_csv_join(rho.tolist())},{energy:.12g},{eta},"))
    return "".join(lines)


_ID_WIDTH = max(len(bid) for bid in BOUND_IDS)
_SUMMARY_HEAD = f"{'bound_id':<{_ID_WIDTH}}  applicable  holds  violations  equalities"
# One `%` template per bound, filled from its `summarize` counts.
_SUMMARY_ROWS = tuple(f"{bid:<{_ID_WIDTH}}  %(applicable)10d  %(holds)5d  %(violations)10d"
                      "  %(equalities)10d" for bid in BOUND_IDS)


def verdict_tail(v: bounds.Verdicts, bad: list[tuple[str, float, str]]) -> str:
    """The text `sweep` and `fuzz` write to stderr after their reports: the
    summary table of `summarize(v)`, a header then one line per bound in
    BOUND_IDS order, then one `violation` line per (graph_id, alpha, label)
    triple in `bad`."""
    summary = summarize(v)
    lines = [_SUMMARY_HEAD] + [row % summary[bid] for row, bid in zip(_SUMMARY_ROWS, BOUND_IDS)]
    lines += [f"violation\t{gid}\t{fmt12(alpha)}\t{label}" for gid, alpha, label in bad]
    return "\n".join(lines) + "\n"


def hits_to_json(hits: list[dict]) -> str:
    """hunt-equality's output: one compact JSON object per `equality_hits`
    record, one per line."""
    return "".join(json.dumps(h, separators=(",", ":")) + "\n" for h in hits)
