import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from alphaenergy import bounds, cli, graphcore, harness, spectra
from alphaenergy.bounds import BOUND_IDS
from alphaenergy.graphcore import Graph, complete, cycle, petersen, serialize_graph6, star
from alphaenergy.harness import (
    DEFAULT_ALPHA_GRID,
    analyze,
    equality_hits,
    fmt12,
    load_corpus,
    reports_to_csv,
    reports_to_json,
    round12,
    run_fuzz,
    run_sweep,
    summarize,
    violations,
)
from one_alpha import evaluation_bits, row_view


def g6(g) -> str:
    return serialize_graph6(g).decode("ascii")


K4 = complete(4)
ATLAS = Path(__file__).resolve().parents[1] / "perfbench" / "corpora" / "atlas7.g6"


def _count_certify(monkeypatch) -> list:
    calls = []
    real = bounds.certify

    def counting(g, rho):
        calls.append(g)
        return real(g, rho)

    monkeypatch.setattr(bounds, "certify", counting)
    return calls


def test_analyze_certifies_once(monkeypatch):
    calls = _count_certify(monkeypatch)
    analyze("C~", K4, 0.5)
    assert len(calls) == 1 and calls[0] is K4


def test_sweep_writers_and_summaries_never_certify(monkeypatch):
    # Only analyze and equality_hits certify; the drivers' consumers read
    # the verdict columns.
    calls = _count_certify(monkeypatch)
    v = run_sweep([("C~", K4), (g6(star(3)), star(3))], list(DEFAULT_ALPHA_GRID))
    reports_to_csv(v)
    reports_to_json(v)
    summarize(v)
    violations(v, strict=True)
    assert calls == []


def _count_eigvalsh(monkeypatch) -> list:
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_sweep_solves_each_graph_at_most_twice(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    corpus = [("C~", K4), (g6(star(3)), star(3)), (g6(cycle(5)), cycle(5))]
    v = run_sweep(corpus, list(DEFAULT_ALPHA_GRID))
    assert len(v.spectra) == 3 * len(DEFAULT_ALPHA_GRID)
    assert 0 < len(calls) <= 2 * len(corpus)


def test_claims_solve_nothing(monkeypatch):
    # A row's claims come from its graph and alpha: over a whole sweep they
    # solve no matrix.
    corpus = [(g6(g), g) for g in (K4, star(3), cycle(5), petersen(), complete(3))]
    v = run_sweep(corpus, list(DEFAULT_ALPHA_GRID) + [1.0])
    calls = _count_eigvalsh(monkeypatch)
    claims = [v.claims(r) for r in range(len(v.spectra))]
    assert calls == [] and len(claims) == 5 * 12
    assert claims == oracles.claims_reference(v)


def test_fuzz_solves_each_graph_at_most_three_times(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    v, _ = run_fuzz(4, 6, 4, 1, list(DEFAULT_ALPHA_GRID))
    assert len(v.spectra) == 4 * len(DEFAULT_ALPHA_GRID)
    assert 0 < len(calls) <= 3 * 4


def test_sweep_solves_once_per_order_and_never_certifies(monkeypatch):
    # Orders 4, 5, 4: one stacked solve for both 4-vertex graphs' rows and
    # one for the 5-vertex graph's, whatever the writers and tallies read.
    calls = _count_eigvalsh(monkeypatch)
    certified = _count_certify(monkeypatch)
    corpus = [(g6(cycle(4)), cycle(4)), (g6(cycle(5)), cycle(5)), ("C~", K4)]
    v = run_sweep(corpus, list(DEFAULT_ALPHA_GRID))
    reports_to_json(v)
    reports_to_csv(v)
    summarize(v)
    violations(v, strict=True)
    k = len(DEFAULT_ALPHA_GRID)
    assert calls == [(2 * k, 4, 4), (k, 5, 5)]
    assert certified == []


def test_fuzz_solves_once_with_its_deletion_spectra(monkeypatch):
    # One order: the graphs' rows and the edge-deleted graphs' rows at the
    # alphas in [1/2, 1) share one stacked solve.
    calls = _count_eigvalsh(monkeypatch)
    v, _ = run_fuzz(7, 7, 4, 2024, list(DEFAULT_ALPHA_GRID))
    checked = sum(0.5 <= a < 1.0 for a in DEFAULT_ALPHA_GRID)
    assert calls == [(4 * (len(DEFAULT_ALPHA_GRID) + checked), 7, 7)]
    assert len(v.spectra) == 4 * len(DEFAULT_ALPHA_GRID)


def _batching_sample() -> list[tuple[str, Graph]]:
    """About 100 atlas graphs in a seeded order that interleaves the orders:
    every graph on at most 4 vertices (K1 and K2 among them), 87 seeded
    larger ones, and the 2K2 edge list."""
    corpus, _ = load_corpus(str(ATLAS))
    rng = np.random.default_rng(16)
    small = [item for item in corpus if item[1].n <= 4]
    picked = small + [corpus[i] for i in rng.choice(np.arange(len(small), len(corpus)), 87,
                                                    replace=False)]
    picked.append(("2k2.txt:1", graphcore.parse_edge_list("4 2\n0 1\n2 3\n")))
    return [picked[i] for i in rng.permutation(len(picked))]


@pytest.mark.parametrize("alphas", [(0.0, 0.5, 1.0), DEFAULT_ALPHA_GRID], ids=["0-half-1", "grid"])
def test_one_sweep_equals_its_one_graph_sweeps(alphas, monkeypatch):
    # Stacking rows across graphs changes no bit: the reports are the
    # one-graph reports concatenated, and every column and spectrum is the
    # one-graph one, however many stacks the rows are split into.
    corpus, alphas, k = _batching_sample(), list(alphas), len(alphas)
    orders = [g.n for _, g in corpus]
    assert set(orders) == set(range(1, 8)) and orders != sorted(orders)
    assert {"@", "A_", "2k2.txt:1"} <= {gid for gid, _ in corpus}
    whole = run_sweep(corpus, alphas)
    alone = [run_sweep([item], alphas) for item in corpus]
    header = ",".join(harness.CSV_COLUMNS) + "\n"
    # Compared as line lists, which pytest diffs quickly when they differ.
    json_lines = reports_to_json(whole).splitlines(keepends=True)
    csv_lines = reports_to_csv(whole).splitlines(keepends=True)
    assert json_lines == [line for v in alone for line in reports_to_json(v).splitlines(True)]
    assert csv_lines == [header] + [line for v in alone
                                    for line in reports_to_csv(v).splitlines(True)[1:]]
    whole_terms = bounds._terms(whole.spectra, False)
    for j, v in enumerate(alone):
        rows = slice(j * k, (j + 1) * k)
        for name, want, got in zip(bounds.Terms._fields, whole_terms,
                                   bounds._terms(v.spectra, False), strict=True):
            assert want[rows].tobytes() == got.tobytes(), name
        for a in range(k):
            assert whole.spectra.rho[j * k + a].tobytes() == v.spectra.rho[a].tobytes()
        for name in ("reason", "value", "target", "gap", "holds", "equality"):
            assert getattr(whole, name)[:, rows].tobytes() == getattr(v, name).tobytes(), name
    # A cap of three 7-vertex graphs per stack: several stacks per order.
    monkeypatch.setattr(spectra, "STACK_ENTRIES", 3 * k * 7 * 7)
    calls = _count_eigvalsh(monkeypatch)
    chunked = run_sweep(corpus, alphas)
    assert len(calls) > len(set(orders)) + 20
    assert all(np.prod(shape) <= spectra.STACK_ENTRIES for shape in calls)
    assert reports_to_json(chunked).splitlines(True) == json_lines
    assert reports_to_csv(chunked).splitlines(True) == csv_lines


def test_fuzz_checks_each_graph_connectivity_once(monkeypatch):
    # Counted at the one breadth-first search, which G(n, p) draws reach
    # before their float matrix is built; the complement branch of
    # random_regular does not search its inner graph.
    calls = []
    real = graphcore._reaches_all
    monkeypatch.setattr(graphcore, "_reaches_all", lambda m: calls.append(m) or real(m))
    run_fuzz(4, 10, 20, 42, [0.5])
    assert len(calls) == 29  # accepted and rejected G(n, p) draws, regular graphs
    calls.clear()
    assert graphcore.erdos_renyi(10, 0.3, 5, connected=True).connected
    assert len(calls) == 1


def test_analyze_is_the_one_alpha_case_of_the_sweep():
    # Row r of a sweep is the one-alpha call at alpha r, bit for bit: the
    # verdicts, and the spectrum fields as written.
    for g in (K4, star(3), cycle(5)):
        swept = run_sweep([(g6(g), g)], list(DEFAULT_ALPHA_GRID))
        lines = reports_to_json(swept).splitlines()
        for r, alpha in enumerate(DEFAULT_ALPHA_GRID):
            alone, claims, _ = analyze(g6(g), g, alpha)
            assert evaluation_bits(row_view(alone, 0)) == evaluation_bits(row_view(swept, r))
            assert claims == swept.claims(r)
            single = run_sweep([(g6(g), g)], [alpha])
            assert single.spectra.rho[0].tobytes() == swept.spectra.rho[r].tobytes()
            assert reports_to_json(single) == lines[r] + "\n"


def test_analyze_report_invariants():
    alone, claims, _ = analyze("C~", K4, 0.5)
    evaluations = row_view(alone, 0)
    assert [e.bound_id for e in evaluations] == list(BOUND_IDS)
    assert claims == tuple(e.equality_claim_matched for e in evaluations)
    v = run_sweep([("C~", K4)], [0.5])
    assert row_view(v, 0) == evaluations
    t = v.spectra
    assert v.graph_ids == ("C~",) and t.graphs == (K4,) and t.alphas == (0.5,)
    assert len(t.rho[0]) == K4.n == 4
    assert K4.m == 6 and K4.zagreb == 36
    assert t.energy[0] == pytest.approx(3.0, abs=1e-10)
    assert t.eta.tolist() == [1]


def test_sweep_row_order_and_empty_corpus():
    corpus = [("C~", K4), ("Cs", star(3))]
    v = run_sweep(corpus, [0.0, 0.5])
    t = v.spectra
    assert v.graph_ids == ("C~", "Cs") and t.graphs == (K4, corpus[1][1])
    assert [(v.graph_ids[r // 2], t.alphas[r % 2]) for r in range(len(t))] == [
        ("C~", 0.0), ("C~", 0.5), ("Cs", 0.0), ("Cs", 0.5),
    ]
    with pytest.raises(ValueError):
        run_sweep([], [0.0])


def test_summary_and_violations_k4():
    v = run_sweep([("C~", K4)], [0.0, 0.5])
    summary = summarize(v)
    for bid in BOUND_IDS:
        expected = 1 if bid == "lb_frobenius_asstated" else 0
        assert summary[bid]["violations"] == expected, bid
    assert violations(v) == []
    assert violations(v, strict=True) == [("C~", 0.5, "lb_frobenius_asstated")]


def test_csv_and_json_carry_identical_values():
    v = run_sweep([("C~", K4), (g6(cycle(5)), cycle(5))], [0.0, 0.5])
    json_rows = [json.loads(line) for line in reports_to_json(v).splitlines()]
    csv_rows = list(csv.DictReader(io.StringIO(reports_to_csv(v))))
    flat = [
        (row, bound) for row in json_rows for bound in row["bounds"]
    ]
    assert len(flat) == len(csv_rows)
    for (jrow, jbound), crow in zip(flat, csv_rows):
        assert crow["graph_id"] == jrow["graph_id"]
        assert int(crow["n"]) == jrow["n"]
        assert float(crow["alpha"]) == jrow["alpha"]
        assert [float(x) for x in crow["spectrum"].split(";")] == jrow["spectrum"]
        assert float(crow["energy"]) == jrow["energy"]
        assert crow["id"] == jbound["id"]
        assert (crow["applicable"] == "true") == jbound["applicable"]
        if jbound["value"] is None:
            assert crow["value"] == ""
        else:
            assert float(crow["value"]) == jbound["value"]
            assert float(crow["gap"]) == jbound["gap"]
            assert (crow["holds"] == "true") == jbound["holds"]


def _atlas_slice(tmp_path):
    corpus, skipped = load_corpus(str(ATLAS))
    assert skipped == [] and len(corpus) == 996
    # Every 16th graph: K1 first, then orders 2..7 in atlas order.
    return run_sweep(corpus[::16][:60], list(DEFAULT_ALPHA_GRID))


def _awkward_ids(tmp_path):
    ids = ['odd,"id"', "line\nbreak", "cr\rid", " leading space", "trailing ",
           "tab\tid", "ünïcödé", "", '"', "C~;x", "plain-ascii:1", "back\\slash\\"]
    graphs = [K4, cycle(5), star(3)]
    return run_sweep([(gid, graphs[i % 3]) for i, gid in enumerate(ids)], [0.0, 0.5, 1.0])


def _comma_path(tmp_path):
    folder = tmp_path / "a,b"
    folder.mkdir()
    path = folder / 'petersen "g".txt'
    g = petersen()
    path.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    corpus, skipped = load_corpus(str(path))
    assert skipped == [] and "," in corpus[0][0]
    return run_sweep(corpus, list(DEFAULT_ALPHA_GRID))


def _k1(tmp_path):
    v = run_sweep([("@", Graph(1))], list(DEFAULT_ALPHA_GRID) + [1.0])
    reasons = {ev.reason for r in range(len(v.spectra)) for ev in row_view(v, r)
               if ev.bound_id == "rho_lb_star"}
    assert None not in reasons
    return v


def _summary_and_violations_by_row(v, strict):
    """`summarize` and `violations` rebuilt from each row's verdict records."""
    keys = ("applicable", "holds", "violations", "equalities")
    summary = {bid: dict.fromkeys(keys, 0) for bid in BOUND_IDS}
    bad = []
    k = len(v.spectra.alphas)
    for r in range(len(v.spectra)):
        for e in row_view(v, r):
            counts = summary[e.bound_id]
            counts["applicable"] += e.applicable
            counts["holds"] += e.holds is True
            counts["equalities"] += e.equality is True
            if e.applicable and not e.holds:
                counts["violations"] += 1
                if strict or e.bound_id not in harness.EXPECTED_VIOLATION_IDS:
                    bad.append((v.graph_ids[r // k], v.spectra.alphas[r % k], e.bound_id))
    return summary, bad


def _two_k2(tmp_path):
    return run_sweep([("2K2", Graph(4, [(0, 1), (2, 3)]))], list(DEFAULT_ALPHA_GRID) + [1.0])


def _repeated_id(tmp_path):
    # One id on three graphs: rows are told apart by position, not by id.
    return run_sweep([("dup", K4), ("dup", cycle(5)), ("dup", K4), ("other", star(3))],
                     list(DEFAULT_ALPHA_GRID) + [1.0])


def _flipped_holds(tmp_path):
    # Every applicable verdict flipped, so most rows fail several bounds and
    # the order of violations within and across rows shows.
    v = _atlas_slice(tmp_path)
    return bounds.Verdicts(v.graph_ids, v.spectra, v.reason, v.value, v.target, v.gap,
                           (v.reason == 0) & ~v.holds, v.equality)


def _mixed_fuzz(tmp_path):
    # Orders 3..12 in one call, the edge-deleted graphs' rows solved alongside.
    v, _ = run_fuzz(3, 12, 20, 9, list(DEFAULT_ALPHA_GRID))
    assert len({g.n for g in v.spectra.graphs}) > 5
    return v


_WRITER_TABLES = {"atlas-60": _atlas_slice, "awkward-ids": _awkward_ids,
                  "comma-path": _comma_path, "k1": _k1, "mixed-fuzz": _mixed_fuzz,
                  "flipped-holds": _flipped_holds, "repeated-id": _repeated_id}


@pytest.mark.parametrize("build", list(_WRITER_TABLES.values()), ids=list(_WRITER_TABLES))
def test_csv_writer_matches_reference(build, tmp_path):
    v = build(tmp_path)
    # Lists of lines: a failure shows the first differing line at once,
    # where pytest's diff of two long strings takes seconds.
    assert (reports_to_csv(v).splitlines(True)
            == oracles.reports_to_csv_reference(v).splitlines(True))


@pytest.mark.parametrize("build", list(_WRITER_TABLES.values()), ids=list(_WRITER_TABLES))
def test_json_writer_matches_reference(build, tmp_path):
    v = build(tmp_path)
    assert (reports_to_json(v).splitlines(True)
            == oracles.reports_to_json_reference(v).splitlines(True))


@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
@pytest.mark.parametrize("build", [_atlas_slice, _k1, _two_k2, _repeated_id, _flipped_holds],
                         ids=["atlas-60", "k1", "2k2", "repeated-id", "flipped-holds"])
def test_summary_and_violations_match_per_row_reference(build, strict, tmp_path):
    v = build(tmp_path)
    summary, bad = _summary_and_violations_by_row(v, strict)
    assert summarize(v) == summary
    assert violations(v, strict=strict) == bad


def test_json_writer_numbers_match_json_dumps():
    # Integral, exponent, tiny, huge, negative-zero and non-finite floats.
    xs = [0.0, -0.0, 1.0, -3.0, 0.1, 1e-5, 1.5e-7, 123456789012.5, 1.25e12, 9.99e15,
          1e16, -2.5e300, 5e-324, float("inf"), float("-inf"), float("nan")]
    xs += np.random.default_rng(3).normal(size=200).tolist()
    xs += (np.random.default_rng(4).normal(size=200) * 10.0 ** np.arange(-100, 100)).tolist()
    assert harness._json_numbers(xs) == [json.dumps(round12(x)) for x in xs]


# Where %.12g switches to an exponent (below 1e-4, from 1e12 after
# rounding), integers, signed zeros, subnormals, non-finite values and floats
# past 2**53.
_FORMAT_EDGES = [
    0.0, -0.0, 1.0, -3.0, 7.0, 1e16, -1e16, 2.0 ** 53 + 2.0, 1e15, 5e-324, -5e-324,
    2.2250738585072014e-308, 1e-310, float("inf"), float("-inf"), float("nan"),
    1e-4, -1e-4, 1e-5, 9.99999999999e-5, 9.999999999995e-5, 9.9999999999949e-5,
    0.00010000000000049, 1.00000000000049e-5, 999999999999.4, 999999999999.5, 1e12,
    123456789012.5, 0.1, 1.0 / 3.0,
]


# Floats of every kind in _FORMAT_EDGES: integers, exponents of both signs,
# signed zeros, subnormals, values past 1e12 and non-finite ones.
_FORMAT_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10 ** 17, 10 ** 17).map(float),
    st.floats(1e-6, 1e-3), st.floats(-1e-3, -1e-6),
    st.floats(1e11, 1e13), st.floats(0.0, 1e-300),
    st.sampled_from(_FORMAT_EDGES),
)


@given(st.lists(_FORMAT_FLOATS, min_size=1, max_size=40))
@example(_FORMAT_EDGES)
@settings(max_examples=300, deadline=None)
def test_bulk_number_formats_match_the_per_float_ones(xs):
    # One % call per list gives json.dumps(round12(x)) for JSON and fmt12(x)
    # for CSV, for every x.
    assert harness._json_numbers(xs) == [json.dumps(round12(x)) for x in xs]
    assert harness._csv_join(xs).split(";") == [fmt12(x) for x in xs]


@functools.lru_cache(maxsize=None)
def _pattern_base() -> bounds.Verdicts:
    """Three atlas graphs, of orders 5, 7 and 7, on the default grid."""
    corpus, _ = load_corpus(str(ATLAS))
    return run_sweep([corpus[i] for i in (10, 150, 900)], list(DEFAULT_ALPHA_GRID))


# One bound's cell: a reason code (0 = applicable) and its holds and
# equality flags.
_PATTERN = st.tuples(*[st.tuples(st.integers(0, len(b.guards)), st.booleans(), st.booleans())
                       for b in bounds.BOUNDS])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_writers_match_reference_on_drawn_verdict_patterns(data):
    # A real table's rows given drawn verdicts: each row takes one of a few
    # drawn patterns (every bound's reason code from 0 to its guard count, and
    # on applicable cells its holds and equality flags), so rows share
    # patterns and differ in their numbers. The applicable cells' values and
    # gaps cycle through a drawn list of floats of every kind. Cells that are
    # not applicable keep NaN and False, as evaluate_many leaves them.
    v = _pattern_base()
    patterns = data.draw(st.lists(_PATTERN, min_size=1, max_size=4))
    rows = data.draw(st.lists(st.sampled_from(patterns), min_size=len(v.spectra),
                              max_size=len(v.spectra)))
    reason, holds, equality = np.array(rows).transpose(2, 1, 0)
    reason = reason.astype(np.int8)
    applicable = reason == 0
    k = int(applicable.sum())
    value, gap = np.full(reason.shape, np.nan), np.full(reason.shape, np.nan)
    numbers = data.draw(st.lists(_FORMAT_FLOATS, min_size=1, max_size=40))
    value[applicable] = np.resize(numbers, k)
    gap[applicable] = np.resize(numbers[::-1], k)
    drawn = bounds.Verdicts(v.graph_ids, v.spectra, reason, value,
                            np.where(applicable, v.target, np.nan), gap,
                            holds.astype(bool) & applicable, equality.astype(bool) & applicable)
    # Compared as line lists, which pytest diffs quickly when they differ.
    csv_lines = oracles.reports_to_csv_reference(drawn).splitlines(True)
    assert reports_to_csv(drawn).splitlines(True) == csv_lines
    json_lines = oracles.reports_to_json_reference(drawn).splitlines(True)
    assert reports_to_json(drawn).splitlines(True) == json_lines


def test_csv_awkward_ids_read_back(tmp_path):
    # A lone carriage return, a newline, quotes and commas all survive csv.reader.
    v = _awkward_ids(tmp_path)
    rows = list(csv.reader(io.StringIO(reports_to_csv(v), newline="")))
    assert rows[0] == list(harness.CSV_COLUMNS)
    assert all(len(row) == len(harness.CSV_COLUMNS) for row in rows)
    assert [row[0] for row in rows[1:]] == [gid for gid in v.graph_ids
                                            for _ in v.spectra.alphas for _ in BOUND_IDS]


def test_reports_byte_identical_across_runs():
    first = reports_to_json(run_sweep([("C~", K4)], list(DEFAULT_ALPHA_GRID)))
    second = reports_to_json(run_sweep([("C~", K4)], list(DEFAULT_ALPHA_GRID)))
    assert first.encode() == second.encode()


def test_load_corpus_graph6_lines(tmp_path):
    p = tmp_path / "corpus.g6"
    p.write_text("# comment\nC~\nnot graph6!!\nBg\n")
    corpus, skipped = load_corpus(str(p))
    assert [gid for gid, _ in corpus] == ["C~", "Bg"]
    assert len(skipped) == 1 and ":3:" in skipped[0]


def test_load_corpus_graph6_header(tmp_path, capsys):
    # Lines as networkx's to_graph6_bytes writes them: each record carries the
    # optional ">>graph6<<" header, which is not part of its graph id.
    p = tmp_path / "networkx.g6"
    p.write_bytes(b">>graph6<<Bg\n>>graph6<<C~\n>>graph6<<\nC~\n")
    corpus, skipped = load_corpus(str(p))
    assert corpus == [("Bg", graphcore.path(3)), ("C~", K4), ("C~", K4)]
    assert skipped == [f"{p}:3: empty record"]
    out = tmp_path / "rows.json"
    assert cli.main(["sweep", "--input", str(p), "--alpha", "0.5", "--out", str(out)]) == 0
    assert [json.loads(line)["graph_id"] for line in out.read_text().splitlines()] == [
        "Bg", "C~", "C~"]
    capsys.readouterr()
    assert cli.main(["spectrum", ">>graph6<<C~", "--alpha", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["graph_id"] == "C~"
    # A doubled header is refused as parse_graph6 alone refuses it.
    assert cli.main(["spectrum", ">>graph6<<>>graph6<<Bw", "--alpha", "0.5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "size byte 62 at offset 0 outside 63..126" in err


def test_load_corpus_edge_list(tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text("# triangle\n3 3\n0 1\n1 2\n0 2\n")
    corpus, skipped = load_corpus(str(p))
    assert skipped == []
    assert len(corpus) == 1
    gid, g = corpus[0]
    assert gid.endswith(":1") and g.m == 3


def test_load_corpus_lines_end_only_at_newlines(tmp_path):
    # \x0b, \x0c, \x1c..\x1e and \x85 end a line for str.splitlines, not for
    # a file read in text mode: a line holding one mid-record stays one bad
    # record, and a trailing non-ASCII space is not stripped. \r\n and \r end
    # lines, and trailing ASCII whitespace is stripped as parse_graph6 strips it.
    p = tmp_path / "stray.g6"
    p.write_bytes(b"Bw\x0cBw\nC~\x85D?{\r\nBw\x1cBw\rBw\xa0\nBw\x0b\n")
    corpus, skipped = load_corpus(str(p))
    assert corpus == [("Bw", graphcore.complete(3))]
    assert skipped == [f"{p}:{line}: {message}" for line, message in (
        (1, "expected 1 payload bytes for n=3, got 4"),
        (2, "non-ascii input: 'ascii' codec can't encode character '\\x85' in position 2: "
            "ordinal not in range(128)"),
        (3, "expected 1 payload bytes for n=3, got 4"),
        (4, "non-ascii input: 'ascii' codec can't encode character '\\xa0' in position 2: "
            "ordinal not in range(128)"),
    )]


def test_load_corpus_edge_list_lines_end_only_at_newlines(tmp_path):
    # A stray separator inside an edge line leaves one line, and one error;
    # trailing ASCII whitespace is stripped.
    p = tmp_path / "stray.txt"
    for sep in (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x85"):
        p.write_bytes(b"3 2\n0 1" + sep + b"1 2\n")
        assert load_corpus(str(p)) == ([], [f"{p}: line 2: expected edge 'u v'"])
    p.write_bytes(b"3 2\n0\x0c1\n1 2\n")
    assert load_corpus(str(p)) == ([], [f"{p}: line 2: expected edge 'u v'"])
    p.write_bytes(b"3 2\r\n0 1\r1 2\xa0\n")
    assert load_corpus(str(p)) == ([], [f"{p}: line 3: non-integer endpoints"])
    p.write_bytes(b"3 2\r\n0 1\r1 2\x0c\n")
    assert load_corpus(str(p)) == ([(f"{p}:1", graphcore.path(3))], [])
    # A first payload line that starts with a digit or '-' makes the file an
    # edge list, so a header with a stray separator, or a count line above
    # graph6 records, is one header error; an empty file is no edge list.
    for data in (b"3 2\x0c0 1\n1 2\n", b"996\nBw\n"):
        p.write_bytes(data)
        assert load_corpus(str(p)) == ([], [f"{p}: line 1: expected header 'n m'"])
    p.write_bytes(b"-3 2\n")
    assert load_corpus(str(p)) == ([], [f"{p}: line 1: bad counts n=-3 m=2"])
    # A field is an integer when it matches -?[0-9]+: int's '+' sign and '_'
    # digit separator are not.
    for data, message in ((b"1_0 1\n0 9\n", "line 1: non-integer header fields"),
                          (b"3 2\n+0 1\n1 2\n", "line 2: non-integer endpoints"),
                          (b"3 2\n0 1\n1_0 2\n", "line 3: non-integer endpoints")):
        p.write_bytes(data)
        assert load_corpus(str(p)) == ([], [f"{p}: {message}"])
    for data in (b"", b"\n# c\n"):
        p.write_bytes(data)
        assert load_corpus(str(p)) == ([], [])


def test_fuzz_reproducible_and_sound():
    a, mono = run_fuzz(4, 8, 20, seed=7, alphas=[0.0, 0.5, 0.9])
    b, _ = run_fuzz(4, 8, 20, seed=7, alphas=[0.0, 0.5, 0.9])
    assert a.graph_ids == b.graph_ids
    assert violations(a) == []
    assert mono == ()
    with pytest.raises(ValueError):
        run_fuzz(4, 8, 0, seed=1, alphas=[0.0])
    with pytest.raises(ValueError):
        run_fuzz(2, 8, 5, seed=1, alphas=[0.0])


def _lift_deletion_rows(monkeypatch, tables: list):
    """Wrap `spectra.spectrum_tables` for one fuzz call whose every graph
    loses an edge: of pair (graph j, its a-th alpha in [1/2, 1)), the
    edge-deleted graph's entry e = (j + a) % n is raised 2e-9 above the
    graph's own entry e when (j + a) % 3 == 0, a violation, and to exactly
    1e-9 above it when (j + a) % 3 == 1, inside the tolerance. Appends the
    call's (table, lifted table) to `tables`."""
    real = spectra.spectrum_tables

    def lifting(*groups):
        table, after = real(*groups)
        k, checked = len(table.alphas), len(after.alphas)
        rho = [row.copy() for row in after.rho]
        for j, g in enumerate(after.graphs):
            for a, alpha in enumerate(after.alphas):
                before, e = table.rho[j * k + table.alphas.index(alpha)], (j + a) % g.n
                if (j + a) % 3 < 2:
                    rho[j * checked + a][e] = before[e] + (2e-9, 1e-9)[(j + a) % 3]
        after = spectra.SpectrumTable(after.graphs, after.alphas, tuple(rho), after.shift,
                                      after.energy, after.eta, after.two_s, after.log_gamma,
                                      after.theta, after.rho_1)
        tables.append((table, after))
        return table, after

    monkeypatch.setattr(spectra, "spectrum_tables", lifting)


def _monotonicity_by_pair(v, table, after) -> list:
    """The fuzz call's monotonicity violations, one pair (graph, alpha in
    [1/2, 1)) at a time: some entry of the edge-deleted graph's spectrum
    lies more than 1e-9 above the graph's, in graph then alpha order."""
    k, bad = len(table.alphas), []
    for j in range(len(after.graphs)):
        for a, alpha in enumerate(after.alphas):
            before = table.rho[j * k + table.alphas.index(alpha)].tolist()
            smaller = after.rho[j * len(after.alphas) + a].tolist()
            if any(x > y + 1e-9 for x, y in zip(smaller, before)):
                bad.append((v.graph_ids[j], alpha, "edge_deletion_monotonicity"))
    return bad


def test_fuzz_reports_each_monotonicity_violation_in_pair_order(monkeypatch):
    # Orders 3..12 in one call, so the pairs' spectra have many lengths.
    tables = []
    _lift_deletion_rows(monkeypatch, tables)
    v, mono = run_fuzz(3, 12, 30, 9, list(DEFAULT_ALPHA_GRID))
    (table, after), = tables
    assert len({g.n for g in after.graphs}) > 5 and len(after.graphs) == 30
    expected = _monotonicity_by_pair(v, table, after)
    assert list(mono) == expected
    checked = [a for a in DEFAULT_ALPHA_GRID if 0.5 <= a < 1.0]
    assert expected == [(v.graph_ids[j], alpha, "edge_deletion_monotonicity")
                        for j in range(30) for a, alpha in enumerate(checked)
                        if (j + a) % 3 == 0]


def test_fuzz_without_a_checked_alpha_solves_no_deletion_rows(monkeypatch):
    tables = []
    _lift_deletion_rows(monkeypatch, tables)
    v, mono = run_fuzz(3, 12, 30, 9, [0.0, 0.25, 0.45, 1.0])
    (table, after), = tables
    assert len(after) == 0 and len(table) == 30 * 4
    assert mono == ()


def test_fuzz_deletes_the_drawn_edge(monkeypatch):
    # Which edge each graph loses, frozen: the drawn index into its edges in
    # sorted order, passed on as Python ints.
    deleted = []
    real = graphcore.delete_edge

    def recording(g, u, v):
        deleted.append((g6(g), u, v))
        return real(g, u, v)

    monkeypatch.setattr(graphcore, "delete_edge", recording)
    run_fuzz(4, 12, 8, 5, [0.5])
    assert deleted == [
        ("GF\\oz{", 5, 7), ("C|", 0, 2), ("Cu", 0, 2), ("FK_i_", 2, 5),
        ("FPoU?", 0, 6), ("Eztg", 0, 4), ("DXo", 0, 4), ("EL`G", 0, 3),
    ]
    assert all(type(u) is int and type(v) is int for _, u, v in deleted)


def test_hunt_stars_always_hit():
    corpus = [(g6(star(k)), star(k)) for k in range(2, 11)]
    hits = equality_hits(run_sweep(corpus, list(DEFAULT_ALPHA_GRID)), "lb_maxdeg")
    assert len(hits) == len(corpus) * len(DEFAULT_ALPHA_GRID)
    assert all(h["claim_matched"] for h in hits)


def test_hunt_certifies_each_hit_once(monkeypatch):
    calls = _count_certify(monkeypatch)
    corpus = [(g6(star(k)), star(k)) for k in range(1, 12)]
    hits = equality_hits(run_sweep(corpus, list(DEFAULT_ALPHA_GRID)), "lb_maxdeg")
    # K2 (one leaf) has n < 3; the stars with 2..11 leaves hit at every alpha.
    assert len(hits) == 10 * len(DEFAULT_ALPHA_GRID)
    assert len(calls) == len(hits)
    assert all(h["claim_matched"] and h["certificate"]["is_star"] for h in hits)


def test_hunt_average_degree_on_cycles():
    corpus = [(g6(cycle(n)), cycle(n)) for n in range(3, 11)]
    hits = equality_hits(run_sweep(corpus, [0.0]), "lb_average_degree")
    # The triangle is complete (inertia (1, 0, 2)) and matches the stated
    # class; C_4 is tight too but its zero eigenvalues contradict it.
    by_graph = {h["graph_id"]: h for h in hits}
    assert set(by_graph) == {g6(cycle(3)), g6(cycle(4))}
    assert by_graph[g6(cycle(3))]["claim_matched"]
    assert by_graph[g6(cycle(4))]["contradicts_claim"]
    longer = [(gid, g) for gid, g in corpus if g.n >= 5]
    assert equality_hits(run_sweep(longer, [0.0]), "lb_average_degree") == []


def test_hunt_koolen_on_complete_family():
    corpus = [(g6(complete(n)), complete(n)) for n in range(3, 7)]
    v = run_sweep(corpus, [0.0])
    hits = equality_hits(v, "ub_koolen_energy")
    assert len(hits) == len(corpus)
    assert all(h["claim_matched"] for h in hits)
    with pytest.raises(ValueError):
        equality_hits(v, "no_such_bound")


def _hits_by_row(v):
    """Per bound id, `equality_hits` rebuilt from each row's verdict records
    and certificate."""
    hits = {bid: [] for bid in BOUND_IDS}
    t = v.spectra
    k = len(t.alphas)
    for r in range(len(t)):
        for e in row_view(v, r):
            if not e.equality:
                continue
            cert = bounds.certify(t.graphs[r // k], t.rho[r])
            hits[e.bound_id].append({
                "graph_id": v.graph_ids[r // k],
                "alpha": round12(t.alphas[r % k]),
                "bound_id": e.bound_id,
                "value": round12(e.value),
                "energy": round12(e.energy),
                "gap": round12(e.gap),
                "claim_matched": e.equality_claim_matched,
                "contradicts_claim": e.equality_claim_matched is False,
                "certificate": {
                    "is_complete": cert.is_complete,
                    "is_regular": cert.is_regular,
                    "is_star": cert.is_star,
                    "distinct_alpha_eigenvalue_count": cert.distinct_alpha_eigenvalue_count,
                    "adjacency_inertia": list(cert.adjacency_inertia),
                },
            })
    return hits


def _families(tmp_path):
    graphs = [b(n) for n in range(3, 11) for b in (lambda n: star(n - 1), cycle, complete)]
    return run_sweep([(g6(g), g) for g in graphs], list(DEFAULT_ALPHA_GRID))


@pytest.mark.parametrize("build", [_atlas_slice, _families], ids=["atlas-60", "families"])
def test_hunt_matches_per_row_reference(build, tmp_path):
    # Compared as the JSON lines hunt-equality writes: values, types, key
    # order and hit order all show.
    v = build(tmp_path)
    reference = _hits_by_row(v)
    assert sum(map(len, reference.values())) > 0
    for bid in BOUND_IDS:
        got = [json.dumps(h) for h in equality_hits(v, bid)]
        assert got == [json.dumps(h) for h in reference[bid]], bid


def test_float_formatting():
    assert fmt12(0.1875) == "0.1875"
    assert fmt12(1.0 / 3.0) == "0.333333333333"
    assert fmt12(1.5e-11) == "1.5e-11"
    assert round12(float(fmt12(1 / 3))) == round12(1 / 3)


@given(st.floats())
def test_fmt12_of_round12_is_fmt12(x):
    # The CSV writer formats once; the JSON writer's round12 value must
    # format to the same string.
    assert fmt12(round12(x)) == fmt12(x)


# -- CLI ----------------------------------------------------------------------


def test_cli_spectrum(capsys):
    assert cli.main(["spectrum", "C~", "--alpha", "0.5"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["spectrum"] == [3.0, 1.0, 1.0, 1.0]
    assert row["energy"] == 3.0


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_cli_spectrum_writes_null_for_an_overflowing_gamma(tmp_path, capsys):
    # A connected G(400, 1/2) at alpha = 0: |prod s_i| is about 1e313, past
    # the float64 range, and is written as null; a finite one as a number.
    g = graphcore.erdos_renyi(400, 0.5, 7, connected=True)
    edges = tmp_path / "g400.txt"
    edges.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    assert cli.main(["spectrum", "--input", str(edges), "--alpha", "0"]) == 0
    assert cli.main(["spectrum", "C~", "--alpha", "0.5"]) == 0
    out, err = capsys.readouterr()
    big, k4 = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert err == "" and big["gamma_det"] is None and big["n"] == 400
    assert k4["gamma_det"] == 0.1875  # K4 at alpha = 1/2: |(3 - 1.5)(1 - 1.5)^3|


def test_spectrum_writer_matches_its_reference():
    # `spectrum` formats a row's floats in one call and writes the row as one
    # f-string; the reference dumps one dict per row. Seeded atlas graphs,
    # K1 and Petersen (Gamma 0.0 at a singular shift) and a connected
    # G(400, 1/2) edge list, whose Gamma overflows a float64 at alpha = 0
    # (null) and is past 1e240 at 1/2 and 1.
    corpus, _ = load_corpus(str(ATLAS))
    picks = np.random.default_rng(29).choice(len(corpus), 60, replace=False).tolist()
    g = graphcore.erdos_renyi(400, 0.5, 7, connected=True)
    big = graphcore.parse_edge_list(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n"
                                                              for u, v in sorted(g.edges)))
    corpus = ([corpus[i] for i in picks] + [("@", Graph(1)), (g6(petersen()), petersen()),
                                            ("g400.txt:1", big)])
    ids = [gid for gid, _ in corpus]
    table, = spectra.spectrum_tables(([g for _, g in corpus], [0.0, 0.5, 1.0]))
    lines = harness.spectrum_to_json(ids, table).splitlines(True)
    assert lines == oracles.spectrum_text_reference(ids, table).splitlines(True)
    gammas = [json.loads(line)["gamma_det"] for line in lines]
    assert gammas[-3] is None and min(gammas[-2:]) > 1e240
    assert gammas[-9:-6] == [0.0] * 3 and gammas[-4] == 0.0  # K1; Petersen at alpha = 1


def test_cli_spectrum_alpha_out_of_range(capsys):
    assert cli.main(["spectrum", "C~", "--alpha", "1.5"]) == 1
    assert "alpha" in capsys.readouterr().err


def test_cli_spectrum_bad_graph6(capsys):
    assert cli.main(["spectrum", "!!"]) == 1
    assert "graph6" in capsys.readouterr().err


def test_cli_bounds(capsys):
    assert cli.main(["bounds", "C~", "--alpha", "0.5"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert [b["id"] for b in row["bounds"]] == list(BOUND_IDS)
    lbf = next(b for b in row["bounds"] if b["id"] == "lb_frobenius_asstated")
    assert lbf["holds"] is False


def test_cli_usage_errors_name_their_cause(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for argv, message in (
        (["bounds", "C~", "--input", missing], "give either a graph6 record or --input, not both"),
        (["bounds"], "need a graph6 record or --input"),
        (["bounds", "--input", missing], f"[Errno 2] No such file or directory: {missing!r}"),
        (["bounds", "C~", "--alpha", "x"], "bad alpha value 'x'"),
        (["bounds", "C~", "--alpha", ","], "empty alpha list"),
        (["hunt-equality", "--bound", "lb_zagreb", "--family", "cycle", "--n-min", "1",
          "--n-max", "2"], "family 'cycle' has no members with order in [1, 2]"),
    ):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # An empty entry in an alpha list is skipped.
    assert cli.main(["bounds", "C~", "--alpha", "0.5,,1"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


@pytest.mark.parametrize("command", ["spectrum", "bounds"])
def test_cli_one_alpha_line_is_its_line_among_many(command, capsys):
    # A call at one alpha solves and reduces its one row alone; its line has
    # the bytes of that alpha's line in a call at several alphas.
    alphas = ("0", "0.5", "1")
    big = g6(graphcore.erdos_renyi(62, 0.3, 5, connected=True))
    for graph in ("@", g6(petersen()), big):
        assert cli.main([command, graph, "--alpha", ",".join(alphas)]) == 0
        lines = capsys.readouterr().out.splitlines(True)
        assert len(lines) == len(alphas)
        for alpha, line in zip(alphas, lines):
            assert cli.main([command, graph, "--alpha", alpha]) == 0
            assert capsys.readouterr().out == line, (graph, alpha)


def test_cli_spectrum_corpus_is_its_one_graph_calls(tmp_path, capsys):
    # A corpus of five orders is solved as one table: its lines come graph
    # by graph, then alpha by alpha, and each has the bytes of the line a
    # one-graph call at that one alpha writes.
    records = ["@", g6(Graph(4, [(0, 1), (2, 3)])), g6(graphcore.path(3)), g6(petersen()),
               g6(graphcore.erdos_renyi(62, 0.3, 11, connected=True))]
    alphas = ("0", "0.5", "1")
    corpus = tmp_path / "mixed.g6"
    corpus.write_text("".join(f"{record}\n" for record in records))
    assert cli.main(["spectrum", "--input", str(corpus), "--alpha", ",".join(alphas)]) == 0
    lines = capsys.readouterr().out.splitlines(True)
    assert [(row["graph_id"], row["alpha"]) for row in map(json.loads, lines)] == [
        (record, float(alpha)) for record in records for alpha in alphas]
    assert [json.loads(lines[3 * i])["n"] for i in range(5)] == [1, 4, 3, 10, 62]
    for i, record in enumerate(records):
        for j, alpha in enumerate(alphas):
            assert cli.main(["spectrum", record, "--alpha", alpha]) == 0
            assert capsys.readouterr().out == lines[3 * i + j], (record, alpha)


def test_cli_negative_zero_alpha_is_zero(tmp_path, capsys):
    # -0 is alpha 0: every command writes the bytes it writes at 0, and no
    # -0.0 (the alpha, the shift or a zero eigenvalue) reaches a report.
    corpus = tmp_path / "c.g6"
    corpus.write_text("D?{\nC~\n")
    outputs = {}
    for zero in ("0", "-0"):
        for argv in (["bounds", "D?{", "--alpha", zero],
                     ["spectrum", "D?{", "--alpha", zero],
                     ["spectrum", "D?{", f"--alpha={zero},0.5"],
                     ["sweep", "--input", str(corpus), "--format", "csv", "--alpha", zero],
                     ["fuzz", "--n-min", "4", "--n-max", "5", "--trials", "3", "--seed", "3",
                      "--out", str(tmp_path / f"fuzz{zero}.json"), "--alpha", zero]):
            assert cli.main(argv) == 0
            outputs.setdefault(zero, []).append(capsys.readouterr())
        outputs[zero].append((tmp_path / f"fuzz{zero}.json").read_text())
    assert outputs["-0"] == outputs["0"]
    bounds_out, spectrum_out = outputs["0"][0].out, outputs["0"][1].out
    assert '"alpha":0.0,' in bounds_out and '"alpha":0.0,' in spectrum_out
    assert "-0.0" not in bounds_out + spectrum_out


def test_cli_sweep_exit_codes(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("C~\nBg\n")
    out = tmp_path / "rows.json"
    assert cli.main([
        "sweep", "--input", str(corpus), "--alpha", "0,0.5", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    assert cli.main([
        "sweep", "--input", str(corpus), "--alpha", "0,0.5", "--strict",
        "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert "lb_frobenius_asstated" in err


def test_cli_strict_sweep_stderr_is_the_summary_then_the_violations(tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("C~\n")
    assert cli.main(["sweep", "--input", str(corpus), "--alpha", "0.5,0.9", "--strict",
                     "--out", str(tmp_path / "rows.json")]) == 2
    table = harness.verdict_tail(run_sweep([("C~", K4)], [0.5, 0.9]), []).splitlines()
    assert capsys.readouterr().err == "\n".join(table + [
        "violation\tC~\t0.5\tlb_frobenius_asstated",
        "violation\tC~\t0.9\tlb_frobenius_asstated"]) + "\n"


@pytest.mark.parametrize("command", ["spectrum", "bounds"])
def test_cli_record_names_its_graph_however_it_is_passed(command, tmp_path, capsys):
    # A record's graph id is its text stripped of ASCII whitespace, less one
    # header, whether it is the positional argument or an --input line: all
    # six calls write the same bytes.
    corpus = tmp_path / "c.g6"
    outs = []
    for record in (" C~ ", "C~", ">>graph6<<C~"):
        corpus.write_text(record + "\n")
        for source in ([record], ["--input", str(corpus)]):
            assert cli.main([command, *source, "--alpha", "0.5"]) == 0
            outs.append(capsys.readouterr().out)
    assert outs == [outs[0]] * 6 and json.loads(outs[0])["graph_id"] == "C~"


def test_cli_sweep_csv_format(tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text("C~\n")
    out = tmp_path / "rows.csv"
    assert cli.main([
        "sweep", "--input", str(corpus), "--alpha", "0", "--format", "csv",
        "--out", str(out),
    ]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == len(BOUND_IDS)
    assert rows[0]["graph_id"] == "C~"


def test_cli_sweep_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.g6"
    corpus.write_text("# nothing here\n")
    assert cli.main(["sweep", "--input", str(corpus)]) == 1
    assert "no graphs" in capsys.readouterr().err


def test_cli_fuzz_usage_errors(capsys):
    assert cli.main(["fuzz", "--trials", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert cli.main(["fuzz", "--n-min", "2", "--n-max", "5", "--trials", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert cli.main(["fuzz", "--seed", "-1", "--trials", "1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_cli_fuzz_small_clean(capsys):
    code = cli.main([
        "fuzz", "--n-min", "4", "--n-max", "6", "--trials", "6",
        "--seed", "3", "--alpha", "0,0.5,0.9",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "violation\t" not in captured.err
    assert "unexpected bound violations" in captured.err


def test_cli_fuzz_violations_follow_the_summary_on_stderr(capsys):
    # As in sweep: the summary table, then one line per counted violation,
    # all on stderr, then fuzz's closing line; stdout stays empty.
    code = cli.main(["fuzz", "--n-min", "4", "--n-max", "10", "--trials", "50",
                     "--seed", "3", "--strict"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    v, _ = run_fuzz(4, 10, 50, 3, list(DEFAULT_ALPHA_GRID))
    table = harness.verdict_tail(v, []).splitlines()
    assert lines[:len(table)] == table
    bad = lines[len(table):-1]
    assert len(bad) == 270
    assert all(line.startswith("violation\t") for line in bad)
    assert lines[-1] == ("50 graphs, 550 reports, 270 unexpected bound violations, "
                         "0 monotonicity violations")


def test_cli_hunt_family(capsys):
    code = cli.main([
        "hunt-equality", "--bound", "rho_lb_star", "--family", "star",
        "--n-min", "3", "--n-max", "6", "--alpha", "0,0.5",
    ])
    captured = capsys.readouterr()
    assert code == 0
    hits = [json.loads(line) for line in captured.out.splitlines()]
    assert len(hits) == 8  # four stars, two alphas
    assert all(h["claim_matched"] for h in hits)


def test_cli_hunt_family_order_cap_checked_before_building(capsys, monkeypatch):
    def no_build(n):
        pytest.fail(f"built K_{n}")

    monkeypatch.setattr(graphcore, "complete", no_build)
    for n_max in ("20000", "63"):
        assert cli.main([
            "hunt-equality", "--bound", "lb_maxdeg", "--family", "complete",
            "--n-min", n_max, "--n-max", n_max, "--alpha", "0",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and n_max in captured.err
        assert "Traceback" not in captured.err
    # The Petersen graph has one order and ignores the range.
    assert cli.main([
        "hunt-equality", "--bound", "ub_eta", "--family", "petersen",
        "--n-max", "20000", "--alpha", "0.5",
    ]) == 0
    assert "for ub_eta" in capsys.readouterr().err


def test_cli_hunt_requires_one_source(capsys):
    assert cli.main(["hunt-equality", "--bound", "lb_maxdeg"]) == 1
    assert cli.main(["hunt-equality", "--bound", "bogus", "--family", "star"]) == 1
    capsys.readouterr()


def _cli_with_out(kind, tmp_path, out):
    corpus = tmp_path / "c.g6"
    corpus.write_text("C~\nBg\n")
    argv = {
        "sweep": ["sweep", "--input", str(corpus), "--alpha", "0,0.5"],
        "fuzz": ["fuzz", "--n-min", "4", "--n-max", "5", "--trials", "2",
                 "--alpha", "0.5"],
        "hunt-equality": ["hunt-equality", "--bound", "lb_maxdeg", "--family",
                          "star", "--n-min", "3", "--n-max", "4"],
    }[kind]
    return cli.main(argv + ["--out", str(out)])


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("kind", ["sweep", "fuzz", "hunt-equality"])
def test_cli_unwritable_out_is_a_usage_error(kind, where, tmp_path, capsys):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
    assert _cli_with_out(kind, tmp_path, out) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {out}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
def test_cli_tolerance_must_be_finite_and_nonnegative(bad, tmp_path, capsys):
    corpus = tmp_path / "c.g6"
    corpus.write_text("C~\n")
    for argv in (["bounds", "C~"], ["sweep", "--input", str(corpus)],
                 ["fuzz", "--trials", "1"],
                 ["hunt-equality", "--bound", "lb_maxdeg", "--family", "star"]):
        assert cli.main(argv + [f"--tolerance={bad}"]) == 1, argv
        assert "--tolerance" in capsys.readouterr().err
    assert cli.main(["bounds", "C~", "--tolerance", "0"]) == 0


def test_cli_spectrum_takes_no_tolerance(capsys):
    assert cli.main(["spectrum", "C~", "--tolerance", "1e-7"]) == 1
    assert "--tolerance" in capsys.readouterr().err


def test_cli_oversized_edge_list_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_matrix(g):
        pytest.fail(f"built an adjacency matrix of order {g.n}")

    def no_graph(g, n, edges=()):
        pytest.fail(f"built a graph, and so its adjacency matrix, of order {n}")

    monkeypatch.setattr(graphcore.Graph, "adjacency", property(no_matrix))
    monkeypatch.setattr(graphcore.Graph, "__init__", no_graph)
    big = tmp_path / "big.txt"
    big.write_text("20000 1\n0 1\n")
    for argv in (["spectrum", "--input", str(big)],
                 ["sweep", "--input", str(big), "--format", "csv"]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "20000" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["spectrum", "C~"], ["bounds", "C~", "--alpha", "0,1"],
                                  ["fuzz", "--n-min", "4", "--n-max", "4", "--trials", "1"]])
def test_cli_eigensolver_failure_is_an_error_not_a_traceback(argv, capsys, monkeypatch):
    def failing_eigvalsh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: symmetric eigensolver failed: Eigenvalues did not converge\n"


def test_cli_usage_error_returns_one():
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["--help"]) == 0


_CLI_OPTIONS = [option for _, _, options in cli._COMMANDS.values() for option in options]
_CLI_FLAGS = sorted({flag for flag, _ in _CLI_OPTIONS if flag.startswith("--")})
_CLI_VALUES = st.sampled_from([
    "0", "62", "-3", "-0.5", "nan", "1e-7", "csv", "xml", "lb_maxdeg", "star", "C~",
    "@", "", "-x", "--out", "-h",
])
_CLI_NOISE = st.one_of(
    _CLI_VALUES,
    st.sampled_from(["-h", "--help", "--", "bogus"]),
    st.sampled_from(_CLI_FLAGS).map(lambda f: f[:4]),  # abbreviations
    st.tuples(st.sampled_from(_CLI_FLAGS), _CLI_VALUES).map("=".join),
)


def _cli_chunk(option):
    """A declared option (or positional) with a value its type and choices accept."""
    flag, kwargs = option
    if kwargs.get("action") == "store_true":
        return st.just([flag])
    if "choices" in kwargs:
        value = st.sampled_from(kwargs["choices"])
    elif kwargs.get("type") is int:
        value = st.integers(0, 70).map(str)
    else:
        value = st.sampled_from(["0", "1e-7", "0,0.5", "C~", "x.g6"])
    return value.map(lambda v: [flag, v] if flag.startswith("-") else [v])


@st.composite
def _cli_argv(draw):
    """A well-formed call (required options included) with up to two defects:
    a value swapped for any value, a noise token, a dropped chunk, or an
    option of any subcommand."""
    name = draw(st.sampled_from([*cli._COMMANDS, "bogus", "--input"]))
    own = cli._COMMANDS[name][2] if name in cli._COMMANDS else ()
    chunks = [draw(_cli_chunk(o)) for o in own if o[1].get("required")]
    for option in draw(st.lists(st.sampled_from(own or _CLI_OPTIONS), max_size=5)):
        chunks.insert(draw(st.integers(0, len(chunks))), draw(_cli_chunk(option)))
    for defect in draw(st.lists(st.sampled_from(["value", "noise", "drop", "foreign"]),
                                max_size=2)):
        at = draw(st.integers(0, len(chunks)))
        if defect == "noise":
            chunks.insert(at, [draw(_CLI_NOISE)])
        elif defect == "foreign":
            chunks.insert(at, draw(st.sampled_from(_CLI_OPTIONS).flatmap(_cli_chunk)))
        elif at < len(chunks) and defect == "drop":
            del chunks[at]
        elif at < len(chunks):
            chunks[at] = chunks[at][:-1] + [draw(_CLI_VALUES)]
    return [name, *(tok for c in chunks for tok in c)]


_PARSER = cli.build_parser()


@settings(max_examples=500, deadline=None)
@given(_cli_argv())
def test_read_argv_agrees_with_argparse(argv):
    args = cli._read_argv(argv)
    if args is None:
        return  # argparse decides
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            parsed = _PARSER.parse_args(argv)
    except SystemExit:
        pytest.fail(f"reader accepted {argv!r}, argparse refused: {err.getvalue()}")
    assert vars(args) == vars(parsed)


def test_cli_benchmark_and_ci_argv_shapes_skip_argparse(tmp_path, monkeypatch, capsys):
    def no_parser():
        pytest.fail("built the argparse parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    corpus = tmp_path / "c.g6"
    corpus.write_text("C~\nBg\n")
    out = str(tmp_path / "out")
    for argv in (
        ["sweep", "--input", str(corpus), "--format", "csv", "--out", out],
        ["sweep", "--input", str(corpus), "--format", "json", "--out", out, "--alpha", "0.5"],
        ["sweep", "--input", str(corpus), "--out", out],
        ["fuzz", "--n-min", "4", "--n-max", "4", "--trials", "2", "--seed", "7", "--out", out],
        ["hunt-equality", "--input", str(corpus), "--bound", "lb_average_degree", "--out", out],
        ["hunt-equality", "--family", "star", "--n-min", "2", "--n-max", "5",
         "--bound", "lb_maxdeg"],
        ["bounds", "C~"],
        ["spectrum", "C~"],
    ):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "alphaenergy", "spectrum", "Bg", "--alpha", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    row = json.loads(proc.stdout)
    assert row["energy"] == pytest.approx(2 * 2 ** 0.5, abs=1e-9)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["sweep", "--input", str(ATLAS), "--format", "csv"],
    ["spectrum", "@"],
], ids=["sweep", "spectrum"])
def test_cli_closed_stdout_is_an_error_not_a_traceback(argv, unbuffered):
    # The read end is closed before the program starts, so its first write
    # to stdout (or the final flush) meets a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run([sys.executable, "-m", "alphaenergy", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Broken pipe" in proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


_FUZZ_CALLS = (
    ("7", "7", "4", "12345"),
    ("10", "10", "4", "2712"),
    ("4", "10", "200", "42"),  # criterion 5
)


def _fresh_fuzz_calls(out: Path) -> list[str]:
    """Run each of _FUZZ_CALLS in turn in one fresh interpreter, writing
    report i to out/i.json; whether numpy.random is imported, first after
    the package import, then after each call."""
    lines = ["import sys", "import alphaenergy", "from alphaenergy import cli",
             "print('numpy.random' in sys.modules)"]
    for i, (n_min, n_max, trials, seed) in enumerate(_FUZZ_CALLS):
        argv = ["fuzz", "--n-min", n_min, "--n-max", n_max, "--trials", trials,
                "--seed", seed, "--out", str(out / f"{i}.json")]
        lines += [f"assert cli.main({argv!r}) == 0", "print('numpy.random' in sys.modules)"]
    proc = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_small_fuzz_call_leaves_numpy_random_unimported(tmp_path):
    # Every draw comes from the standard library's generator, so no fuzz
    # call imports numpy.random, and a seed gives the same reports in two
    # processes.
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert _fresh_fuzz_calls(first) == ["False"] * (1 + len(_FUZZ_CALLS))
    assert _fresh_fuzz_calls(second) == ["False"] * (1 + len(_FUZZ_CALLS))
    for i, (_, _, trials, _) in enumerate(_FUZZ_CALLS):
        report = (first / f"{i}.json").read_bytes()
        assert report.count(b"\n") == int(trials) * len(DEFAULT_ALPHA_GRID)
        assert report == (second / f"{i}.json").read_bytes()
