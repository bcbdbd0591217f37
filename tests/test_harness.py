import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from alphaenergy import bounds, cli, graphcore, harness
from alphaenergy.bounds import BOUND_IDS
from alphaenergy.graphcore import Graph, complete, cycle, petersen, serialize_graph6, star
from alphaenergy.harness import (
    DEFAULT_ALPHA_GRID,
    analyze,
    fmt12,
    load_corpus,
    reports_to_csv,
    reports_to_json,
    round12,
    run_fuzz,
    run_hunt,
    run_sweep,
    summarize,
    violations,
)


def g6(g) -> str:
    return serialize_graph6(g).decode("ascii")


K4 = complete(4)
ATLAS = Path(__file__).resolve().parents[1] / "perfbench" / "corpora" / "atlas7.g6"


def test_analyze_certifies_once(monkeypatch):
    calls = []
    real = bounds.certify

    def counting(g, sp):
        calls.append(sp.alpha)
        return real(g, sp)

    monkeypatch.setattr(bounds, "certify", counting)
    analyze("C~", K4, 0.5)
    assert calls == [0.5]


def _count_eigh(monkeypatch) -> list:
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_sweep_solves_each_graph_at_most_twice(monkeypatch):
    calls = _count_eigh(monkeypatch)
    corpus = [("C~", K4), (g6(star(3)), star(3)), (g6(cycle(5)), cycle(5))]
    reports = run_sweep(corpus, list(DEFAULT_ALPHA_GRID))
    assert len(reports) == 3 * len(DEFAULT_ALPHA_GRID)
    assert len(calls) <= 2 * len(corpus)


def test_fuzz_solves_each_graph_at_most_three_times(monkeypatch):
    calls = _count_eigh(monkeypatch)
    result = run_fuzz(4, 6, 4, 1, list(DEFAULT_ALPHA_GRID))
    assert result.generated == 4
    assert len(calls) <= 3 * result.generated


def test_analyze_is_the_one_alpha_case_of_the_sweep():
    for g in (K4, star(3), cycle(5)):
        swept = run_sweep([(g6(g), g)], list(DEFAULT_ALPHA_GRID))
        single = [analyze(g6(g), g, alpha) for alpha in DEFAULT_ALPHA_GRID]
        assert reports_to_json(swept) == reports_to_json(single)


def test_analyze_report_invariants():
    rep = analyze("C~", K4, 0.5)
    assert [e.bound_id for e in rep.evaluations] == list(BOUND_IDS)
    assert len(rep.spectrum) == rep.n == 4
    assert rep.m == 6 and rep.zagreb == 36
    assert rep.energy == pytest.approx(3.0, abs=1e-10)
    assert rep.eta == 1


def test_sweep_row_order_and_empty_corpus():
    corpus = [("C~", K4), ("Cs", star(3))]
    reports = run_sweep(corpus, [0.0, 0.5])
    assert [(r.graph_id, r.alpha) for r in reports] == [
        ("C~", 0.0), ("C~", 0.5), ("Cs", 0.0), ("Cs", 0.5),
    ]
    with pytest.raises(ValueError):
        run_sweep([], [0.0])


def test_summary_and_violations_k4():
    reports = run_sweep([("C~", K4)], [0.0, 0.5])
    summary = summarize(reports)
    for bid in BOUND_IDS:
        expected = 1 if bid == "lb_frobenius_asstated" else 0
        assert summary[bid]["violations"] == expected, bid
    assert violations(reports) == []
    assert violations(reports, strict=True) == [("C~", 0.5, "lb_frobenius_asstated")]


def test_csv_and_json_carry_identical_values():
    reports = run_sweep([("C~", K4), (g6(cycle(5)), cycle(5))], [0.0, 0.5])
    json_rows = [json.loads(line) for line in reports_to_json(reports).splitlines()]
    csv_rows = list(csv.DictReader(io.StringIO(reports_to_csv(reports))))
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
           "tab\tid", "ünïcödé", "", '"', "C~;x", "plain-ascii:1"]
    graphs = [K4, cycle(5), star(3)]
    return [rep for i, gid in enumerate(ids)
            for rep in harness.analyze_graph(gid, graphs[i % 3], [0.0, 0.5, 1.0])]


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
    reports = run_sweep([("@", Graph(1))], list(DEFAULT_ALPHA_GRID) + [1.0])
    reasons = {ev.reason for rep in reports for ev in rep.evaluations
               if ev.bound_id == "rho_lb_star"}
    assert None not in reasons
    return reports


@pytest.mark.parametrize("build", [_atlas_slice, _awkward_ids, _comma_path, _k1],
                         ids=["atlas-60", "awkward-ids", "comma-path", "k1"])
def test_csv_writer_matches_reference(build, tmp_path):
    reports = build(tmp_path)
    assert reports_to_csv(reports) == oracles.reports_to_csv_reference(reports)


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


def test_load_corpus_edge_list(tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text("# triangle\n3 3\n0 1\n1 2\n0 2\n")
    corpus, skipped = load_corpus(str(p))
    assert skipped == []
    assert len(corpus) == 1
    gid, g = corpus[0]
    assert gid.endswith(":1") and g.m == 3


def test_fuzz_reproducible_and_sound():
    a = run_fuzz(4, 8, 20, seed=7, alphas=[0.0, 0.5, 0.9])
    b = run_fuzz(4, 8, 20, seed=7, alphas=[0.0, 0.5, 0.9])
    assert [r.graph_id for r in a.reports] == [r.graph_id for r in b.reports]
    assert violations(list(a.reports)) == []
    assert a.monotonicity_violations == ()
    with pytest.raises(ValueError):
        run_fuzz(4, 8, 0, seed=1, alphas=[0.0])
    with pytest.raises(ValueError):
        run_fuzz(2, 8, 5, seed=1, alphas=[0.0])


def test_hunt_stars_always_hit():
    corpus = [(g6(star(k)), star(k)) for k in range(2, 11)]
    hits = run_hunt(corpus, list(DEFAULT_ALPHA_GRID), "lb_maxdeg")
    assert len(hits) == len(corpus) * len(DEFAULT_ALPHA_GRID)
    assert all(h.claim_matched for h in hits)


def test_hunt_average_degree_on_cycles():
    corpus = [(g6(cycle(n)), cycle(n)) for n in range(3, 11)]
    hits = run_hunt(corpus, [0.0], "lb_average_degree")
    # The triangle is complete (inertia (1, 0, 2)) and matches the stated
    # class; C_4 is tight too but its zero eigenvalues contradict it.
    by_graph = {h.graph_id: h for h in hits}
    assert set(by_graph) == {g6(cycle(3)), g6(cycle(4))}
    assert by_graph[g6(cycle(3))].claim_matched
    assert by_graph[g6(cycle(4))].contradicts_claim
    longer = [(gid, g) for gid, g in corpus if g.n >= 5]
    assert run_hunt(longer, [0.0], "lb_average_degree") == []


def test_hunt_koolen_on_complete_family():
    corpus = [(g6(complete(n)), complete(n)) for n in range(3, 7)]
    hits = run_hunt(corpus, [0.0], "ub_koolen_energy")
    assert len(hits) == len(corpus)
    assert all(h.claim_matched for h in hits)
    with pytest.raises(ValueError):
        run_hunt(corpus, [0.0], "no_such_bound")


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


def test_cli_fuzz_small_clean(capsys):
    code = cli.main([
        "fuzz", "--n-min", "4", "--n-max", "6", "--trials", "6",
        "--seed", "3", "--alpha", "0,0.5,0.9",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""  # no violation lines
    assert "unexpected bound violations" in captured.err


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

    monkeypatch.setattr(graphcore, "adjacency_matrix", no_matrix)
    big = tmp_path / "big.txt"
    big.write_text("20000 1\n0 1\n")
    for argv in (["spectrum", "--input", str(big)],
                 ["sweep", "--input", str(big), "--format", "csv"]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "20000" in captured.err
        assert "Traceback" not in captured.err


def test_cli_usage_error_returns_one():
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["--help"]) == 0


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "alphaenergy", "spectrum", "Bg", "--alpha", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    row = json.loads(proc.stdout)
    assert row["energy"] == pytest.approx(2 * 2 ** 0.5, abs=1e-9)
