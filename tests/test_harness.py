import csv
import io
import json
import subprocess
import sys

import pytest

from alphaenergy import bounds, cli, harness
from alphaenergy.bounds import BOUND_IDS
from alphaenergy.graphcore import complete, cycle, serialize_graph6, star
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


def test_analyze_certifies_once(monkeypatch):
    calls = []
    real = bounds.certify

    def counting(g, sp):
        calls.append(sp.alpha)
        return real(g, sp)

    monkeypatch.setattr(bounds, "certify", counting)
    analyze("C~", K4, 0.5)
    assert calls == [0.5]


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
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == len(BOUND_IDS)
    assert rows[0]["graph_id"] == "C~"


def test_cli_sweep_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.g6"
    corpus.write_text("# nothing here\n")
    assert cli.main(["sweep", "--input", str(corpus)]) == 1
    assert "no graphs" in capsys.readouterr().err


def test_cli_fuzz_usage_errors(capsys):
    assert cli.main(["fuzz", "--trials", "0"]) == 1
    assert cli.main(["fuzz", "--n-min", "2", "--n-max", "5", "--trials", "1"]) == 1
    capsys.readouterr()


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


def test_cli_hunt_requires_one_source(capsys):
    assert cli.main(["hunt-equality", "--bound", "lb_maxdeg"]) == 1
    assert cli.main(["hunt-equality", "--bound", "bogus", "--family", "star"]) == 1
    capsys.readouterr()


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
