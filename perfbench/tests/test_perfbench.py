"""Tests of the benchmark's own parts: span arithmetic, the report checker,
the corpus checks and the tracing wrappers."""

import shutil

import numpy as np
import pytest

import inputs
import oracle
import run
import tracing
from alphaenergy import cli, graphcore, harness


def _span_tree():
    # a [0, 10] has children b [1, 4] and d [5, 9]; b has child c [2, 3].
    return [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 9.0, 0]]


def test_self_times_subtract_direct_children_only():
    assert tracing.self_times(_span_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_times_scale_by_the_calibrations_around_them():
    cal = [0.1, 0.3, 0.2]
    assert run.to_reference([2.0, 1.0], cal) == pytest.approx(
        [2.0 * run.CAL_REF_S / 0.2, 1.0 * run.CAL_REF_S / 0.25])


def test_summarize_and_merge_on_synthetic_spans():
    tracer = tracing.Tracer()
    tracer.spans[:] = [
        ["harness.analyze", 0.0, 1.0, -1],
        ["spectra.alpha_matrix", 0.1, 0.3, 0],
        ["graphcore.adjacency_matrix", 0.1, 0.2, 1],
        ["graphcore.adjacency_matrix", 0.4, 0.5, 0],
    ]
    tracer.solves[:] = [(3, 2), (2, None)]
    summ = tracing.summarize(tracer)
    assert summ["calls"] == {"harness.analyze": 1, "spectra.alpha_matrix": 1,
                             "graphcore.adjacency_matrix": 2}
    assert summ["self_s"]["harness.analyze"] == pytest.approx(0.7)
    assert summ["matrix_builds"] == 2  # the nested adjacency build is not counted
    assert summ["solve_n3"] == 35.0
    assert (summ["solve_iterations"], summ["solves_with_iterations"]) == (2, 1)
    both = tracing.merge([summ, summ])
    assert both["calls"]["graphcore.adjacency_matrix"] == 4
    assert both["analyze_ms"] == pytest.approx([1000.0, 1000.0])


def _package_state():
    modules = tracing.package_modules()
    state = {(name, key): value for name, mod in modules.items()
             for key, value in vars(mod).items() if callable(value)}
    state[("graphcore", "Graph.degrees")] = vars(graphcore.Graph)["degrees"]
    return state


def test_wrappers_trace_calls_and_restore_every_name():
    before = _package_state()
    tracer = tracing.Tracer()
    patched = tracing.install(tracer, tracing.package_modules())
    try:
        assert harness.analyze is not before[("harness", "analyze")]
        assert vars(graphcore.Graph)["degrees"] is not before[("graphcore", "Graph.degrees")]
        harness.analyze("Bw", graphcore.parse_graph6("Bw"), 0.5)
    finally:
        tracing.restore(patched)
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {span[0] for span in tracer.spans}
    assert {"harness.analyze", "bounds.certify", "densela.eigendecompose",
            "graphcore.parse_graph6", "graphcore.Graph.degrees"} <= names
    assert all(span[2] is not None for span in tracer.spans)


def test_absent_targets_are_skipped():
    class Empty:
        pass

    assert tracing.install(tracing.Tracer(), {"harness": Empty(), "graphcore": Empty()}) == []


def test_traced_fuzz_reproduces_the_per_report_counts(tmp_path):
    tracer = tracing.Tracer()
    patched = tracing.install(tracer, tracing.package_modules())
    try:
        code = cli.main(["fuzz", "--n-min", "4", "--n-max", "4", "--trials", "4",
                         "--seed", "3", "--out", str(tmp_path / "r.json")])
    finally:
        tracing.restore(patched)
    assert code in run.OK_EXITS
    reports = 4 * len(inputs.ALPHA_GRID)
    metrics = tracing.layer_metrics(tracing.summarize(tracer), reports, 1, 0, 1.0)
    assert metrics["bounds.certify_calls_per_report"][0] == 15
    # 11 report spectra plus 2 x 6 monotonicity spectra (alpha >= 1/2) per graph
    assert metrics["spectra.alpha_spectrum_calls_per_report"][0] == pytest.approx(23 / 11)


def _sweep(tmp_path, records, fmt):
    corpus = tmp_path / "c.g6"
    corpus.write_text("".join(r + "\n" for r in records))
    out = tmp_path / f"r.{fmt}"
    code = cli.main(["sweep", "--input", str(corpus), "--format", fmt, "--out", str(out)])
    assert code in run.OK_EXITS
    text = out.read_text()
    expected = [(r, a) for r in records for a in inputs.ALPHA_GRID]
    return text, expected


def _check(reports, expected):
    result = oracle.CheckResult()
    oracle.check(reports, expected, inputs.ALPHA_GRID, oracle.Oracle(), result)
    return result


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_checker_passes_program_output_and_flags_a_perturbed_eigenvalue(tmp_path, fmt):
    text, expected = _sweep(tmp_path, ["@", "A_", "Bw", "C~"], fmt)
    parse = oracle.parse_csv if fmt == "csv" else oracle.parse_json
    clean = _check(parse(text), expected)
    assert (clean.expected, clean.failed) == (len(expected), 0), clean.problems
    assert len(clean.fingerprint) == oracle.BOUNDS_PER_REPORT

    reports = parse(text)
    reports[38]["spectrum"][1] += 1e-6  # K4 at alpha 0.5
    bad = _check(reports, expected)
    assert bad.failed == 1 and "eigenvalue off" in bad.problems[0]

    reports = parse(text)
    del reports[7]["energy"]
    malformed = _check(reports, expected)
    assert malformed.failed == 1 and "malformed" in malformed.problems[0]


def test_checker_flags_a_dropped_row(tmp_path):
    text, expected = _sweep(tmp_path, ["Bw", "C~"], "json")
    lines = text.splitlines()
    dropped = "\n".join(lines[:3] + lines[4:]) + "\n"
    result = _check(oracle.parse_json(dropped), expected)
    assert result.failed >= 1
    assert any("reports, expected" in p for p in result.problems)


def test_checker_flags_a_graph_change_inside_a_fuzz_block(tmp_path):
    text, expected = _sweep(tmp_path, ["Bw", "C~"], "json")
    fuzz_expected = [(None, a) for _, a in expected]
    assert _check(oracle.parse_json(text), fuzz_expected).failed == 0
    reports = oracle.parse_json(text)
    reports[3]["graph_id"] = "C~"
    assert _check(reports, fuzz_expected).failed == 1


def test_checker_accepts_twelve_digit_rounding():
    adj = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    alpha = 0.3
    mat = alpha * np.diag(adj.sum(axis=1)) + (1 - alpha) * adj
    exact = np.linalg.eigvalsh(mat)[::-1]
    shift = 2 * alpha * 2 / 3
    rep = {"graph_id": "Bo", "n": 3, "m": 2, "zagreb": 6, "alpha": alpha,
           "spectrum": [float(f"{x:.12g}") for x in exact],
           "energy": float(f"{np.sum(np.abs(exact - shift)):.12g}"),
           "bounds": [{"id": str(i), "applicable": True, "holds": True, "equality": False}
                      for i in range(oracle.BOUNDS_PER_REPORT)]}
    assert oracle.Oracle().problem(rep) is None


def test_exit_status_two_is_a_finding_and_other_exits_fail(tmp_path):
    text, expected = _sweep(tmp_path, ["@"], "json")  # K1 violates rho_lb_star
    batch = inputs.Batch(("sweep",), tmp_path / "r.json", "json", tuple(expected),
                         inputs.ALPHA_GRID)
    ok = oracle.CheckResult()
    run.check_batch(batch, {"exit": 2}, oracle.Oracle(), ok)
    assert (ok.expected, ok.failed) == (len(expected), 0)
    bad = oracle.CheckResult()
    run.check_batch(batch, {"exit": 1}, oracle.Oracle(), bad)
    assert bad.failed == len(expected)


def test_atlas_corpus_matches_networkx_and_its_checks():
    records = inputs.load_atlas()
    assert len(records) == sum(inputs.ATLAS_COUNTS) == 996
    assert records == inputs.atlas_records()


def test_atlas_checksum_mismatch_is_refused(tmp_path):
    copy = tmp_path / "atlas7.g6"
    shutil.copy(inputs.ATLAS_PATH, copy)
    with copy.open("a") as fh:
        fh.write("Bw\n")
    with pytest.raises(inputs.CorpusError, match="sha256"):
        inputs.load_atlas(copy)
    with pytest.raises(inputs.CorpusError, match="per-n counts"):
        inputs.load_atlas(copy, inputs.sha256(copy))


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    assert inputs.large_record(7, 2) == inputs.large_record(7, 2)
    assert inputs.large_record(7, 2) != inputs.large_record(8, 2)
    assert [ord(inputs.large_record(7, b)[0]) - 63 for b in range(3)] == list(inputs.LARGE_ORDERS)
    a = inputs.fuzz_batch(7, 2, tmp_path)
    assert a.argv == inputs.fuzz_batch(7, 2, tmp_path).argv
    assert a.argv != inputs.fuzz_batch(8, 2, tmp_path).argv
