"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is either a frozen literal checked against
an independent oracle (LAPACK, cofactor expansion, characteristic-polynomial
roots) or recomputed by that oracle inside the test.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from alphaenergy import densela, graphcore
from alphaenergy.bounds import BOUND_IDS
from alphaenergy.graphcore import complete, cycle, parse_graph6, petersen, serialize_graph6, star
from alphaenergy.harness import DEFAULT_ALPHA_GRID, violations
from one_alpha import alpha_spectrum, evaluate_all

SQRT3 = math.sqrt(3.0)


def _ok(num: int, text: str) -> None:
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_spectrum_identities(er_corpus):
    start = time.perf_counter()
    assert len(er_corpus) == 200
    assert len(DEFAULT_ALPHA_GRID) == 11
    for g in er_corpus:
        assert 4 <= g.n <= 12 and graphcore.is_connected(g)
        for alpha in DEFAULT_ALPHA_GRID:
            sp = alpha_spectrum(g, alpha)
            assert abs(float(sp.rho.sum()) - 2 * alpha * g.m) <= 1e-8
            sq = float(np.sum(sp.rho**2))
            expect = alpha**2 * sp.zagreb + (1 - alpha) ** 2 * 2 * g.m
            assert abs(sq - expect) <= 1e-8 * (1 + sq)
            s2 = float(np.sum(sp.s**2))
            assert abs(s2 - sp.two_s) <= 1e-8 * (1 + sp.two_s)
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"identity suite took {elapsed:.1f}s"
    _ok(1, f"2200 spectra satisfy the trace identities ({elapsed:.1f}s)")


def test_criterion_2_energy_reductions(er_corpus):
    for g in er_corpus:
        plain = alpha_spectrum(g, 0.0).energy
        assert abs(plain - oracles.energy(g, 0.0)) <= 1e-9
        half = alpha_spectrum(g, 0.5).energy
        assert abs(2 * half - oracles.signless_energy(g)) <= 1e-9
    _ok(2, "alpha=0 and alpha=1/2 energies match the independent reductions")


def test_criterion_3_regular_graph_energy():
    rng = np.random.default_rng(1234)
    graphs = [complete(n) for n in range(3, 11)]
    graphs += [cycle(n) for n in range(3, 13)]
    graphs.append(petersen())
    for _ in range(5):
        n = int(rng.integers(6, 13))
        k = int(rng.integers(2, 5))
        if (n * k) % 2 != 0:
            k += 1
        graphs.append(graphcore.random_regular(n, k, int(rng.integers(0, 2**63))))
    for g in graphs:
        base = oracles.energy(g, 0.0)
        for alpha in DEFAULT_ALPHA_GRID:
            got = alpha_spectrum(g, alpha).energy
            assert abs(got - (1 - alpha) * base) <= 1e-9, (g.degree_sequence, alpha)
    _ok(3, f"{len(graphs)} regular graphs scale their energy by (1 - alpha)")


def _gap(bound_id, g, alpha, expected_value):
    got = evaluate_all(g, alpha)[BOUND_IDS.index(bound_id)]
    assert got.applicable
    assert abs(got.value - expected_value) <= 1e-9
    assert abs(got.gap) <= 1e-9
    return got


def test_criterion_4_equality_fixtures():
    k4, k13 = complete(4), star(3)
    assert abs(alpha_spectrum(k4, 0.5).energy - 3.0) <= 1e-9
    _gap("ub_koolen_alpha", k4, 0.5, 3.0)
    _gap("ub_eta", k4, 0.5, 3.0)
    _gap("lb_average_degree", k4, 0.5, 3.0)
    _gap("lb_zagreb", k4, 0.5, 3.0)
    _gap("ub_koolen_energy", k4, 0.0, 6.0)
    _gap("ub_log_zagreb", k4, 0.0, 6.0)
    _gap("ub_log_degree", k4, 0.0, 6.0)
    _gap("lb_log", k4, 0.0, 6.0)
    _gap("lb_maxdeg", k13, 0.0, 2 * SQRT3)
    _gap("lb_maxdeg", k13, 0.5, 2.5)
    _gap("rho_lb_star", k13, 0.5, 2.0)
    # Cross-check the fixture numbers against the LAPACK oracle.
    assert abs(oracles.energy(k4, 0.5) - 3.0) <= 1e-12
    assert abs(oracles.energy(k13, 0.0) - 2 * SQRT3) <= 1e-12
    assert abs(oracles.energy(k13, 0.5) - 2.5) <= 1e-12
    assert abs(oracles.alpha_eigs(k13, 0.5)[0] - 2.0) <= 1e-12
    _ok(4, "all eleven equality fixtures are tight within 1e-9")


def test_criterion_5_fuzz_soundness(tmp_path):
    out = tmp_path / "fuzz.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "alphaenergy", "fuzz",
            "--n-min", "4", "--n-max", "10", "--trials", "200",
            "--seed", "42", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=580,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert "violation\t" not in proc.stderr  # no counted violation
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 200 * len(DEFAULT_ALPHA_GRID)
    asstated_violations = 0
    for row in rows:
        for bound in row["bounds"]:
            if not bound["applicable"] or bound["holds"]:
                continue
            assert bound["id"] == "lb_frobenius_asstated", (row["graph_id"], bound)
            asstated_violations += 1
    assert asstated_violations > 0
    _ok(5, f"seed-42 fuzz is clean (exit 0; {asstated_violations} expected "
           "as-stated violations only)")


def test_criterion_6_counterexample_regression():
    evals = evaluate_all(complete(4), 0.5)
    stated = evals[BOUND_IDS.index("lb_frobenius_asstated")]
    assert abs(stated.value - math.sqrt(15)) <= 1e-9
    assert stated.holds is False
    repaired = evals[BOUND_IDS.index("lb_frobenius_repaired")]
    assert abs(repaired.value - math.sqrt(6)) <= 1e-9
    assert repaired.holds is True
    _ok(6, "as-stated Frobenius bound fails on (K_4, 1/2); repaired form holds")


def test_criterion_7_edge_deletion_monotonicity():
    rng = np.random.default_rng(777)
    for _ in range(100):
        g = graphcore.erdos_renyi(
            int(rng.integers(4, 13)), float(rng.uniform(0.3, 0.7)),
            int(rng.integers(0, 2**63)), connected=True,
        )
        edge = sorted(g.edges)[int(rng.integers(0, g.m))]
        smaller = graphcore.delete_edge(g, *edge)
        for alpha in (0.5, 0.7, 0.9):
            before = alpha_spectrum(g, alpha).rho
            after = alpha_spectrum(smaller, alpha).rho
            assert np.all(after <= before + 1e-9)
    _ok(7, "deleting an edge never raises any eigenvalue (100 graphs, 3 alphas)")


def test_criterion_8_graph6_codec():
    assert serialize_graph6(complete(4)) == b"C~"
    assert parse_graph6(b"C~").edges == complete(4).edges
    assert serialize_graph6(graphcore.path(3)) == b"Bg"
    assert parse_graph6(b"Bg").edges == graphcore.path(3).edges
    rng = np.random.default_rng(4040)
    for _ in range(1000):
        n = int(rng.integers(1, 63))
        g = graphcore.erdos_renyi(n, float(rng.uniform(0, 1)), int(rng.integers(0, 2**63)))
        text = serialize_graph6(g)
        assert serialize_graph6(parse_graph6(text)) == text
    _ok(8, "graph6 round-trip identity on 1000 seeded records plus fixed vectors")


def test_criterion_9_eigensolver_oracle():
    rng = np.random.default_rng(909)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        a = rng.normal(size=(n, n)) * float(rng.uniform(0.5, 5.0))
        m = (a + a.T) / 2
        w = densela.eigendecompose(m)
        fro = np.linalg.norm(m)
        for lam in w:
            assert oracles.eigenvalue_residual(m, lam) <= 1e-10 * (1 + fro)
        # Residuals cannot see multiplicities; the sorted spectra can.
        assert np.max(np.abs(w - oracles.jacobi_eigvals(m))) <= 1e-10 * (1 + fro)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        m = (a + a.T) / 2
        got = densela.eigendecompose(m)
        assert oracles.spectra_agree(got, oracles.charpoly_eigs(m), m, 1e-9)
    _ok(9, "residuals within 1e-10, spectra match the Jacobi oracle and "
           "characteristic-polynomial roots")
