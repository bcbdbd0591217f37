import dataclasses
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from alphaenergy import bounds as B
from alphaenergy.bounds import BOUND_IDS, certify, evaluate_all
from alphaenergy.graphcore import Graph, complete, cycle, path, petersen, star
from alphaenergy.harness import DEFAULT_ALPHA_GRID, fmt12, load_corpus, run_sweep
from alphaenergy.spectra import alpha_spectrum

SQRT3 = math.sqrt(3.0)


def ev(bound_id, g, alpha, equality_tol=B.EQUALITY_RTOL):
    return evaluate_all(g, alpha, equality_tol)[BOUND_IDS.index(bound_id)]


DISCONNECTED = Graph(4, [(0, 1), (2, 3)])


# -- certificates -----------------------------------------------------------


def test_certify_complete():
    cert = certify(complete(4), alpha_spectrum(complete(4), 0.5))
    assert cert.is_complete and cert.is_regular and not cert.is_star
    assert cert.distinct_alpha_eigenvalue_count == 2
    assert cert.adjacency_inertia == (1, 0, 3)


def test_certify_petersen():
    cert = certify(petersen(), alpha_spectrum(petersen(), 0.0))
    assert cert.is_regular and not cert.is_complete
    assert cert.distinct_alpha_eigenvalue_count == 3
    # Adjacency spectrum {3, 1^5, (-2)^4}: six positive, four negative.
    assert cert.adjacency_inertia == (6, 0, 4)


def test_certify_star():
    cert = certify(star(3), alpha_spectrum(star(3), 0.0))
    assert cert.is_star and not cert.is_regular
    assert cert.adjacency_inertia == (1, 2, 1)


def test_certify_reads_inertia_from_graph_record():
    sp = alpha_spectrum(petersen(), 0.5)
    marked = dataclasses.replace(
        sp, graph=dataclasses.replace(sp.graph, adjacency_inertia=(7, 2, 1))
    )
    assert certify(petersen(), sp).adjacency_inertia == (6, 0, 4)
    assert certify(petersen(), marked).adjacency_inertia == (7, 2, 1)


def test_certificate_invariants(er_corpus_small):
    for g in er_corpus_small[:20]:
        cert = certify(g, alpha_spectrum(g, 0.3))
        if cert.is_complete:
            assert cert.is_regular
        assert sum(cert.adjacency_inertia) == g.n


# -- upper bounds -----------------------------------------------------------


def test_ub_mcclelland():
    got = ev("ub_mcclelland", complete(4), 0.5)
    assert got.value == pytest.approx(math.sqrt(12), abs=1e-12)
    assert got.holds and not got.equality
    got = ev("ub_mcclelland", complete(3), 0.0)
    assert got.value == pytest.approx(math.sqrt(18), abs=1e-12)
    assert got.energy == pytest.approx(4.0, abs=1e-10)
    na = ev("ub_mcclelland", DISCONNECTED, 0.3)
    assert not na.applicable and na.reason == "requires connected"


def test_ub_koolen_alpha():
    got = ev("ub_koolen_alpha", complete(4), 0.5)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev("ub_koolen_alpha", complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-12)
    assert got.equality
    got = ev("ub_koolen_alpha", star(3), 0.0)
    assert got.value == pytest.approx(1.5 + math.sqrt(3 * (6 - 2.25)), abs=1e-12)
    assert got.holds and not got.equality
    # C_6 at alpha = 0.6: Zg = 24 is neither above 8m^2/n - 2m = 36 nor
    # below 4m^2/n = 24, so the side condition rejects it.
    na = ev("ub_koolen_alpha", cycle(6), 0.6)
    assert not na.applicable and "side condition" in na.reason
    assert ev("ub_koolen_alpha", cycle(6), 0.5).applicable


def test_ub_koolen_energy():
    got = ev("ub_koolen_energy", complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev("ub_koolen_energy", cycle(5), 0.0)
    assert got.value == pytest.approx(2 + math.sqrt(24), abs=1e-12)
    assert got.energy == pytest.approx(oracles.energy(cycle(5), 0.0), abs=1e-10)
    assert got.holds and not got.equality
    assert not ev("ub_koolen_energy", complete(4), 0.5).applicable


def test_ub_koolen_signless():
    got = ev("ub_koolen_signless", complete(4), 0.5)
    assert got.energy == pytest.approx(6.0, abs=1e-10)  # QE = 2 * energy
    assert got.value == pytest.approx(6.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev("ub_koolen_signless", cycle(4), 0.5)
    assert got.energy == pytest.approx(4.0, abs=1e-10)
    assert got.value == pytest.approx(2 + math.sqrt(12), abs=1e-12)
    assert got.holds and not got.equality
    assert not ev("ub_koolen_signless", complete(4), 0.0).applicable


def test_ub_eta():
    got = ev("ub_eta", complete(4), 0.5)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev("ub_eta", star(3), 0.5)
    assert got.value == pytest.approx(4.5, abs=1e-12)
    assert got.energy == pytest.approx(2.5, abs=1e-10)
    assert got.holds and not got.equality
    assert not ev("ub_eta", complete(4), 0.0).applicable


def test_ub_log_zagreb():
    got = ev("ub_log_zagreb", complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-10)
    assert got.equality and got.equality_claim_matched
    got = ev("ub_log_zagreb", complete(4), 0.25)
    # Direct arithmetic: theta = 2.25, Gamma = 2.25 * 0.75^3.
    gamma = 2.25 * 0.75**3
    expect = (
        2.25 + 6.75 - 0.1875 * 19 + math.log(2.25 / gamma) + 4.5 - 6.0
    )
    assert got.value == pytest.approx(expect, abs=1e-10)
    assert got.energy == pytest.approx(4.5, abs=1e-10)
    assert got.holds and got.gap > 0
    na = ev("ub_log_zagreb", cycle(4), 0.5)
    assert not na.applicable and na.reason == "singular shift"


def test_ub_log_degree():
    got = ev("ub_log_degree", complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-10)
    assert got.equality
    got = ev("ub_log_degree", complete(3), 0.0)
    assert got.value == pytest.approx(4.0, abs=1e-10)
    assert got.equality and got.equality_claim_matched
    na = ev("ub_log_degree", complete(4), 0.7)  # 0.7 > 1 - 4/12
    assert not na.applicable and "1 - n/(2m)" in na.reason


# -- lower bounds -----------------------------------------------------------


def test_lb_frobenius_asstated():
    got = ev("lb_frobenius_asstated", complete(4), 0.0)
    assert got.value == pytest.approx(math.sqrt(24), abs=1e-12)
    assert got.holds
    got = ev("lb_frobenius_asstated", complete(4), 0.5)
    assert got.value == pytest.approx(math.sqrt(15), abs=1e-12)
    assert got.holds is False
    assert got.value - got.energy >= 0.87
    # At alpha = 0 the printed form reduces to sqrt(4m), tight on stars.
    got = ev("lb_frobenius_asstated", star(3), 0.0)
    assert got.value == pytest.approx(2 * SQRT3, abs=1e-12)
    assert got.holds and got.equality


def test_lb_frobenius_repaired():
    got = ev("lb_frobenius_repaired", complete(4), 0.5)
    assert got.value == pytest.approx(math.sqrt(6), abs=1e-12)
    assert got.holds
    got = ev("lb_frobenius_repaired", complete(4), 0.0)
    assert got.value == pytest.approx(math.sqrt(24), abs=1e-12)
    for alpha in (0.0, 0.3, 0.7):
        got = ev("lb_frobenius_repaired", petersen(), alpha)
        assert got.value == pytest.approx(
            math.sqrt(2 * (1 - alpha) ** 2 * 2 * 15), abs=1e-12
        )


def test_lb_average_degree():
    got = ev("lb_average_degree", complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev("lb_average_degree", complete(4), 0.5)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.equality
    got = ev("lb_average_degree", star(3), 0.0)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.holds and not got.equality and not got.equality_claim_matched


def test_lb_average_degree_c4_attains_outside_stated_class():
    # C_4 is regular with adjacency spectrum {2, 0, 0, -2}: the bound is tight
    # even though the stated class requires n-1 negative eigenvalues.
    got = ev("lb_average_degree", cycle(4), 0.0)
    assert got.equality
    assert got.equality_claim_matched is False


def test_lb_zagreb():
    got = ev("lb_zagreb", complete(4), 0.5)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev("lb_zagreb", star(3), 0.0)
    assert got.value == pytest.approx(2 * SQRT3, abs=1e-12)
    assert got.equality
    assert got.equality_claim_matched is False  # tight on a non-regular graph
    got = ev("lb_zagreb", path(3), 0.0)
    assert got.value == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert got.equality


def test_lb_maxdeg():
    got = ev("lb_maxdeg", star(3), 0.0)
    assert got.value == pytest.approx(2 * SQRT3, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev("lb_maxdeg", star(3), 0.5)
    assert got.value == pytest.approx(2.5, abs=1e-12)
    assert got.equality
    got = ev("lb_maxdeg", complete(4), 0.0)
    assert got.value == pytest.approx(2 * SQRT3, abs=1e-12)
    assert got.holds and not got.equality


def test_lb_log():
    got = ev("lb_log", complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-10)
    assert got.equality and got.equality_claim_matched
    got = ev("lb_log", complete(3), 0.0)
    assert got.value == pytest.approx(4.0, abs=1e-10)
    assert got.equality
    na = ev("lb_log", cycle(4), 0.5)
    assert not na.applicable and na.reason == "singular shift"


def test_lb_log_holds_at_positive_alpha():
    # The centering term matters here: without -2am/n the value would be
    # 3.9206 > 3 on this input.
    got = ev("lb_log", complete(4), 0.5)
    assert got.applicable
    assert got.value == pytest.approx(3 + 3 + math.log(0.1875 / 1.5) - 1.5, abs=1e-10)
    assert got.holds


# -- spectral-radius bounds ---------------------------------------------------


def test_rho_lb_star():
    got = ev("rho_lb_star", star(3), 0.5)
    assert got.value == pytest.approx(2.0, abs=1e-12)
    assert got.energy == pytest.approx(2.0, abs=1e-10)
    assert got.equality and got.equality_claim_matched
    got = ev("rho_lb_star", star(3), 0.0)
    assert got.value == pytest.approx(SQRT3, abs=1e-12)
    assert got.equality
    got = ev("rho_lb_star", complete(4), 0.0)
    assert got.value == pytest.approx(SQRT3, abs=1e-12)
    assert got.energy == pytest.approx(3.0, abs=1e-10)
    assert got.holds and not got.equality


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.95, 1.0])
def test_k1_k2_no_applicable_bound_violated(alpha):
    star_index = BOUND_IDS.index("rho_lb_star")
    for g in (Graph(1), complete(2)):
        evals = evaluate_all(g, alpha)
        for e in evals:
            assert not e.applicable or e.holds, (g.n, alpha, e.bound_id)
        if alpha == 1.0:
            assert evals[star_index].reason == "requires alpha in [0, 1)"
    k1_star = evaluate_all(Graph(1), alpha)[star_index]
    assert not k1_star.applicable
    if alpha < 1.0:
        assert k1_star.reason == "requires n >= 2"
        # K2 is the star K_{1,1}: rho_1 = 1 meets the bound exactly.
        k2_star = evaluate_all(complete(2), alpha)[star_index]
        assert k2_star.value == pytest.approx(1.0, abs=1e-12)
        assert k2_star.energy == pytest.approx(1.0, abs=1e-12)
        assert k2_star.equality and k2_star.equality_claim_matched


def test_rho_lb_chain():
    for alpha in (0.0, 0.5, 1.0):
        got = ev("rho_lb_chain", complete(4), alpha)
        assert got.value == pytest.approx(3.0, abs=1e-12)
        assert got.energy == pytest.approx(3.0, abs=1e-10)
        assert got.equality and got.equality_claim_matched
    got = ev("rho_lb_chain", star(3), 0.0)
    assert got.value == pytest.approx(SQRT3, abs=1e-12)
    assert got.equality
    assert got.equality_claim_matched is False  # tight without regularity
    got = ev("rho_lb_chain", path(3), 0.0)
    assert got.equality and got.equality_claim_matched is False


# -- aggregate behavior --------------------------------------------------------


def test_evaluate_all_order_and_count():
    evals = evaluate_all(complete(4), 0.5)
    assert tuple(e.bound_id for e in evals) == BOUND_IDS
    equalities = {e.bound_id for e in evals if e.applicable and e.equality}
    assert {"ub_koolen_alpha", "ub_eta", "lb_average_degree", "lb_zagreb"} <= equalities


def test_evaluate_all_star_half():
    evals = {e.bound_id: e for e in evaluate_all(star(3), 0.5)}
    assert evals["lb_maxdeg"].equality
    assert evals["rho_lb_star"].equality
    assert not evals["ub_eta"].equality
    assert not evals["ub_koolen_energy"].applicable


def test_evaluate_all_disconnected():
    for e in evaluate_all(DISCONNECTED, 0.3):
        assert not e.applicable
        assert e.reason == "requires connected"


def test_koolen_variants_coincide(er_corpus_small):
    for g in er_corpus_small[:15]:
        at0 = {e.bound_id: e for e in evaluate_all(g, 0.0)}
        assert at0["ub_koolen_alpha"].value == pytest.approx(
            at0["ub_koolen_energy"].value, abs=1e-9
        )
        at_half = {e.bound_id: e for e in evaluate_all(g, 0.5)}
        assert 2 * at_half["ub_koolen_alpha"].value == pytest.approx(
            at_half["ub_koolen_signless"].value, abs=1e-9
        )


def test_soundness_and_equality_classes(er_corpus_small):
    graphs = list(er_corpus_small) + [star(k) for k in range(2, 7)]
    for g in graphs:
        adj_eigs = oracles.alpha_eigs(g, 0.0)
        one_positive = int(np.sum(adj_eigs > 1e-9)) == 1
        regular = g.degree_sequence[0] == g.degree_sequence[-1]
        for alpha in DEFAULT_ALPHA_GRID:
            for e in evaluate_all(g, alpha):
                if not e.applicable:
                    continue
                if e.bound_id != "lb_frobenius_asstated":
                    assert e.holds, (e.bound_id, g.degree_sequence, alpha)
                if not e.equality:
                    assert not (e.equality and not e.holds)
                if e.bound_id == "ub_eta" and e.equality:
                    assert g.m == g.n * (g.n - 1) // 2
                if e.bound_id == "ub_eta" and g.m != g.n * (g.n - 1) // 2:
                    assert e.gap > 1e-6
                if e.bound_id == "lb_maxdeg" and e.equality:
                    assert g.m == g.n - 1 and g.degree_sequence[0] == g.n - 1
                if e.bound_id == "lb_average_degree" and e.equality:
                    assert regular and one_positive


def test_stars_attain_maxdeg_for_every_alpha():
    for leaves in range(2, 9):
        for alpha in DEFAULT_ALPHA_GRID:
            e = ev("lb_maxdeg", star(leaves), alpha)
            assert e.applicable and e.equality


def test_equality_tolerance_is_configurable():
    tight = ev("ub_mcclelland", complete(4), 0.5, equality_tol=1e-7)
    loose = ev("ub_mcclelland", complete(4), 0.5, equality_tol=0.2)
    assert not tight.equality
    assert loose.equality


def test_equality_implies_holds(er_corpus_small):
    for g in er_corpus_small[:15]:
        for alpha in (0.0, 0.5, 0.9):
            for e in evaluate_all(g, alpha):
                if e.applicable and e.equality:
                    assert e.holds


# -- frozen atlas7 verdicts -----------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"
ATLAS = Path(__file__).resolve().parents[1] / "perfbench" / "corpora" / "atlas7.g6"
ATLAS_ALPHAS = DEFAULT_ALPHA_GRID + (1.0,)

# Not-applicable verdicts per (bound, reason) on the same sweep. The atlas is
# all connected graphs, so "requires connected" never shows; alpha = 1 is what
# reaches each "alpha < 1" or "alpha in [0, 1)" reason.
ATLAS_NOT_APPLICABLE = {
    ("ub_koolen_alpha", "requires alpha < 1"): 994,
    ("ub_koolen_alpha", "requires n >= 3"): 24,
    ("ub_koolen_alpha", "zagreb side condition fails for alpha > 1/2"): 4935,
    ("ub_koolen_energy", "requires alpha = 0"): 10956,
    ("ub_koolen_energy", "requires n >= 3"): 2,
    ("ub_koolen_signless", "requires alpha = 1/2"): 10956,
    ("ub_koolen_signless", "requires n >= 3"): 2,
    ("ub_eta", "requires alpha in [1/2, 1)"): 5964,
    ("ub_eta", "requires n >= 3"): 24,
    ("ub_log_zagreb", "requires alpha <= 1 - n/(2m)"): 4759,
    ("ub_log_zagreb", "requires n >= 3"): 24,
    ("ub_log_zagreb", "singular shift"): 888,
    ("ub_log_degree", "requires alpha <= 1 - n/(2m)"): 4759,
    ("ub_log_degree", "requires n >= 3"): 24,
    ("ub_log_degree", "singular shift"): 888,
    ("lb_frobenius_asstated", "requires alpha in [0, 1)"): 994,
    ("lb_frobenius_asstated", "requires n >= 3"): 24,
    ("lb_frobenius_repaired", "requires alpha in [0, 1)"): 994,
    ("lb_frobenius_repaired", "requires n >= 3"): 24,
    ("lb_average_degree", "requires alpha in [0, 1)"): 994,
    ("lb_average_degree", "requires n >= 3"): 24,
    ("lb_zagreb", "requires alpha in [0, 1)"): 994,
    ("lb_zagreb", "requires n >= 3"): 24,
    ("lb_maxdeg", "requires alpha in [0, 1)"): 994,
    ("lb_maxdeg", "requires n >= 3"): 24,
    ("lb_log", "requires alpha <= 1 - n/(2m)"): 4759,
    ("lb_log", "requires n >= 3"): 24,
    ("lb_log", "singular shift"): 888,
    ("rho_lb_star", "requires alpha in [0, 1)"): 996,
    ("rho_lb_star", "requires n >= 2"): 11,
}


@pytest.fixture(scope="module")
def atlas_reports():
    corpus, skipped = load_corpus(str(ATLAS))
    assert len(corpus) == 996 and not skipped
    return run_sweep(corpus, list(ATLAS_ALPHAS))


def test_atlas7_equality_hits_frozen(atlas_reports):
    # On this corpus equality gaps are at most 1.3e-14 relative and every
    # other gap is at least 3.8e-5, so the table does not depend on the
    # LAPACK build.
    claim_text = {None: "null", True: "true", False: "false"}
    got = [
        f"{rep.graph_id} {fmt12(rep.alpha)} {e.bound_id} {claim_text[e.equality_claim_matched]}"
        for rep in atlas_reports
        for e in rep.evaluations
        if e.applicable and e.equality
    ]
    frozen = [
        line for line in (DATA / "atlas7_equality.txt").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert got == frozen
    assert "Cl 0 lb_average_degree false" in frozen  # C4, outside the stated class


def test_atlas7_not_applicable_counts_frozen(atlas_reports):
    got = Counter(
        (e.bound_id, e.reason)
        for rep in atlas_reports
        for e in rep.evaluations
        if not e.applicable
    )
    assert got == ATLAS_NOT_APPLICABLE
