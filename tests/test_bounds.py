import math

import numpy as np
import pytest

import oracles
from alphaenergy import bounds as B
from alphaenergy.bounds import BOUND_IDS, certify, evaluate_all
from alphaenergy.graphcore import Graph, complete, cycle, path, petersen, star
from alphaenergy.harness import DEFAULT_ALPHA_GRID
from alphaenergy.spectra import alpha_spectrum

SQRT3 = math.sqrt(3.0)


def ev(op, g, alpha, **kw):
    sp = alpha_spectrum(g, alpha)
    return op(g, sp, **kw)


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


def test_certificate_invariants(er_corpus_small):
    for g in er_corpus_small[:20]:
        cert = certify(g, alpha_spectrum(g, 0.3))
        if cert.is_complete:
            assert cert.is_regular
        assert sum(cert.adjacency_inertia) == g.n


# -- upper bounds -----------------------------------------------------------


def test_ub_mcclelland():
    got = ev(B.ub_mcclelland, complete(4), 0.5)
    assert got.value == pytest.approx(math.sqrt(12), abs=1e-12)
    assert got.holds and not got.equality
    got = ev(B.ub_mcclelland, complete(3), 0.0)
    assert got.value == pytest.approx(math.sqrt(18), abs=1e-12)
    assert got.energy == pytest.approx(4.0, abs=1e-10)
    na = ev(B.ub_mcclelland, DISCONNECTED, 0.3)
    assert not na.applicable and na.reason == "requires connected"


def test_ub_koolen_alpha():
    got = ev(B.ub_koolen_alpha, complete(4), 0.5)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev(B.ub_koolen_alpha, complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-12)
    assert got.equality
    got = ev(B.ub_koolen_alpha, star(3), 0.0)
    assert got.value == pytest.approx(1.5 + math.sqrt(3 * (6 - 2.25)), abs=1e-12)
    assert got.holds and not got.equality
    # C_6 at alpha = 0.6: Zg = 24 is neither above 8m^2/n - 2m = 36 nor
    # below 4m^2/n = 24, so the side condition rejects it.
    na = ev(B.ub_koolen_alpha, cycle(6), 0.6)
    assert not na.applicable and "side condition" in na.reason
    assert ev(B.ub_koolen_alpha, cycle(6), 0.5).applicable


def test_ub_koolen_energy():
    got = ev(B.ub_koolen_energy, complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev(B.ub_koolen_energy, cycle(5), 0.0)
    assert got.value == pytest.approx(2 + math.sqrt(24), abs=1e-12)
    assert got.energy == pytest.approx(oracles.energy(cycle(5), 0.0), abs=1e-10)
    assert got.holds and not got.equality
    assert not ev(B.ub_koolen_energy, complete(4), 0.5).applicable


def test_ub_koolen_signless():
    got = ev(B.ub_koolen_signless, complete(4), 0.5)
    assert got.energy == pytest.approx(6.0, abs=1e-10)  # QE = 2 * energy
    assert got.value == pytest.approx(6.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev(B.ub_koolen_signless, cycle(4), 0.5)
    assert got.energy == pytest.approx(4.0, abs=1e-10)
    assert got.value == pytest.approx(2 + math.sqrt(12), abs=1e-12)
    assert got.holds and not got.equality
    assert not ev(B.ub_koolen_signless, complete(4), 0.0).applicable


def test_ub_eta():
    got = ev(B.ub_eta, complete(4), 0.5)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev(B.ub_eta, star(3), 0.5)
    assert got.value == pytest.approx(4.5, abs=1e-12)
    assert got.energy == pytest.approx(2.5, abs=1e-10)
    assert got.holds and not got.equality
    assert not ev(B.ub_eta, complete(4), 0.0).applicable


def test_ub_log_zagreb():
    got = ev(B.ub_log_zagreb, complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-10)
    assert got.equality and got.equality_claim_matched
    got = ev(B.ub_log_zagreb, complete(4), 0.25)
    # Direct arithmetic: theta = 2.25, Gamma = 2.25 * 0.75^3.
    gamma = 2.25 * 0.75**3
    expect = (
        2.25 + 6.75 - 0.1875 * 19 + math.log(2.25 / gamma) + 4.5 - 6.0
    )
    assert got.value == pytest.approx(expect, abs=1e-10)
    assert got.energy == pytest.approx(4.5, abs=1e-10)
    assert got.holds and got.gap > 0
    na = ev(B.ub_log_zagreb, cycle(4), 0.5)
    assert not na.applicable and na.reason == "singular shift"


def test_ub_log_degree():
    got = ev(B.ub_log_degree, complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-10)
    assert got.equality
    got = ev(B.ub_log_degree, complete(3), 0.0)
    assert got.value == pytest.approx(4.0, abs=1e-10)
    assert got.equality and got.equality_claim_matched
    na = ev(B.ub_log_degree, complete(4), 0.7)  # 0.7 > 1 - 4/12
    assert not na.applicable and "1 - n/(2m)" in na.reason


# -- lower bounds -----------------------------------------------------------


def test_lb_frobenius_asstated():
    got = ev(B.lb_frobenius_asstated, complete(4), 0.0)
    assert got.value == pytest.approx(math.sqrt(24), abs=1e-12)
    assert got.holds
    got = ev(B.lb_frobenius_asstated, complete(4), 0.5)
    assert got.value == pytest.approx(math.sqrt(15), abs=1e-12)
    assert got.holds is False
    assert got.value - got.energy >= 0.87
    # At alpha = 0 the printed form reduces to sqrt(4m), tight on stars.
    got = ev(B.lb_frobenius_asstated, star(3), 0.0)
    assert got.value == pytest.approx(2 * SQRT3, abs=1e-12)
    assert got.holds and got.equality


def test_lb_frobenius_repaired():
    got = ev(B.lb_frobenius_repaired, complete(4), 0.5)
    assert got.value == pytest.approx(math.sqrt(6), abs=1e-12)
    assert got.holds
    got = ev(B.lb_frobenius_repaired, complete(4), 0.0)
    assert got.value == pytest.approx(math.sqrt(24), abs=1e-12)
    for alpha in (0.0, 0.3, 0.7):
        got = ev(B.lb_frobenius_repaired, petersen(), alpha)
        assert got.value == pytest.approx(
            math.sqrt(2 * (1 - alpha) ** 2 * 2 * 15), abs=1e-12
        )


def test_lb_average_degree():
    got = ev(B.lb_average_degree, complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev(B.lb_average_degree, complete(4), 0.5)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.equality
    got = ev(B.lb_average_degree, star(3), 0.0)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.holds and not got.equality and not got.equality_claim_matched


def test_lb_average_degree_c4_attains_outside_stated_class():
    # C_4 is regular with adjacency spectrum {2, 0, 0, -2}: the bound is tight
    # even though the stated class requires n-1 negative eigenvalues.
    got = ev(B.lb_average_degree, cycle(4), 0.0)
    assert got.equality
    assert got.equality_claim_matched is False


def test_lb_zagreb():
    got = ev(B.lb_zagreb, complete(4), 0.5)
    assert got.value == pytest.approx(3.0, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev(B.lb_zagreb, star(3), 0.0)
    assert got.value == pytest.approx(2 * SQRT3, abs=1e-12)
    assert got.equality
    assert got.equality_claim_matched is False  # tight on a non-regular graph
    got = ev(B.lb_zagreb, path(3), 0.0)
    assert got.value == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert got.equality


def test_lb_maxdeg():
    got = ev(B.lb_maxdeg, star(3), 0.0)
    assert got.value == pytest.approx(2 * SQRT3, abs=1e-12)
    assert got.equality and got.equality_claim_matched
    got = ev(B.lb_maxdeg, star(3), 0.5)
    assert got.value == pytest.approx(2.5, abs=1e-12)
    assert got.equality
    got = ev(B.lb_maxdeg, complete(4), 0.0)
    assert got.value == pytest.approx(2 * SQRT3, abs=1e-12)
    assert got.holds and not got.equality


def test_lb_log():
    got = ev(B.lb_log, complete(4), 0.0)
    assert got.value == pytest.approx(6.0, abs=1e-10)
    assert got.equality and got.equality_claim_matched
    got = ev(B.lb_log, complete(3), 0.0)
    assert got.value == pytest.approx(4.0, abs=1e-10)
    assert got.equality
    na = ev(B.lb_log, cycle(4), 0.5)
    assert not na.applicable and na.reason == "singular shift"


def test_lb_log_holds_at_positive_alpha():
    # The centering term matters here: without -2am/n the value would be
    # 3.9206 > 3 on this input.
    got = ev(B.lb_log, complete(4), 0.5)
    assert got.applicable
    assert got.value == pytest.approx(3 + 3 + math.log(0.1875 / 1.5) - 1.5, abs=1e-10)
    assert got.holds


# -- spectral-radius bounds ---------------------------------------------------


def test_rho_lb_star():
    got = ev(B.rho_lb_star, star(3), 0.5)
    assert got.value == pytest.approx(2.0, abs=1e-12)
    assert got.energy == pytest.approx(2.0, abs=1e-10)
    assert got.equality and got.equality_claim_matched
    got = ev(B.rho_lb_star, star(3), 0.0)
    assert got.value == pytest.approx(SQRT3, abs=1e-12)
    assert got.equality
    got = ev(B.rho_lb_star, complete(4), 0.0)
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
        got = ev(B.rho_lb_chain, complete(4), alpha)
        assert got.value == pytest.approx(3.0, abs=1e-12)
        assert got.energy == pytest.approx(3.0, abs=1e-10)
        assert got.equality and got.equality_claim_matched
    got = ev(B.rho_lb_chain, star(3), 0.0)
    assert got.value == pytest.approx(SQRT3, abs=1e-12)
    assert got.equality
    assert got.equality_claim_matched is False  # tight without regularity
    got = ev(B.rho_lb_chain, path(3), 0.0)
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
            e = ev(B.lb_maxdeg, star(leaves), alpha)
            assert e.applicable and e.equality


def test_equality_tolerance_is_configurable():
    tight = ev(B.ub_mcclelland, complete(4), 0.5, equality_tol=1e-7)
    loose = ev(B.ub_mcclelland, complete(4), 0.5, equality_tol=0.2)
    assert not tight.equality
    assert loose.equality


def test_equality_implies_holds(er_corpus_small):
    for g in er_corpus_small[:15]:
        for alpha in (0.0, 0.5, 0.9):
            for e in evaluate_all(g, alpha):
                if e.applicable and e.equality:
                    assert e.holds
