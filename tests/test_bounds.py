import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from alphaenergy import bounds as B
from alphaenergy import cli
from alphaenergy.bounds import BOUND_IDS, certify
from alphaenergy.graphcore import (
    Graph, complete, cycle, erdos_renyi, parse_graph6, path, petersen, random_regular,
    serialize_graph6, star,
)
from alphaenergy.spectra import spectrum_tables
from alphaenergy.harness import DEFAULT_ALPHA_GRID, fmt12, load_corpus, run_sweep
from one_alpha import alpha_spectrum, evaluate_all, evaluation_bits, row_table, row_view

SQRT3 = math.sqrt(3.0)


def ev(bound_id, g, alpha, equality_tol=B.EQUALITY_RTOL):
    return evaluate_all(g, alpha, equality_tol)[BOUND_IDS.index(bound_id)]


DISCONNECTED = Graph(4, [(0, 1), (2, 3)])


# -- certificates -----------------------------------------------------------


def _certify(g, alpha):
    """The certificate of `g` at one alpha, from its one-row table."""
    return certify(g, alpha_spectrum(g, alpha).rho[0])


def test_certify_complete():
    cert = _certify(complete(4), 0.5)
    assert cert.is_complete and cert.is_regular and not cert.is_star
    assert cert.distinct_alpha_eigenvalue_count == 2
    assert cert.adjacency_inertia == (1, 0, 3)


def test_certify_petersen():
    cert = _certify(petersen(), 0.0)
    assert cert.is_regular and not cert.is_complete
    assert cert.distinct_alpha_eigenvalue_count == 3
    # Adjacency spectrum {3, 1^5, (-2)^4}: six positive, four negative.
    assert cert.adjacency_inertia == (6, 0, 4)


def test_certify_star():
    cert = _certify(star(3), 0.0)
    assert cert.is_star and not cert.is_regular
    assert cert.adjacency_inertia == (1, 2, 1)


def test_certify_reads_inertia_from_graph_record():
    # certify reads the inertia the Graph cached; it solves nothing itself.
    g = petersen()
    rho = alpha_spectrum(g, 0.5).rho[0]
    assert certify(g, rho).adjacency_inertia == (6, 0, 4)
    g.__dict__["adjacency_inertia"] = (7, 2, 1)  # mark the cached field
    assert certify(g, rho).adjacency_inertia == (7, 2, 1)
    assert _certify(g, 0.9).adjacency_inertia == (7, 2, 1)
    assert _certify(petersen(), 0.5).adjacency_inertia == (6, 0, 4)


def test_certificate_invariants(er_corpus_small):
    for g in er_corpus_small[:20]:
        cert = _certify(g, 0.3)
        if cert.is_complete:
            assert cert.is_regular
        assert sum(cert.adjacency_inertia) == g.n


def test_certificate_chains_its_clusters():
    # Each consecutive gap is within DISTINCT_EIG_TOL, the whole run is not:
    # the run is still one cluster, as a chained merge counts it.
    step = 0.6 * B.DISTINCT_EIG_TOL
    g = complete(3)

    def count(rho):
        return certify(g, np.array(rho)).distinct_alpha_eigenvalue_count

    assert count([2.0, 2.0 - step, 2.0 - 2 * step]) == 1
    assert count([2.0, 2.0 - step, 2.0 - 2 * step, -1.0]) == 2
    assert count([2.0, 2.0 - 2 * step, 2.0 - 4 * step]) == 3
    assert count([5.0]) == 1


# -- stated classes ---------------------------------------------------------


def paley(q: int) -> Graph:
    """Paley graph of a prime q = 1 mod 4: i ~ j when j - i is a nonzero
    square mod q."""
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares])


def rook(a: int) -> Graph:
    """K_a x K_a (Cartesian product): the a-by-a rook's graph."""
    cells = range(a * a)
    return Graph(a * a, [(u, v) for u in cells for v in cells
                         if u < v and (u // a == v // a or u % a == v % a)])


def clebsch_complement() -> Graph:
    """Complement of the Clebsch graph (the folded 5-cube, 4-bit words at
    Hamming distance 1 or 4): words at distance 2 or 3."""
    return Graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                      if bin(u ^ v).count("1") in (2, 3)])


NAMED = {
    "petersen": petersen(), "paley5": paley(5), "paley13": paley(13), "paley17": paley(17),
    "k3xk3": rook(3), "k4xk4": rook(4), "clebsch-complement": clebsch_complement(),
    **{f"k{n}": complete(n) for n in range(3, 9)},
}
K33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
CLAIM_ALPHAS = DEFAULT_ALPHA_GRID + (1.0, 1.0 - 1e-6, 1.0 - 1e-8)


def _atlas_sample():
    corpus, _ = load_corpus(str(ATLAS))
    picks = np.random.default_rng(2101).choice(len(corpus), 120, replace=False)
    return [corpus[i] for i in sorted(picks.tolist())]


def _regular_sample():
    rng = np.random.default_rng(2102)
    graphs = []
    while len(graphs) < 40:
        n, k = int(rng.integers(5, 17)), int(rng.integers(2, 6))
        if k < n and n * k % 2 == 0:
            graphs.append(random_regular(n, k, int(rng.integers(0, 2**32))))
    return [(serialize_graph6(g).decode(), g) for g in graphs]


@pytest.mark.parametrize("corpus", [
    _atlas_sample, _regular_sample, lambda: list(NAMED.items()) + [("k33", K33)],
], ids=["atlas-120", "regular-40", "named"])
def test_claims_match_the_spectral_oracle(corpus):
    # Every row's claims, order included, equal each class read from the
    # graph's spectra: at the default grid, at alpha = 1 and just below it.
    v = run_sweep(corpus(), list(CLAIM_ALPHAS))
    got = [v.claims(r) for r in range(len(v.spectra))]
    assert got == oracles.claims_reference(v)
    assert any(True in row for row in got) and any(False in row for row in got)


@pytest.mark.parametrize("name,mu", [
    ("k3", 1), ("k6", 4), ("k33", None), ("petersen", None), ("paley13", None),
    ("k4xk4", 2), ("clebsch-complement", 6),
])
def test_common_neighbours_decide_the_koolen_class(name, mu):
    g = K33 if name == "k33" else NAMED[name]
    assert g.is_regular and g.common_neighbours == mu
    koolen = mu is not None
    assert ev("ub_koolen_alpha", g, 0.3).equality_claim_matched is koolen
    assert ev("ub_koolen_energy", g, 0.0).equality_claim_matched is koolen
    assert ev("ub_koolen_signless", g, 0.5).equality_claim_matched is koolen


@pytest.mark.parametrize("name", ["k4xk4", "clebsch-complement"])
def test_lambda_equals_mu_graphs_meet_the_koolen_bound(name):
    # Spectrum k, (+-2)^...: (1 - alpha) * 2 = 1 at alpha = 1/2, where the
    # alpha-eigenvalues are k, alpha k + 1 and alpha k - 1.
    g = NAMED[name]
    for alpha in (0.0, 0.3, 0.5):
        got = ev("ub_koolen_alpha", g, alpha)
        assert got.equality and got.equality_claim_matched, alpha
    logs = [ev(bid, g, 0.5) for bid in ("ub_log_zagreb", "ub_log_degree", "lb_log")]
    assert all(e.applicable and e.equality_claim_matched for e in logs)
    assert ev("lb_log", g, 0.3).equality_claim_matched is False


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
    # K_n is in the class while (1 - alpha) * 1 lies within DISTINCT_EIG_TOL
    # of 1.
    assert ev("lb_log", complete(4), 0.5 * B.DISTINCT_EIG_TOL).equality_claim_matched
    assert ev("lb_log", complete(4), 2.0 * B.DISTINCT_EIG_TOL).equality_claim_matched is False


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


def test_bound_rows_are_immutable():
    # The guard and target tables and the report templates are compiled from
    # BOUNDS at import; a row reassigned afterwards would disagree with them.
    with pytest.raises(AttributeError):
        B.BOUNDS[0].guards = ()
    assert B.BOUNDS[0].guards


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
def atlas_verdicts():
    corpus, skipped = load_corpus(str(ATLAS))
    assert len(corpus) == 996 and not skipped
    return run_sweep(corpus, list(ATLAS_ALPHAS))


def test_atlas7_equality_hits_frozen(atlas_verdicts):
    # On this corpus equality gaps are at most 1.3e-14 relative and every
    # other gap is at least 3.8e-5, so the table does not depend on the
    # LAPACK build.
    v = atlas_verdicts
    claim_text = {None: "null", True: "true", False: "false"}
    hit = (v.reason == 0) & v.equality
    got = []
    for r in np.flatnonzero(hit.any(axis=0)).tolist():
        alpha, claims = v.spectra.alphas[r % len(v.spectra.alphas)], v.claims(r)
        got += [f"{v.graph_ids[r // len(v.spectra.alphas)]} {fmt12(alpha)} {BOUND_IDS[i]} {claim_text[claims[i]]}"
                for i in np.flatnonzero(hit[:, r]).tolist()]
    frozen = [
        line for line in (DATA / "atlas7_equality.txt").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert got == frozen
    assert "Cl 0 lb_average_degree false" in frozen  # C4, outside the stated class


def test_atlas7_not_applicable_counts_frozen(atlas_verdicts):
    got = Counter(
        (b.id, b.guards[code - 1][0])
        for b, codes in zip(B.BOUNDS, atlas_verdicts.reason.tolist())
        for code in codes
        if code
    )
    assert got == ATLAS_NOT_APPLICABLE


# -- the columnar pass ------------------------------------------------------


_GRAPHS = st.builds(erdos_renyi, st.integers(1, 62), st.floats(0.0, 1.0), st.integers(0, 2**32))
_ALPHAS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@given(st.lists(_GRAPHS, min_size=1, max_size=3), st.lists(_ALPHAS, min_size=1, max_size=4))
@example([Graph(1), complete(2), Graph(2), Graph(5), DISCONNECTED], [0.0, 0.5, 1.0])
@example([complete(5), cycle(6), star(4), petersen(), path(3)], [0.0, 0.25, 0.5, 0.75, 1.0])
@settings(max_examples=40, deadline=None)
def test_columnar_verdicts_bit_identical_to_one_row(graphs, alphas):
    # One pass over every (graph, alpha) row of a sweep gives each row the
    # verdicts, claims included, of evaluating that row alone.
    v = run_sweep([(str(i), g) for i, g in enumerate(graphs)], alphas)
    assert len(v.spectra) == len(graphs) * len(alphas)
    t, k = v.spectra, len(alphas)
    for r in range(len(t)):
        alone = evaluate_all(t.graphs[r // k], t.alphas[r % k])
        assert evaluation_bits(row_view(v, r)) == evaluation_bits(alone)


def test_squares_keep_the_bits_of_python_floats():
    # Python squares a float through C pow, numpy's ** 2 is x * x, and the
    # two differ in the last bit for some x. Pick alphas where that reaches
    # the bound and 2S; both keep the bits of the scalar formulas.
    g, n, m, zagreb = petersen(), 10, 15, 90

    def asstated(alpha, sq):
        return math.sqrt(2.0 * max(
            sq(alpha) * zagreb + sq(1.0 - alpha) * 2.0 * m - 2.0 * sq(alpha * m) / n, 0.0))

    def two_s(alpha, sq):
        return sq(1.0 - alpha) * 2.0 * m + (3.0 * alpha - 2.0 * alpha * m / n) ** 2 * n

    pow2, mul2 = (lambda x: x ** 2), (lambda x: x * x)
    alphas = [
        a for a in np.random.default_rng(5).uniform(0.0, 1.0, 20000).tolist()
        if asstated(a, pow2) != asstated(a, mul2) or two_s(a, pow2) != two_s(a, mul2)
    ][:8]
    assert len(alphas) == 8
    for alpha in alphas:
        sp = alpha_spectrum(g, alpha)
        dev = alpha * g.degrees().astype(np.float64) - sp.shift[0]
        assert float(sp.two_s[0]).hex() == ((1.0 - alpha) ** 2 * 2.0 * m + float(np.sum(dev ** 2))).hex()
        assert ev("lb_frobenius_asstated", g, alpha).value.hex() == asstated(alpha, pow2).hex()


def _assert_closed_form_bits(v):
    # Every applicable value and target equals the scalar closed form of
    # oracles.bound_closed_forms on the row's Python floats, bit for bit. The
    # oracle reads the graph's integers, the row's alpha and the table's
    # scalar arrays, not the `Terms` the bound table is given.
    t, k = v.spectra, len(v.spectra.alphas)
    rows = zip(*(col.tolist() for col in (t.shift, t.energy, t.eta, t.two_s, t.log_gamma,
                                          t.theta, t.rho_1)))
    applicable = (v.reason == 0).T.tolist()
    values, targets = v.value.T.tolist(), v.target.T.tolist()
    for r, scalars, ok, value, target in zip(range(len(t)), rows, applicable, values, targets):
        g, alpha = t.graphs[r // k], t.alphas[r % k]
        forms = oracles.bound_closed_forms(float(g.n), float(g.m), float(g.zagreb),
                                           float(g.degree_sequence[0]), alpha, *scalars)
        for i in np.flatnonzero(ok).tolist():
            want = forms[BOUND_IDS[i]]()
            assert (value[i].hex(), target[i].hex()) == (want[0].hex(), want[1].hex()), (
                v.graph_ids[r // k], alpha, BOUND_IDS[i])


def test_values_and_targets_keep_the_scalar_bits_on_the_atlas(atlas_verdicts):
    assert (atlas_verdicts.reason == 0).sum() > 100000
    _assert_closed_form_bits(atlas_verdicts)


@given(st.lists(_GRAPHS, min_size=1, max_size=4), st.lists(_ALPHAS, min_size=1, max_size=5))
# Alphas where squaring through pow and as x * x give Petersen different
# bits: in alpha^2 Zg + (1-alpha)^2 2m through (1 - alpha)^2 (the first two)
# and in alpha^2 (the next two), and in (alpha m)^2 (the last).
@example([petersen(), complete(6), star(4)],
         [0.21950047788373403, 0.4759282635226673, 0.34167518411834064, 0.24483522451472206,
          0.34701816716933565])
@settings(max_examples=60, deadline=None)
def test_values_and_targets_keep_the_scalar_bits_on_random_graphs(graphs, alphas):
    _assert_closed_form_bits(run_sweep([(str(i), g) for i, g in enumerate(graphs)], alphas))


# -- the one-row pass ---------------------------------------------------------

def _assert_row_pass_is_its_table_row(g, alpha, other, equality_tol=B.EQUALITY_RTOL):
    # `g` at (alpha, other) is a two-row table, which the column pass
    # evaluates; its first row alone is a one-row table with the same bits,
    # which the one-row pass evaluates on Python scalars: no field of its
    # `Terms` is an array, and each has the bits of row 0 of the table's.
    table, = spectrum_tables(([g], [alpha, other]))
    whole = B.evaluate_many(["g"], table, equality_tol)
    alone = row_table(table, 0)
    one = B.evaluate_many(["g"], alone, equality_tol)
    floats, columns = B._terms(alone, True), B._terms(table, False)
    for name, x, col in zip(B.Terms._fields, floats, columns, strict=True):
        assert type(x) is type(col[0].item()), name
        assert np.array(x, col.dtype).tobytes() == col[:1].tobytes(), (name, x, col[0])
    for name in ("reason", "value", "target", "gap", "holds", "equality"):
        got, want = getattr(one, name), getattr(whole, name)[:, :1]
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), (
            name, got.ravel(), want.ravel())
    assert one.claims(0) == whole.claims(0)
    return whole


@given(_GRAPHS, _ALPHAS, _ALPHAS, st.booleans())
@example(Graph(1), 0.0, 0.5, False)
@example(DISCONNECTED, 0.5, 0.0, False)
@example(petersen(), 1.0, 0.5, False)
@example(complete(4), 1.0 - 1e-8, 0.5, False)
# K2 at alpha = 0 meets McClelland's bound with a gap of exactly 0, which is
# the boundary of holds and of equality once both tolerances are 0; at the
# default tolerances no gap reaches either boundary.
@example(complete(2), 0.0, 0.5, True)
# An alpha where squaring through pow and as x * x give Petersen different
# bits of alpha^2 Zg + (1-alpha)^2 2m.
@example(petersen(), 0.21950047788373403, 0.5, False)
@settings(max_examples=100, deadline=None)
def test_row_pass_bit_identical_to_its_row_in_a_table(g, alpha, other, zero_tolerances):
    # Any graph the parsers accept (n = 1..62, edgeless and disconnected
    # ones included) at any alpha in [0, 1]; no warning, since warnings are
    # errors here, and no applicable verdict that is not a finite number.
    with pytest.MonkeyPatch.context() as mp:
        if zero_tolerances:
            mp.setattr(B, "HOLDS_RTOL", 0.0)
        v = _assert_row_pass_is_its_table_row(g, alpha, other, 0.0 if zero_tolerances
                                              else B.EQUALITY_RTOL)
    assert all(np.isfinite(x[v.reason == 0]).all() for x in (v.value, v.target, v.gap))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("g", [Graph(1), complete(2), Graph(2), Graph(3), DISCONNECTED, petersen()],
                         ids=["K1", "K2", "2K1", "3K1", "2K2", "petersen"])
def test_row_pass_edge_cases(g, alpha):
    # No warning (warnings are errors here) and no exception. On K1 and the
    # edgeless graphs m = 0, so the log guard's n/(2m) would divide by zero
    # if a bound did not stop at its first failing guard.
    _assert_row_pass_is_its_table_row(g, alpha, 0.25)


# -- the float helpers ----------------------------------------------------------

# Floats at the edges of each helper: signed zeros, subnormals, the smallest
# normal, NaNs (a negative one and a signalling payload), infinities, and
# magnitudes around 1.34e154, past which Python's ** raises OverflowError,
# and two floats whose square through pow is not x * x.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, -math.nan,
                np.uint64(0x7FF0000000000001).view(np.float64).item(), math.inf, -math.inf,
                1.3e154, 1.35e154, -1.35e154, 1e300, -1e308, 1.7976931348623157e308, -2.5,
                0.37796883434360806, 0.8885923720325766]


def _float_bits(x) -> str:
    return np.float64(x).tobytes().hex()


def _assert_float_helpers_match_numpy(x):
    # On a Python float, each helper gives the bits numpy gives on a column
    # (long enough for its vector loops), and raises nothing where numpy
    # gives inf or NaN: past 1.34e154 a square goes to numpy, and so does a
    # negative square root or a NaN. errstate as in evaluate_many, since
    # warnings are errors here.
    column = np.full(37, x)
    with np.errstate(all="ignore"):
        for helper, numpy_form in ((B._sq, lambda c: np.float_power(c, 2)),
                                   (B._sqrt, np.sqrt),
                                   (B._max0, lambda c: np.maximum(c, 0.0))):
            want = numpy_form(column)
            assert _float_bits(helper(x)) == _float_bits(want[0]), (helper.__name__, x)
            assert helper(column).tobytes() == want.tobytes()


@given(st.one_of(st.floats(), st.floats(1e150, 1e160), st.floats(-1e160, -1e150)))
@settings(max_examples=300)
def test_float_helpers_match_numpy_bit_for_bit(x):
    _assert_float_helpers_match_numpy(x)


@pytest.mark.parametrize("x", _EDGE_FLOATS)
def test_float_helpers_match_numpy_at_the_edges(x):
    _assert_float_helpers_match_numpy(x)


# -- the log determinant --------------------------------------------------------

# The three log bounds' rows of a verdict table, at its first (graph, alpha).
_LOG_BOUNDS = ([BOUND_IDS.index(bid) for bid in ("ub_log_zagreb", "ub_log_degree", "lb_log")], 0)


def test_log_bounds_where_the_shifted_determinant_overflows():
    # A dense n = 400 graph at alpha = 0: Gamma = |prod s_i| is about 1e313,
    # past the float64 range, while log Gamma is a plain number. The log
    # bounds apply and give finite values, with no overflow warning, and
    # log Gamma lies past the log of the largest float64.
    v = _assert_row_pass_is_its_table_row(erdos_renyi(400, 0.5, 7, connected=True), 0.0, 0.5)
    assert v.reason[_LOG_BOUNDS].tolist() == [0, 0, 0] and v.holds[_LOG_BOUNDS].all()
    assert np.isfinite(v.value[_LOG_BOUNDS]).all() and np.isfinite(v.gap[_LOG_BOUNDS]).all()
    assert v.spectra.log_gamma[0] > math.log(np.finfo(np.float64).max)


# A connected 3-regular graph on 62 vertices (graph6). At alpha = 1/2 every
# |s_i| is at least 0.025, yet Gamma = |prod s_i| is 8.1e-16: a test of Gamma
# against a floor would call the shift singular.
_TINY_GAMMA = (
    "}?_O??A_??C@?_???????_????????????????G_?????????G????GG????O?@?C??O_???@"
    "????_?GG???O?P???C?@???`????C?????A?@??@??O??C???O?A?A??????A?@@????@`?@??C"
    "????????_????GG?????O??CO???GO?O??G?_??????@????_???@????????C??G??C?O???G"
    "?_???_????_???AO????@????C?AC_???????G??C???A???_?@??O??A??C??A?G?A?????@?A"
    "?????GO???O?????GG??"
)


def test_log_bounds_where_the_shifted_determinant_is_tiny(capsys):
    g = parse_graph6(_TINY_GAMMA)
    assert (g.n, g.m, g.connected, g.is_regular) == (62, 93, True, True)
    v = _assert_row_pass_is_its_table_row(g, 0.5, 0.9)
    assert cli.main(["spectrum", _TINY_GAMMA, "--alpha", "0.5"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert min(map(abs, row["centered"])) > 0.02 and 0.0 < row["gamma_det"] < 1e-15
    assert v.reason[_LOG_BOUNDS].tolist() == [0, 0, 0] and v.holds[_LOG_BOUNDS].all()
    assert (v.gap[_LOG_BOUNDS] > 10.0).all()
