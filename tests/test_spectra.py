import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from alphaenergy import bounds, cli, densela, graphcore, harness, spectra
from alphaenergy.graphcore import (
    INERTIA_TOL, Graph, complete, cycle, delete_edge, parse_graph6, petersen, serialize_graph6,
    star,
)
from alphaenergy.harness import DEFAULT_ALPHA_GRID
from alphaenergy.spectra import AlphaOutOfRangeError, spectrum_tables
from one_alpha import alpha_spectrum, row_table, solved_stacks

SQRT3 = math.sqrt(3.0)
ATLAS = Path(__file__).resolve().parents[1] / "perfbench" / "corpora" / "atlas7.g6"


def alpha_matrices(g, alphas):
    """The one stack of alpha*D + (1-alpha)*A, one slice per alpha, that the
    package solves for `g` at `alphas`."""
    stack, = solved_stacks(g, alphas)
    return stack


def alpha_matrix(g, alpha):
    """The package's alpha*D + (1-alpha)*A at one alpha, as solved."""
    return alpha_matrices(g, [alpha])[0]


def test_alpha_matrix_endpoints():
    k2 = complete(2)
    assert alpha_matrix(k2, 0.0).tolist() == [[0, 1], [1, 0]]
    assert np.allclose(alpha_matrix(k2, 1.0), np.eye(2))
    assert alpha_matrices(k2, [0.0, 1.0]).shape == (2, 2, 2)


def test_alpha_matrix_k4_half():
    a = alpha_matrix(complete(4), 0.5)
    assert np.allclose(np.diag(a), 1.5)
    off = a[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.5)
    eigs = densela.eigendecompose(alpha_matrices(complete(4), [0.5]))[0]
    assert np.allclose(eigs, [3.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_alpha_matrix_signless_identity():
    g = petersen()
    q = 2.0 * alpha_matrix(g, 0.5)
    d_plus_a = np.diag(g.degrees()) + g.adjacency
    assert np.array_equal(q, d_plus_a)


@st.composite
def _parsed_graphs(draw, n_max=62):
    """Any edge set on 1..n_max vertices, read through the graph6 parser."""
    n = draw(st.integers(1, n_max))
    nbits = n * (n - 1) // 2
    bits = draw(st.integers(0, 2**nbits - 1))
    if draw(st.booleans()):
        bits ^= 2**nbits - 1  # the complement: dense graphs as often as sparse
    nbytes = (nbits + 5) // 6
    padded = bits << (6 * nbytes - nbits)
    body = bytes(63 + (padded >> 6 * (nbytes - 1 - i) & 63) for i in range(nbytes))
    return parse_graph6(bytes([63 + n]) + body)


@given(_parsed_graphs(), st.lists(st.floats(0.0, 1.0), max_size=4))
@example(Graph(1), [])
@example(Graph(5), [])
@example(Graph(4, [(0, 1), (2, 3)]), [0.25])
@example(complete(62), [0.999])
@settings(max_examples=60, deadline=None)
def test_alpha_matrices_finite_and_exactly_symmetric(g, extra):
    # What the solver takes on trust: every stack is finite and exactly
    # symmetric, so solving it raw gives the bits of symmetrising it first.
    alphas = [0.0, 0.5, 1.0, *extra]
    m = alpha_matrices(g, alphas)
    assert m.shape == (len(alphas), g.n, g.n) and m.dtype == np.float64
    assert m.flags.writeable and not np.may_share_memory(m, g.adjacency)
    assert np.all(np.isfinite(m))
    assert np.array_equal(m, m.swapaxes(-2, -1))
    symmetrised = np.linalg.eigvalsh((m + m.swapaxes(-2, -1)) / 2)[..., ::-1]
    assert densela.eigendecompose(m).tobytes() == symmetrised.tobytes()


def test_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRangeError):
        alpha_matrices(complete(3), [-0.1])
    with pytest.raises(AlphaOutOfRangeError, match=r"alpha must lie in \[0, 1\], got 1.5"):
        spectrum_tables(([complete(3)], [0.5, 1.5]))
    with pytest.raises(AlphaOutOfRangeError):
        spectrum_tables(([complete(3)], [float("nan")]))
    # An int alpha is stored as a Python float, and -0.0 as 0.0.
    table, = spectrum_tables(([complete(3)], [0, 1]))
    assert [type(alpha) for alpha in table.alphas] == [float, float]
    for alphas in ([-0.0], [-0.0, 0.5]):
        table, = spectrum_tables(([star(3)], alphas))
        assert math.copysign(1.0, table.alphas[0]) == math.copysign(1.0, table.shift[0]) == 1.0
        assert table.rho[0].tobytes() == alpha_spectrum(star(3), 0.0).rho[0].tobytes()


def _spectrum_lines(capsys, *argv) -> list[dict]:
    """The rows `spectrum` writes for `argv`, one dict per line."""
    assert cli.main(["spectrum", *argv]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_k4_half_spectrum_fixture(capsys):
    sp = alpha_spectrum(complete(4), 0.5)
    assert np.allclose(sp.rho[0], [3.0, 1.0, 1.0, 1.0], atol=1e-12)
    assert sp.shift[0] == pytest.approx(1.5)
    assert sp.energy[0] == pytest.approx(3.0, abs=1e-12)
    assert sp.eta[0] == 1
    assert sp.two_s[0] == pytest.approx(3.0, abs=1e-12)
    assert sp.theta[0] == pytest.approx(1.5, abs=1e-12)
    # Gamma = |det(A_alpha - shift*I)| against cofactor expansion, at alpha = 1/2
    # and at alpha = 0 where it is |det A(K4)| = 3: `spectrum` writes Gamma,
    # the table's column is its log.
    table, = spectrum_tables(([complete(4)], [0.5, 0.0]))
    rows = _spectrum_lines(capsys, "C~", "--alpha", "0.5,0")
    assert rows[0]["gamma_det"] == 0.1875 and rows[0]["zagreb"] == 36 and rows[0]["connected"]
    for row, log_gamma, gamma in zip(rows, table.log_gamma.tolist(), (0.1875, 3.0)):
        shifted = oracles.alpha_matrix(complete(4), row["alpha"]) - row["shift"] * np.eye(4)
        assert row["gamma_det"] == pytest.approx(gamma, abs=1e-10)
        assert row["gamma_det"] == pytest.approx(abs(oracles.det_cofactor(shifted)), abs=1e-10)
        assert log_gamma == pytest.approx(math.log(gamma), abs=1e-10)


def test_regular_alpha_one_energy_zero():
    for g in (complete(5), cycle(6), petersen()):
        assert alpha_spectrum(g, 1.0).energy[0] == pytest.approx(0.0, abs=1e-12)


def test_star_alpha_zero_spectrum():
    sp = alpha_spectrum(star(3), 0.0)
    assert np.allclose(sp.rho[0], [SQRT3, 0.0, 0.0, -SQRT3], atol=1e-10)
    assert sp.energy[0] == pytest.approx(2 * SQRT3, abs=1e-10)


def test_star_alpha_half_spectrum():
    # Closed form for stars: alpha repeated n-2 times plus the quadratic pair.
    sp = alpha_spectrum(star(3), 0.5)
    assert np.allclose(sp.rho[0], [2.0, 0.5, 0.5, 0.0], atol=1e-10)
    assert sp.eta[0] == 1
    assert sp.energy[0] == pytest.approx(2.5, abs=1e-10)


def test_zagreb_values():
    for g, zagreb in ((complete(4), 36), (star(3), 12), (Graph(3), 0)):
        assert g.zagreb == zagreb
        assert bounds._terms(alpha_spectrum(g, 0.5), False).zagreb.tolist() == [zagreb]


def test_two_s_values(capsys):
    # 2S against the sum of the squared centered eigenvalues `spectrum` writes.
    rows = (_spectrum_lines(capsys, "C~", "--alpha", "0.5")
            + _spectrum_lines(capsys, "Cs", "--alpha", "0,0.5"))
    assert [row["n"] for row in rows] == [4, 4, 4] and rows[1]["zagreb"] == 12
    for row, expect in zip(rows, (3.0, 6.0, 2.25)):
        assert row["two_s"] == pytest.approx(expect, abs=1e-12)
        assert math.fsum(x * x for x in row["centered"]) == pytest.approx(expect, abs=1e-10)


def _partial_sum_energy(g, alpha):
    sp = alpha_spectrum(g, alpha)
    return oracles.energy_via_partial_sums(sp.rho[0], sp.shift[0])


def test_partial_sum_energy_fixtures():
    assert _partial_sum_energy(complete(4), 0.5) == pytest.approx(3.0, abs=1e-10)
    assert _partial_sum_energy(complete(4), 0.0) == pytest.approx(6.0, abs=1e-10)
    assert _partial_sum_energy(cycle(6), 1.0) == pytest.approx(0.0, abs=1e-10)


def test_spectrum_invariants_on_corpus(er_corpus_small):
    for g in er_corpus_small[:40]:
        for alpha in (0.0, 0.3, 0.5, 0.8, 1.0):
            sp = alpha_spectrum(g, alpha)
            rho, energy, two_s = sp.rho[0], float(sp.energy[0]), float(sp.two_s[0])
            s = rho - sp.shift[0]
            target = 2 * alpha * g.m
            assert abs(float(rho.sum()) - target) <= 1e-9 * (1 + target)
            sq = float(np.sum(rho**2))
            expect_sq = alpha**2 * g.zagreb + (1 - alpha) ** 2 * 2 * g.m
            assert abs(sq - expect_sq) <= 1e-9 * (1 + sq)
            assert abs(float(s.sum())) <= 1e-9 * g.n
            s2 = float(np.sum(s**2))
            assert abs(s2 - two_s) <= 1e-9 * (1 + two_s)
            assert energy == float(np.abs(s).sum())
            assert 1 <= sp.eta[0] <= g.n
            assert oracles.energy_via_partial_sums(rho, sp.shift[0]) == pytest.approx(
                energy, abs=1e-9 * (1 + energy)
            )


def test_alpha_zero_matches_plain_energy(er_corpus_small):
    for g in er_corpus_small[:30]:
        sp = alpha_spectrum(g, 0.0)
        assert sp.energy[0] == pytest.approx(oracles.energy(g, 0.0), abs=1e-9)


def test_alpha_half_matches_signless_energy(er_corpus_small):
    for g in er_corpus_small[:30]:
        sp = alpha_spectrum(g, 0.5)
        assert 2.0 * sp.energy[0] == pytest.approx(oracles.signless_energy(g), abs=1e-9)


def test_radius_average_degree_equality_iff_regular():
    g = star(3)
    assert alpha_spectrum(g, 0.3).rho_1[0] > 2 * g.m / g.n + 1e-6
    for g in (cycle(7), complete(5)):
        for alpha in (0.0, 0.5, 0.9):
            assert alpha_spectrum(g, alpha).rho_1[0] == pytest.approx(2 * g.m / g.n, abs=1e-9)


def test_radius_zagreb_chain(er_corpus):
    # rho_1 >= sqrt(Zg/n) >= 2m/n. The second link is Cauchy-Schwarz,
    # n Zg >= (sum d_i)^2 = 4m^2 with equality iff the graph is regular, and
    # holds exactly in float64: off regularity the integer n Zg - 4m^2 is at
    # least 1, a relative margin far above rounding up to n = 1000. It is the
    # identity lb_zagreb - lb_average_degree = 2(sqrt(Zg/n) - 2m/n), ROADMAP
    # item 16's first dominance.
    atlas = [g for _, g in harness.load_corpus(str(ATLAS))[0]]
    near_regular = [delete_edge(g, *min(g.edges))
                    for g in (graphcore.random_regular(1000, k, k) for k in (3, 4))]
    graphs = er_corpus + atlas + near_regular
    assert len(atlas) == 996
    table, = spectrum_tables((graphs, [0.4]))
    for g, rho_1 in zip(table.graphs, table.rho_1.tolist()):
        root = math.sqrt(g.zagreb / g.n)
        assert rho_1 >= root - 1e-9
        assert root >= 2.0 * g.m / g.n
        assert (root == 2.0 * g.m / g.n) == g.is_regular


def test_regular_energy_factorization():
    rng = np.random.default_rng(12)
    graphs = [complete(4), complete(7), cycle(5), cycle(10), petersen()]
    graphs += [graphcore.random_regular(8, 3, int(rng.integers(0, 2**63))) for _ in range(3)]
    for g in graphs:
        base = oracles.energy(g, 0.0)
        previous = None
        for alpha in DEFAULT_ALPHA_GRID:
            got = alpha_spectrum(g, alpha).energy[0]
            assert abs(got - (1 - alpha) * base) <= 1e-9
            if previous is not None:
                assert got <= previous + 1e-9
            previous = got


def test_edge_deletion_monotonicity_small_fuzz():
    rng = np.random.default_rng(99)
    for _ in range(20):
        g = graphcore.erdos_renyi(
            int(rng.integers(4, 10)), 0.5, int(rng.integers(0, 2**63)), connected=True
        )
        edge = sorted(g.edges)[int(rng.integers(0, g.m))]
        smaller = delete_edge(g, *edge)
        for alpha in (0.5, 0.75, 0.9):
            before = alpha_spectrum(g, alpha).rho[0]
            after = alpha_spectrum(smaller, alpha).rho[0]
            assert np.all(after <= before + 1e-9)


def test_edge_perturbation_spectrum():
    # Deleting one edge changes the matrix by a rank-2 block whose spectrum
    # is {1, 2*alpha - 1, 0, ..., 0}.
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = graphcore.erdos_renyi(
            int(rng.integers(3, 9)), 0.6, int(rng.integers(0, 2**63)), connected=True
        )
        edge = sorted(g.edges)[int(rng.integers(0, g.m))]
        alpha = float(rng.uniform(0, 1))
        diff = alpha_matrix(g, alpha) - alpha_matrix(delete_edge(g, *edge), alpha)
        eigs = np.sort(np.linalg.eigvalsh(diff))[::-1]
        expected = np.sort(np.array([1.0, 2 * alpha - 1.0] + [0.0] * (g.n - 2)))[::-1]
        assert np.allclose(eigs, expected, atol=1e-9)


def test_gamma_singular_shift_clamped(capsys):
    # A singular shift is log Gamma = -inf in the table and Gamma = 0 in
    # `spectrum`'s output, with no divide-by-zero warning (warnings are
    # errors here).
    c4, c5 = spectrum_tables(([cycle(4)], [0.5]), ([cycle(5)], [1.0]))
    assert np.allclose(c4.rho[0], [2.0, 1.0, 1.0, 0.0], atol=1e-10)
    # Regular graph at alpha = 1: A_alpha = k*I, so every s_i is zero.
    for table in (c4, c5):
        assert table.log_gamma.tolist() == [-math.inf]
    rows = (_spectrum_lines(capsys, serialize_graph6(cycle(4)).decode(), "--alpha", "0.5")
            + _spectrum_lines(capsys, serialize_graph6(cycle(5)).decode(), "--alpha", "1"))
    assert [row["gamma_det"] for row in rows] == [0.0, 0.0]
    assert rows[1]["centered"] == [0.0] * 5


def test_disconnected_spectrum_still_computed():
    g = Graph(4, [(0, 1), (2, 3)])
    sp = alpha_spectrum(g, 0.5)
    assert not bounds._terms(sp, False).connected[0]
    assert sp.energy[0] > 0
    assert len(sp.rho[0]) == 4


def test_eta_counts_shift_ties():
    # Regular graph at alpha = 1: every eigenvalue equals the shift.
    assert alpha_spectrum(cycle(5), 1.0).eta.tolist() == [5]


STACK_GRAPHS = {
    "K1": Graph(1),
    "K2": complete(2),
    "2K2": Graph(4, [(0, 1), (2, 3)]),
    "petersen": petersen(),
    "er62": graphcore.erdos_renyi(62, 0.3, 2005),
}


def _one_solve(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((a + a.T) / 2.0)[::-1]


@pytest.mark.parametrize("alphas", [(0.0,), (0.5,), (1.0,), (0.0, 0.5, 1.0), DEFAULT_ALPHA_GRID],
                         ids=["0", "half", "1", "0-half-1", "grid"])
@pytest.mark.parametrize("name", list(STACK_GRAPHS))
def test_stacked_spectra_bit_identical(name, alphas):
    # One stacked solve per graph gives the bits of one LAPACK call per alpha.
    g = STACK_GRAPHS[name]
    table, = spectrum_tables(([g], alphas))
    assert table.graphs == (g,) and table.alphas == alphas
    for alpha, rho in zip(alphas, table.rho, strict=True):
        assert rho.tobytes() == _one_solve(alpha_matrix(g, alpha)).tobytes()
    if 0.0 in alphas:
        # The alpha = 0 slice is the adjacency spectrum: same inertia as the
        # Graph's own adjacency solve.
        adj = table.rho[alphas.index(0.0)]
        pos, neg = int(np.sum(adj > INERTIA_TOL)), int(np.sum(adj < -INERTIA_TOL))
        assert g.adjacency_inertia == (pos, g.n - pos - neg, neg)


ROW_COLUMNS = ("shift", "energy", "eta", "two_s", "log_gamma", "theta", "rho_1")


@given(_parsed_graphs(12), st.integers(0, 20).map(lambda a: a / 20) | st.just(1.0))
@example(Graph(1), 0.5)
@example(Graph(5), 0.5)
@example(Graph(4, [(0, 1), (2, 3)]), 0.25)
@example(star(3), 0.0)  # a singular shift: the two zero eigenvalues
@example(STACK_GRAPHS["er62"], 0.5)
@settings(max_examples=80, deadline=None)
def test_one_row_table_is_its_stacked_row(g, alpha):
    # One graph at one alpha is solved and reduced on its own; every column
    # has the bits of the same row in a stacked solve with a second alpha.
    one, = spectrum_tables(([g], [alpha]))
    stacked, = spectrum_tables(([g], [alpha, 1.0 - alpha]))
    row = row_table(stacked, 0)
    for name in ROW_COLUMNS:
        got, want = getattr(one, name), getattr(row, name)
        assert (got.dtype, got.shape, got.flags.writeable) == (want.dtype, (1,), False), name
        assert got.tobytes() == want.tobytes(), name
    assert len(one.rho) == 1 and one.rho[0].tobytes() == row.rho[0].tobytes()
    assert one.graphs == (g,) and one.alphas == (alpha,)
    # Its one solve takes one (1, n, n) stack, the alpha matrix.
    stack, = solved_stacks(g, [alpha])
    assert stack.shape == (1, g.n, g.n)
    assert stack.tobytes() == solved_stacks(g, [alpha, 1.0 - alpha])[0][:1].tobytes()
    assert np.array_equal(stack[0], oracles.alpha_matrix(g, alpha))


def test_two_alpha_groups_sharing_chunks_are_each_group_alone(monkeypatch):
    # A fuzz call's shape: graphs of interleaved orders at 11 alphas and
    # their edge-deleted graphs at 6, solved in the same stacks. With a cap
    # of about two graphs' rows per stack, chunk boundaries fall inside each
    # order and some chunk holds rows of both groups; every row keeps the
    # bits of its group solved alone, in table order.
    orders = (5, 7, 6, 7, 5, 6, 7, 5, 7, 6, 6, 5)
    graphs = [graphcore.erdos_renyi(n, 0.5, seed, connected=True)
              for seed, n in enumerate(orders)]
    smaller = [delete_edge(g, *min(g.edges)) for g in graphs]
    groups = ((graphs, DEFAULT_ALPHA_GRID), (smaller, DEFAULT_ALPHA_GRID[5:]))
    alone = [spectrum_tables(group)[0] for group in groups]
    stacks = []
    solve = densela.eigendecompose
    monkeypatch.setattr(densela, "eigendecompose", lambda a: stacks.append(a.shape) or solve(a))
    monkeypatch.setattr(spectra, "STACK_ENTRIES", 20 * 7 * 7)
    shared = spectrum_tables(*groups)
    assert len(stacks) > 2 * len(set(orders))
    assert all(np.prod(shape) <= spectra.STACK_ENTRIES for shape in stacks)
    assert any(rows % 11 and rows % 6 for rows, _, _ in stacks)  # a chunk of both groups
    for got, want in zip(shared, alone, strict=True):
        assert got.graphs == want.graphs and got.alphas == want.alphas
        assert len(got.rho) == len(want.rho)
        for a, b in zip(got.rho, want.rho):
            assert a.tobytes() == b.tobytes()
        for name in ROW_COLUMNS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        for name, a, b in zip(bounds.Terms._fields, bounds._terms(got, False),
                              bounds._terms(want, False), strict=True):
            assert a.tobytes() == b.tobytes(), name


def test_graph_invariants():
    g = star(3)
    assert (g.n, g.m, g.zagreb, g.connected) == (4, 3, 12, True)
    assert g.degrees().tolist() == [3, 1, 1, 1]
    assert g.degree_sequence == (3, 1, 1, 1)
    assert g.is_star and not g.is_regular and not g.is_complete
    assert g.adjacency_inertia == (1, 2, 1)  # spectrum sqrt(3), 0, 0, -sqrt(3)
    sp = alpha_spectrum(g, 0.3)
    c = bounds._terms(sp, False)
    assert sp.graphs == (g,)
    assert (c.n[0], c.m[0], c.zagreb[0], c.connected[0]) == (4, 3, 12, True)
    g = Graph(4, [(0, 1), (2, 3)])
    assert g.is_regular and not g.connected and not g.is_star
    assert g.adjacency_inertia == (2, 0, 2)
    assert complete(4).is_complete and complete(4).is_regular and not complete(4).is_star
    assert Graph(1).is_complete and Graph(1).adjacency_inertia == (0, 1, 0)


def test_adjacency_solved_once_per_graph(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    g = petersen()
    # One stack solve per analyze call; the adjacency spectrum, read by the
    # certificate, is solved once for the Graph object, not once per alpha.
    for alpha in DEFAULT_ALPHA_GRID:
        v, _, _ = harness.analyze("P", g, alpha)
        assert v.reason[0, 0] == 0  # ub_mcclelland applicable
    stack = (1, 10, 10)
    assert calls == [stack, (10, 10)] + [stack] * (len(DEFAULT_ALPHA_GRID) - 1)
    # Sweeps never certify, so they never solve the adjacency spectrum.
    calls.clear()
    harness.run_sweep([("P", petersen())], [0.5, 0.9])
    assert calls == [(2, 10, 10)]
    # No alpha at all: no spectrum, and nothing solved.
    table, = spectrum_tables(([g], []))
    assert len(table) == 0
    assert calls == [(2, 10, 10)]
