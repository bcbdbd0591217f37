"""One-alpha shorthands for tests: the package's batch entry points applied
to a single (graph, alpha) row, the one-row table of a graph at one alpha, a
row of a spectrum table as a table of its own, a row of a verdict table as
one record per bound, a row's verdicts in bitwise form, and the alpha
matrices a solve takes."""

from collections import namedtuple

import pytest

from alphaenergy import densela
from alphaenergy.bounds import BOUNDS, EQUALITY_RTOL, evaluate_many
from alphaenergy.spectra import SpectrumTable, spectrum_tables

# One bound's verdict on one row, read from a `bounds.Verdicts` table:
# `energy` is the table's target, the constrained quantity.
Evaluation = namedtuple("Evaluation", "bound_id kind applicable reason value energy holds gap "
                                      "equality equality_claim_matched")


def alpha_spectrum(g, alpha: float) -> SpectrumTable:
    """The one-row SpectrumTable of `g` at one alpha: its row is index 0 of
    each column."""
    table, = spectrum_tables(([g], [alpha]))
    return table


def row_table(table: SpectrumTable, r: int) -> SpectrumTable:
    """Row r of `table` as a one-row table: its graph, its alpha and the bits
    of its spectrum and scalars, solved nowhere else."""
    k, cut = len(table.alphas), slice(r, r + 1)
    return SpectrumTable((table.graphs[r // k],), (table.alphas[r % k],), table.rho[cut],
                         *(col[cut] for col in (table.shift, table.energy, table.eta,
                                                table.two_s, table.log_gamma, table.theta,
                                                table.rho_1)))


def row_view(v, r: int) -> tuple[Evaluation, ...]:
    """Row r of the verdict table `v`, one Evaluation per bound in BOUND_IDS
    order, with the row's claims. Not-applicable bounds carry their reason
    and None for every verdict."""
    cols = (v.reason, v.value, v.target, v.holds, v.gap, v.equality)
    out = []
    for b, claim, code, *verdict in zip(BOUNDS, v.claims(r), *(col[:, r].tolist() for col in cols)):
        if code:
            out.append(Evaluation(b.id, b.kind, False, b.guards[code - 1][0], *[None] * 6))
        else:
            out.append(Evaluation(b.id, b.kind, True, None, *verdict, claim))
    return tuple(out)


def evaluate_all(g, alpha: float, equality_tol: float = EQUALITY_RTOL):
    """Every bound's Evaluation on `g` at one alpha, in BOUND_IDS order."""
    table, = spectrum_tables(([g], [alpha]))
    return row_view(evaluate_many([""], table, equality_tol), 0)


def evaluation_bits(evaluations):
    """Every field of every verdict, floats as hex so equality is bitwise."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in e) for e in evaluations]


def solved_stacks(g, alphas) -> list:
    """The arrays `spectrum_tables` hands to `densela.eigendecompose` when it
    solves `g` at `alphas`, as passed: the alpha matrices that are solved."""
    stacks = []
    solve = densela.eigendecompose

    def capture(a):
        stacks.append(a)
        return solve(a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(densela, "eigendecompose", capture)
        spectrum_tables(([g], alphas))
    return stacks
