"""One-alpha shorthands for tests: the package's batch entry points applied
to a single (graph, alpha) row, and a row's verdicts in bitwise form."""

import dataclasses

from alphaenergy.bounds import EQUALITY_RTOL, evaluate_many
from alphaenergy.spectra import graph_spectra, spectrum_tables


def alpha_spectrum(g, alpha: float):
    """The AlphaSpectrum of `g` at one alpha."""
    return graph_spectra(g, [alpha])[0]


def evaluate_all(g, alpha: float, equality_tol: float = EQUALITY_RTOL):
    """Every bound's BoundEvaluation on `g` at one alpha, in BOUND_IDS order."""
    table, = spectrum_tables(([g], [alpha]))
    return evaluate_many([""], table, equality_tol).evaluations(0)


def evaluation_bits(evaluations):
    """Every field of every verdict, floats as hex so equality is bitwise."""
    return [
        tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(e))
        for e in evaluations
    ]
