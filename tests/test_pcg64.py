"""The pure-Python generator against numpy's `Generator`, the oracle: every
draw the package makes, on both sides of the hand-over to numpy."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import alphaenergy
from alphaenergy import graphcore, pcg64

SRC = Path(alphaenergy.__file__).resolve().parents[1]

_SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**63, 2**64, 2**128 + 1]),
    st.integers(0, 2**140),
)
# 3 * 2**30 and 3 * 2**61 reject a quarter of their draws, so Lemire's
# rejection loop runs more than once.
_SPANS = st.one_of(st.integers(1, 59), st.sampled_from([2**32, 2**63, 3 * 2**30, 3 * 2**61]))
_STUBS = st.tuples(st.integers(1, 40), st.integers(1, 5)).map(
    lambda nk: [v for v in range(nk[0]) for _ in range(nk[1])]
)
_FORTY_STUBS = [v for v in range(10) for _ in range(4)]
_DRAWS = st.lists(st.one_of(
    st.just(("random",)),
    st.tuples(st.just("below"), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
              st.integers(0, 50)),
    st.just(("uniform", 0.25, 0.75)),
    st.tuples(st.just("integers"), st.integers(0, 10), _SPANS).map(
        lambda t: ("integers", t[1], min(t[1] + t[2], 2**63))
    ),
    st.just(("integers", 0, 2**63)),
    st.tuples(st.just("shuffled"), _STUBS),
), max_size=14)


def _draw(gen, op):
    """One draw as the package makes it: `below` and `shuffled` through this
    module, the scalar draws as methods of the generator."""
    name, *args = op
    if name in ("below", "shuffled"):
        return getattr(pcg64, name)(gen, *args)
    return getattr(gen, name)(*args)


def _oracle_draw(oracle, op):
    """The same draw from numpy's generator, written as numpy would."""
    name, *args = op
    if name == "below":
        p, size = args
        return (oracle.random(size) < p).tobytes()
    if name == "shuffled":
        return oracle.permutation(args[0]).tolist()
    return getattr(oracle, name)(*args)


@settings(max_examples=300, deadline=None)
@given(_SEEDS, _DRAWS, st.integers(0, 400))
# Seed 12's first 32-bit and seed 10's first 64-bit draw are rejected more
# than once.
@example(12, [("integers", 0, 3 * 2**30)], 400)
@example(10, [("integers", 0, 3 * 2**61)], 400)
# The pairing model's shuffle of 40 stubs (k = 4 at n = 10): entered with a
# pending 32-bit half (seed 1), and leaving one that the next 32-bit draw
# reads (seed 0).
@example(1, [("integers", 0, 59), ("shuffled", _FORTY_STUBS), ("integers", 0, 59)], 400)
@example(0, [("shuffled", _FORTY_STUBS), ("integers", 0, 59)], 400)
@example(3, [("shuffled", _FORTY_STUBS), ("shuffled", _FORTY_STUBS)], 400)
# A G(n, p) draw in Python, then one that passes the budget.
@example(5, [("below", 0.5, 30), ("below", 0.5, 30), ("random",)], 40)
def test_every_draw_matches_numpy_across_the_handover(seed, draws, budget):
    oracle = np.random.default_rng(seed)
    with mock.patch.multiple(pcg64, BUDGET=budget, _requested=0):
        gen = pcg64.Generator(seed)
        for op in draws:
            assert _draw(gen, op) == _oracle_draw(oracle, op), (seed, op)


def test_a_pending_32_bit_half_crosses_the_handover():
    oracle = np.random.default_rng(2**64)
    with mock.patch.multiple(pcg64, BUDGET=1, _requested=0):
        gen = pcg64.Generator(2**64)
        assert gen.integers(0, 59) == oracle.integers(0, 59)
        assert gen._half is not None and gen._numpy is None
        assert gen.integers(0, 59) == oracle.integers(0, 59)
        assert gen._numpy is not None
        assert pcg64.below(gen, 0.5, 3) == (oracle.random(3) < 0.5).tobytes()
        assert pcg64.shuffled(gen, _FORTY_STUBS) == oracle.permutation(_FORTY_STUBS).tolist()


def test_default_rng_is_numpys_once_the_budget_is_spent():
    with mock.patch.multiple(pcg64, BUDGET=10, _requested=0):
        pcg64.below(pcg64.default_rng(3), 0.5, 9)
        assert isinstance(pcg64.default_rng(3), pcg64.Generator)
        pcg64.default_rng(3).random()  # the tenth value spends the budget
        assert isinstance(pcg64.default_rng(3), np.random.Generator)


def test_generators_give_the_same_graphs_on_both_paths():
    calls = [
        lambda: graphcore.erdos_renyi(12, 0.4, 99),
        lambda: graphcore.erdos_renyi(30, 0.1, 2**63 - 1, connected=True),
        lambda: graphcore.random_regular(10, 3, 1),
        lambda: graphcore.random_regular(10, 4, 7),
        lambda: graphcore.random_regular(20, 16, 2**40),
    ]
    for call in calls:
        with mock.patch.multiple(pcg64, BUDGET=10**9, _requested=0):
            python_side = call()
            assert 0 < pcg64._requested <= 10**9
        with mock.patch.multiple(pcg64, BUDGET=0, _requested=0):
            assert call() == python_side
    with mock.patch.multiple(pcg64, BUDGET=10**9, _requested=0):
        assert graphcore.serialize_graph6(graphcore.random_regular(10, 3, 1)) == b"ISPK@dIL?"


def _fresh_fuzz(n: int, seed: int, out: Path, budget: int | None) -> str:
    """Run one fuzz call in a fresh interpreter; 'True' or 'False' for
    whether numpy.random ended up imported."""
    code = "\n".join([
        "import sys",
        "import alphaenergy",
        "assert 'numpy.random' not in sys.modules",
        "from alphaenergy import cli, pcg64",
        f"pcg64.BUDGET = {budget}" if budget is not None else "",
        f"cli.main(['fuzz', '--n-min', '{n}', '--n-max', '{n}', '--trials', '4',"
        f" '--seed', '{seed}', '--out', {str(out)!r}])",
        "print('numpy.random' in sys.modules, file=sys.stderr)",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1]


def test_small_fuzz_call_leaves_numpy_random_unimported(tmp_path):
    # Seed 2712 at n = 10 asks for about 25,700 values, past BUDGET.
    for n, seed, imported in ((7, 12345, "False"), (10, 2712, "True")):
        python_out, numpy_out = tmp_path / f"py{n}.json", tmp_path / f"np{n}.json"
        assert _fresh_fuzz(n, seed, python_out, None) == imported
        assert _fresh_fuzz(n, seed, numpy_out, 0) == "True"
        assert python_out.read_bytes() == numpy_out.read_bytes()
