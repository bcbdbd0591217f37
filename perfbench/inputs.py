"""Workload inputs, built from the benchmark seed with numpy and networkx only,
so that no change to the program's own generators can change a workload.

A workload is a series of `alphaenergy` CLI calls of fixed size; call b of
a run draws its inputs from (seed, b) and is of kind b % kinds, where the
kinds stratify the calls by graph order.

Regenerate the committed atlas corpus with

    python3 perfbench/inputs.py --write-atlas
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np

HERE = Path(__file__).resolve().parent
ATLAS_PATH = HERE / "corpora" / "atlas7.g6"
ATLAS_SHA256 = "2bef914382c439409b8fb806bf8508d57d2cf6c44d6e7d9dbe1f6fa462443feb"
ATLAS_COUNTS = (1, 1, 2, 6, 21, 112, 853)  # connected graphs on n = 1..7

# The CLI's default alpha grid, restated so the checker does not read it
# from the program under test.
ALPHA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)

# Stratifying the calls by graph order keeps the work of a run from
# depending on which orders the seed happens to draw.
FUZZ_ORDERS = (4, 5, 6, 7, 8, 9, 10)   # one fuzz call kind per order
FUZZ_TRIALS = 4   # a multiple of 4 keeps the CLI's one-in-four regular graphs
ATLAS_BATCH = 6   # atlas graphs per sweep call, the next slice of a seeded order
LARGE_ORDERS = (40, 51, 62)  # one call kind per order, one graph per call


class CorpusError(ValueError):
    """A committed corpus does not match its recorded checksum or counts."""


@dataclass(frozen=True)
class Batch:
    """One CLI call: its arguments and the reports it must produce, in order.

    `expected` holds (graph6 record, alpha) per report; a record of None
    means the program picks the graph, which then must stay the same across
    each consecutive run of len(alphas) reports.
    """

    argv: tuple[str, ...]
    out: Path
    fmt: str
    expected: tuple[tuple[str | None, float], ...]
    alphas: tuple[float, ...]
    cli_seed: int | None = None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def atlas_records() -> list[str]:
    """graph6 records of the connected graphs on 1..7 vertices, in atlas order."""
    return [
        nx.to_graph6_bytes(g, header=False).strip().decode("ascii")
        for g in nx.graph_atlas_g()
        if g.number_of_nodes() >= 1 and nx.is_connected(g)
    ]


def load_atlas(path: Path = ATLAS_PATH, digest: str = ATLAS_SHA256) -> list[str]:
    """Read the committed atlas corpus, checking its sha256 and per-n counts."""
    actual = sha256(path)
    if actual != digest:
        raise CorpusError(f"{path.name}: sha256 {actual}, expected {digest}")
    records = path.read_text("ascii").split()
    counts = [0] * len(ATLAS_COUNTS)
    for rec in records:
        n = ord(rec[0]) - 63
        if not 1 <= n <= len(ATLAS_COUNTS):
            raise CorpusError(f"{path.name}: record {rec!r} has order {n}")
        counts[n - 1] += 1
    if tuple(counts) != ATLAS_COUNTS:
        raise CorpusError(f"{path.name}: per-n counts {counts}, expected {list(ATLAS_COUNTS)}")
    return records


def derived_seed(seed: int, b: int) -> int:
    return int(np.random.SeedSequence([seed, b]).generate_state(1)[0])


def large_record(seed: int, b: int) -> str:
    """Seeded connected G(n, p), p in [0.1, 0.5], n = LARGE_ORDERS[b % 3]."""
    rng = np.random.default_rng([seed, b])
    n = LARGE_ORDERS[b % len(LARGE_ORDERS)]
    while True:
        p = float(rng.uniform(0.1, 0.5))
        g = nx.gnp_random_graph(n, p, seed=int(rng.integers(2**32)))
        if nx.is_connected(g):
            return nx.to_graph6_bytes(g, header=False).strip().decode("ascii")


def _sweep_batch(records: list[str], alphas: tuple[float, ...], fmt: str,
                 extra: tuple[str, ...], work: Path) -> Batch:
    corpus = work / "corpus.g6"
    corpus.write_text("".join(r + "\n" for r in records), "ascii")
    out = work / f"reports.{fmt}"
    argv = ("sweep", "--input", str(corpus), "--format", fmt, "--out", str(out)) + extra
    expected = tuple((r, a) for r in records for a in alphas)
    return Batch(argv, out, fmt, expected, alphas)


def fuzz_batch(seed: int, b: int, work: Path) -> Batch:
    cli_seed = derived_seed(seed, b)
    n = str(FUZZ_ORDERS[b % len(FUZZ_ORDERS)])
    out = work / "reports.json"
    argv = ("fuzz", "--n-min", n, "--n-max", n, "--trials", str(FUZZ_TRIALS),
            "--seed", str(cli_seed), "--out", str(out))
    expected = tuple((None, a) for _ in range(FUZZ_TRIALS) for a in ALPHA_GRID)
    return Batch(argv, out, "json", expected, ALPHA_GRID, cli_seed)


def atlas_batch(records: list[str], order: np.ndarray, b: int, work: Path) -> Batch:
    picked = [records[order[(b * ATLAS_BATCH + i) % len(records)]] for i in range(ATLAS_BATCH)]
    return _sweep_batch(picked, ALPHA_GRID, "csv", (), work)


def large_batch(seed: int, b: int, work: Path) -> Batch:
    return _sweep_batch([large_record(seed, b)], (0.5,), "json", ("--alpha", "0.5"), work)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-atlas"]:
        sys.exit("usage: python3 perfbench/inputs.py --write-atlas")
    ATLAS_PATH.parent.mkdir(exist_ok=True)
    ATLAS_PATH.write_text("".join(r + "\n" for r in atlas_records()), "ascii")
    print(f"{ATLAS_PATH.name}: sha256 {sha256(ATLAS_PATH)}")
