"""Independent checker for alphaenergy reports.

Each report's graph is decoded from its graph_id with networkx, A_alpha is
rebuilt with numpy, and the reported n, m, Zagreb index, spectrum and energy
are compared with `numpy.linalg.eigvalsh`. The tolerance scales with
||A_alpha||_F and admits the 12-significant-digit rounding of the report
writers, so any correct eigensolver passes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

RTOL = 1e-9          # per eigenvalue, times (1 + ||A_alpha||_F)
BOUNDS_PER_REPORT = 15
VERDICT_KEYS = {"id", "applicable", "holds", "equality"}


@dataclass
class CheckResult:
    expected: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # bound id -> [applicable, holds, equality] counts over passing reports
    fingerprint: dict[str, list[int]] = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def parse_json(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def parse_csv(text: str) -> list[dict]:
    """Group CSV rows (one per bound) back into one dict per report."""
    reports: list[dict] = []
    for row in csv.DictReader(text.splitlines()):
        key = (row["graph_id"], row["alpha"])
        if not reports or reports[-1]["_key"] != key:
            reports.append({
                "_key": key,
                "graph_id": row["graph_id"],
                "n": int(row["n"]),
                "m": int(row["m"]),
                "zagreb": int(row["zagreb"]),
                "alpha": float(row["alpha"]),
                "spectrum": [float(x) for x in row["spectrum"].split(";") if x],
                "energy": float(row["energy"]),
                "bounds": [],
            })
        reports[-1]["bounds"].append({
            "id": row["id"],
            "applicable": row["applicable"] == "true",
            "holds": row["holds"] == "true",
            "equality": row["equality"] == "true",
        })
    return reports


class Oracle:
    """Reference spectra, cached per graph record."""

    def __init__(self):
        self._graphs: dict[str, tuple[np.ndarray, int]] = {}

    def _graph(self, record: str) -> tuple[np.ndarray, int]:
        if record not in self._graphs:
            g = nx.from_graph6_bytes(record.encode("ascii"))
            adj = nx.to_numpy_array(g, nodelist=range(g.number_of_nodes()))
            self._graphs[record] = (adj, g.number_of_edges())
        return self._graphs[record]

    def problem(self, rep: dict) -> str | None:
        """Why one report disagrees with the reference, or None if it agrees."""
        adj, m = self._graph(rep["graph_id"])
        n = adj.shape[0]
        deg = adj.sum(axis=1)
        alpha = rep["alpha"]
        mat = alpha * np.diag(deg) + (1.0 - alpha) * adj
        ref = np.linalg.eigvalsh(mat)[::-1]
        tol = RTOL * (1.0 + float(np.linalg.norm(mat)))
        spectrum = np.asarray(rep["spectrum"], dtype=float)
        if (rep["n"], rep["m"], rep["zagreb"]) != (n, m, int(np.sum(deg * deg))):
            return f"n, m or zagreb {rep['n'], rep['m'], rep['zagreb']}"
        if spectrum.shape != ref.shape:
            return f"{spectrum.size} eigenvalues for n = {n}"
        err = float(np.max(np.abs(spectrum - ref)))
        if err > tol:
            return f"eigenvalue off by {err:.3g} > {tol:.3g}"
        energy = float(np.sum(np.abs(ref - 2.0 * alpha * m / n)))
        if abs(rep["energy"] - energy) > n * tol:
            return f"energy {rep['energy']!r}, reference {energy!r}"
        verdicts = rep["bounds"]
        if (len(verdicts) != BOUNDS_PER_REPORT
                or len({v["id"] for v in verdicts}) != len(verdicts)
                or not all(VERDICT_KEYS <= v.keys() for v in verdicts)):
            return f"{len(verdicts)} bound verdicts, expected {BOUNDS_PER_REPORT} distinct"
        return None


def check(reports: list[dict], expected, alphas, oracle: Oracle,
          result: CheckResult) -> None:
    """Check reports against the expected (record, alpha) sequence in order.

    A missing, extra or misplaced report fails; so does one the oracle
    rejects. A record of None in `expected` must match the record of the
    first report of its block of len(alphas).
    """
    k = len(alphas)
    result.expected += len(expected)
    if len(reports) != len(expected):
        result.fail(abs(len(reports) - len(expected)),
                    f"{len(reports)} reports, expected {len(expected)}")
    for i, (rep, (record, alpha)) in enumerate(zip(reports, expected)):
        try:
            want = record if record is not None else reports[i - i % k]["graph_id"]
            if rep["graph_id"] != want or abs(rep["alpha"] - alpha) > 1e-12:
                why = (f"{rep['graph_id']!r} at alpha {rep['alpha']}, "
                       f"expected {want!r} at {alpha}")
            else:
                why = oracle.problem(rep)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            why = f"malformed report: {exc!r}"
        if why is not None:
            result.fail(1, f"report {i} ({record}, {alpha}): {why}")
            continue
        for ev in rep["bounds"]:
            row = result.fingerprint.setdefault(ev["id"], [0, 0, 0])
            row[0] += bool(ev["applicable"])
            row[1] += bool(ev["holds"])
            row[2] += bool(ev["equality"])
