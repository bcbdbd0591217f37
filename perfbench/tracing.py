"""Outside-in tracing of alphaenergy's public functions.

`install` replaces each function named in TARGETS with a wrapper that records
a span (name, start, end, parent) in a Tracer, and `restore` puts the
originals back. Every alias of a wrapped function inside the package's loaded
modules is replaced too, so calls through `from .x import f` bindings are
seen. A target missing from the package is skipped and counts zero calls.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute) pairs wrapped for a traced call; "Graph.degrees" is a
# method on the Graph class.
TARGETS = (
    ("cli", "main"),
    ("harness", "run_sweep"),
    ("harness", "run_fuzz"),
    ("harness", "load_corpus"),
    ("harness", "analyze"),
    ("harness", "reports_to_json"),
    ("harness", "reports_to_csv"),
    ("bounds", "evaluate_all"),
    ("bounds", "certify"),
    ("spectra", "alpha_spectrum"),
    ("spectra", "alpha_matrix"),
    ("densela", "eigendecompose"),
    ("graphcore", "parse_graph6"),
    ("graphcore", "adjacency_matrix"),
    ("graphcore", "is_connected"),
    ("graphcore", "erdos_renyi"),
    ("graphcore", "random_regular"),
    ("graphcore", "delete_edge"),
    ("graphcore", "Graph.degrees"),
)

EIGENSOLVE = "densela.eigendecompose"


class Tracer:
    """Spans of one traced call, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.solves: list[tuple[int, int | None]] = []  # (order, iterations)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if name == EIGENSOLVE:
                self.solves.append(_solve_info(args, result))
            return result

        return traced


def _solve_info(args, result) -> tuple[int, int | None]:
    matrix = getattr(args[0], "entries", args[0]) if args else None
    order = int(np.shape(matrix)[0]) if matrix is not None else 0
    iterations = getattr(result, "iterations", None)
    return order, None if iterations is None else int(iterations)


def package_modules(package: str = "alphaenergy") -> dict[str, object]:
    """Loaded modules of the package, keyed by their name inside it."""
    prefix = package + "."
    return {
        name[len(prefix):] if name.startswith(prefix) else "": mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(prefix))
    }


def install(tracer: Tracer, modules: dict[str, object]) -> list[tuple[object, str, object]]:
    """Wrap every TARGETS entry present in `modules`; returns what `restore` needs."""
    patched: list[tuple[object, str, object]] = []
    for mod_name, attr in TARGETS:
        owner = modules.get(mod_name)
        holder, _, fname = attr.rpartition(".")
        if holder:
            owner = getattr(owner, holder, None)
        original = vars(owner).get(fname) if owner is not None else None
        if original is None:
            continue
        wrapper = tracer.wrap(f"{mod_name}.{attr}", original)
        if holder:
            patched.append((owner, fname, original))
            setattr(owner, fname, wrapper)
            continue
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for owner, key, original in reversed(patched):
        setattr(owner, key, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [max(0.0, (end - start) - c) for (_, start, end, _), c in zip(spans, covered)]


def summarize(tracer: Tracer) -> dict:
    """Per-name call counts, inclusive and self seconds, plus the figures the
    per-layer metrics need; plain JSON types so a worker can send it back."""
    spans = tracer.spans
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    for (name, start, end, _), s in zip(spans, self_times(spans)):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
    # A matrix build is an alpha_matrix call, or an adjacency build that is
    # not the first step of one.
    builds = sum(
        1 for name, _, _, parent in spans
        if name == "spectra.alpha_matrix"
        or (name == "graphcore.adjacency_matrix"
            and (parent < 0 or spans[parent][0] != "spectra.alpha_matrix"))
    )
    iters = [it for _, it in tracer.solves if it is not None]
    return {
        "calls": calls,
        "incl_s": incl,
        "self_s": own,
        "analyze_ms": [1e3 * (e - s) for name, s, e, _ in spans if name == "harness.analyze"],
        "matrix_builds": builds,
        "solve_n3": float(sum(n ** 3 for n, _ in tracer.solves)),
        "solve_iterations": sum(iters),
        "solves_with_iterations": len(iters),
    }


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced calls."""
    out = {"calls": {}, "incl_s": {}, "self_s": {}, "analyze_ms": [],
           "matrix_builds": 0, "solve_n3": 0.0, "solve_iterations": 0,
           "solves_with_iterations": 0}
    for summ in summaries:
        for key in ("calls", "incl_s", "self_s"):
            for name, value in summ[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["analyze_ms"].extend(summ["analyze_ms"])
        for key in ("matrix_builds", "solve_n3", "solve_iterations", "solves_with_iterations"):
            out[key] += summ[key]
    return out


def layer_metrics(summ: dict, reports: int, rounds: float, output_bytes: float,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the merged summaries of `rounds` rounds of
    traced calls that produced `reports` reports. Times are seconds per round
    and output_bytes is bytes per round."""
    count, incl, own = summ["calls"], summ["incl_s"], summ["self_s"]

    def per_report(*names):
        return sum(count.get(n, 0) for n in names) / reports

    def self_per_round(*names):
        return sum(own.get(n, 0.0) for n in names) / rounds

    solve_s = incl.get(EIGENSOLVE, 0.0)
    analyze = summ["analyze_ms"]
    p50, p90 = (np.percentile(analyze, [50, 90]).tolist() if analyze else (0.0, 0.0))
    with_iters = summ["solves_with_iterations"]
    return {
        "densela.eigensolves_per_report": (per_report(EIGENSOLVE), "count"),
        "densela.eigensolve_s": (solve_s / rounds, "s"),
        "densela.iterations_per_solve": (
            summ["solve_iterations"] / with_iters if with_iters else 0.0, "count"),
        "densela.n3_per_s": (summ["solve_n3"] / solve_s if solve_s else 0.0, "n3/s"),
        "densela.matrix_builds_per_report": (summ["matrix_builds"] / reports, "count"),
        "bounds.certify_calls_per_report": (per_report("bounds.certify"), "count"),
        "bounds.certify_self_s": (self_per_round("bounds.certify"), "s"),
        "bounds.evaluate_s": (self_per_round("harness.analyze", "bounds.evaluate_all"), "s"),
        "spectra.alpha_spectrum_calls_per_report": (per_report("spectra.alpha_spectrum"), "count"),
        "spectra.alpha_spectrum_self_s": (self_per_round("spectra.alpha_spectrum"), "s"),
        "graphcore.degrees_calls_per_report": (per_report("graphcore.Graph.degrees"), "count"),
        "graphcore.is_connected_calls_per_report": (per_report("graphcore.is_connected"), "count"),
        "graphcore.adjacency_calls_per_report": (per_report("graphcore.adjacency_matrix"), "count"),
        "graphcore.parse_s": (self_per_round("graphcore.parse_graph6"), "s"),
        "graphcore.generate_s": (self_per_round(
            "graphcore.erdos_renyi", "graphcore.random_regular", "graphcore.delete_edge"), "s"),
        "harness.load_corpus_s": (self_per_round("harness.load_corpus"), "s"),
        "harness.driver_self_s": (self_per_round("harness.run_sweep", "harness.run_fuzz"), "s"),
        "harness.serialize_s": (self_per_round("harness.reports_to_json", "harness.reports_to_csv"), "s"),
        "harness.output_bytes": (output_bytes, "bytes"),
        "harness.analyze_ms_p50": (p50, "ms"),
        "harness.analyze_ms_p90": (p90, "ms"),
        "cli.main_self_s": (self_per_round("cli.main"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
