"""Command-line interface.

Subcommands: spectrum (eigenvalues + scalars), bounds (all verdicts for one
graph), sweep (corpus x alpha grid to CSV/JSON), fuzz (randomized soundness
sweep plus edge-deletion monotonicity), hunt-equality (equality-case search).

Exit status: 0 = clean, 1 = usage or parse error, 2 = violations found.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds as bounds_mod
from . import graphcore, harness, spectra

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2


class _CliError(Exception):
    """Usage-level failure; message goes to stderr, exit status 1."""


def _parse_alphas(text: str | None, default: tuple[float, ...]) -> list[float]:
    if text is None:
        return list(default)
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            val = float(tok)
        except ValueError:
            raise _CliError(f"bad alpha value {tok!r}") from None
        if not 0.0 <= val <= 1.0:
            raise _CliError(f"alpha must lie in [0, 1], got {val}")
        out.append(val)
    if not out:
        raise _CliError("empty alpha list")
    return out


def _input_graphs(args) -> list[tuple[str, graphcore.Graph]]:
    if getattr(args, "graph", None) is not None and args.input:
        raise _CliError("give either a graph6 record or --input, not both")
    if getattr(args, "graph", None) is not None:
        try:
            return [(args.graph, graphcore.parse_graph6(args.graph))]
        except graphcore.MalformedGraph6Error as exc:
            raise _CliError(f"bad graph6 record: {exc}") from None
    if not args.input:
        raise _CliError("need a graph6 record or --input")
    try:
        corpus, skipped = harness.load_corpus(args.input)
    except OSError as exc:
        raise _CliError(str(exc)) from None
    for note in skipped:
        print(f"skipped {note}", file=sys.stderr)
    if not corpus:
        raise _CliError(f"no graphs parsed from {args.input}")
    return corpus


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _spectrum_row(graph_id: str, sp: spectra.AlphaSpectrum) -> dict:
    r12 = harness.round12
    return {
        "graph_id": graph_id,
        "alpha": r12(sp.alpha),
        "n": sp.n,
        "m": sp.m,
        "zagreb": sp.zagreb,
        "connected": sp.connected,
        "spectrum": [r12(float(x)) for x in sp.rho],
        "shift": r12(sp.shift),
        "centered": [r12(float(x)) for x in sp.s],
        "energy": r12(sp.energy),
        "eta": sp.eta,
        "two_s": r12(sp.two_s),
        "gamma_det": r12(sp.gamma_det),
        "theta": r12(sp.theta),
    }


def _cmd_spectrum(args) -> int:
    alphas = _parse_alphas(args.alpha, (0.0,))
    for graph_id, g in _input_graphs(args):
        for sp in spectra.graph_spectra(g, alphas):
            print(json.dumps(_spectrum_row(graph_id, sp), separators=(",", ":")))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    alphas = _parse_alphas(args.alpha, (0.0,))
    for graph_id, g in _input_graphs(args):
        for rep in harness.analyze_graph(graph_id, g, alphas, args.tolerance):
            print(json.dumps(harness.report_to_dict(rep), separators=(",", ":")))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    alphas = _parse_alphas(args.alpha, harness.DEFAULT_ALPHA_GRID)
    corpus = _input_graphs(args)
    reports = harness.run_sweep(corpus, alphas, args.tolerance)
    text = (
        harness.reports_to_csv(reports)
        if args.format == "csv"
        else harness.reports_to_json(reports)
    )
    _write_output(text, args.out)
    for line in harness.summary_lines(harness.summarize(reports)):
        print(line, file=sys.stderr)
    bad = harness.violations(reports, strict=args.strict)
    for graph_id, alpha, bid in bad:
        print(f"violation\t{graph_id}\t{harness.fmt12(alpha)}\t{bid}", file=sys.stderr)
    return EXIT_VIOLATIONS if bad else EXIT_OK


def _cmd_fuzz(args) -> int:
    alphas = _parse_alphas(args.alpha, harness.DEFAULT_ALPHA_GRID)
    result = harness.run_fuzz(
        args.n_min, args.n_max, args.trials, args.seed, alphas, args.tolerance
    )
    reports = list(result.reports)
    if args.out:
        text = (
            harness.reports_to_csv(reports)
            if args.format == "csv"
            else harness.reports_to_json(reports)
        )
        _write_output(text, args.out)
    bad = harness.violations(reports, strict=args.strict)
    for graph_id, alpha, bid in bad:
        print(f"violation\t{graph_id}\t{harness.fmt12(alpha)}\t{bid}")
    for graph_id, alpha, bid in result.monotonicity_violations:
        print(f"violation\t{graph_id}\t{harness.fmt12(alpha)}\t{bid}")
    for line in harness.summary_lines(harness.summarize(reports)):
        print(line, file=sys.stderr)
    print(
        f"{result.generated} graphs, {len(reports)} reports, "
        f"{len(bad)} unexpected bound violations, "
        f"{len(result.monotonicity_violations)} monotonicity violations",
        file=sys.stderr,
    )
    if bad or result.monotonicity_violations:
        return EXIT_VIOLATIONS
    return EXIT_OK


_HUNT_FAMILIES = ("complete", "star", "cycle", "path", "petersen")


def _family_corpus(family: str, n_min: int, n_max: int) -> list[tuple[str, graphcore.Graph]]:
    if family == "petersen":
        graphs = [graphcore.petersen()]
    else:
        # Reports name graphs by graph6, so refuse orders it cannot encode
        # before building anything: K_n alone holds n(n-1)/2 edges.
        if n_max > graphcore.GRAPH6_MAX_ORDER:
            raise _CliError(f"--n-max {n_max} exceeds the graph6 cap of "
                            f"{graphcore.GRAPH6_MAX_ORDER}")
        builder = {
            "complete": graphcore.complete,
            "star": lambda n: graphcore.star(n - 1),
            "cycle": graphcore.cycle,
            "path": graphcore.path,
        }[family]
        graphs = []
        for n in range(n_min, n_max + 1):
            try:
                graphs.append(builder(n))
            except graphcore.InvalidParametersError:
                continue
        if not graphs:
            raise _CliError(f"family {family!r} has no members with order in "
                            f"[{n_min}, {n_max}]")
    return [
        (graphcore.serialize_graph6(g).decode("ascii"), g) for g in graphs
    ]


def _cmd_hunt(args) -> int:
    alphas = _parse_alphas(args.alpha, harness.DEFAULT_ALPHA_GRID)
    if bool(args.input) == bool(args.family):
        raise _CliError("give exactly one of --input or --family")
    if args.input:
        corpus = _input_graphs(args)
    else:
        corpus = _family_corpus(args.family, args.n_min, args.n_max)
    hits = harness.run_hunt(corpus, alphas, args.bound, args.tolerance)
    lines = [json.dumps(harness.hit_to_dict(h), separators=(",", ":")) for h in hits]
    _write_output("\n".join(lines) + ("\n" if lines else ""), args.out)
    contradicted = sum(1 for h in hits if h.contradicts_claim)
    print(
        f"{len(hits)} equality hits for {args.bound}, "
        f"{contradicted} contradicting the stated class",
        file=sys.stderr,
    )
    return EXIT_OK


def _tolerance(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(val) or val < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return val


def _add_alpha(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", help="comma-separated alpha values in [0, 1]")


def _add_alpha_and_tolerance(p: argparse.ArgumentParser) -> None:
    _add_alpha(p)
    p.add_argument(
        "--tolerance", type=_tolerance, default=bounds_mod.EQUALITY_RTOL,
        help="relative equality tolerance, finite and >= 0 (default 1e-7)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaenergy",
        description="Spectra of alpha*D + (1-alpha)*A and verdicts for the "
                    "published energy bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and derived scalars")
    p.add_argument("graph", nargs="?", help="one graph6 record")
    p.add_argument("--input", help="file of graph6 lines or one edge list")
    _add_alpha(p)

    p = sub.add_parser("bounds", help="every bound verdict for one graph")
    p.add_argument("graph", nargs="?", help="one graph6 record")
    p.add_argument("--input", help="file of graph6 lines or one edge list")
    _add_alpha_and_tolerance(p)

    p = sub.add_parser("sweep", help="corpus x alpha grid, CSV/JSON report")
    p.add_argument("--input", required=True, help="corpus file")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", help="report path (default stdout)")
    p.add_argument("--strict", action="store_true",
                   help="count the documented always-violated bound too")
    _add_alpha_and_tolerance(p)

    p = sub.add_parser("fuzz", help="randomized soundness sweep")
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", help="optionally dump all reports here")
    p.add_argument("--strict", action="store_true",
                   help="count the documented always-violated bound too")
    _add_alpha_and_tolerance(p)

    p = sub.add_parser("hunt-equality", help="find equality cases of one bound")
    p.add_argument("--bound", required=True, choices=bounds_mod.BOUND_IDS)
    p.add_argument("--input", help="corpus file")
    p.add_argument("--family", choices=_HUNT_FAMILIES,
                   help="generate a named family instead of reading a corpus")
    p.add_argument("--n-min", type=int, default=3, help="smallest graph order")
    p.add_argument("--n-max", type=int, default=10, help="largest graph order")
    p.add_argument("--out", help="hits path (default stdout)")
    _add_alpha_and_tolerance(p)

    return parser


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "fuzz": _cmd_fuzz,
    "hunt-equality": _cmd_hunt,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        spectra.AlphaOutOfRangeError,
        graphcore.InvalidParametersError,
        graphcore.MalformedGraph6Error,
        graphcore.MalformedEdgeListError,
        graphcore.GraphTooLargeError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
