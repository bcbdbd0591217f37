"""Command-line interface.

Subcommands: spectrum (eigenvalues + scalars), bounds (all verdicts for one
graph), sweep (corpus x alpha grid to CSV/JSON), fuzz (randomized soundness
sweep plus edge-deletion monotonicity), hunt-equality (one bound's equality
cases, read from the sweep's verdict table). `sweep` and `fuzz` write the
summary table, then one `violation` line per counted violation, to stderr.

Every subcommand's options are declared once, in `_COMMANDS`. A well-formed
call is read straight from that table by `_read_argv`; argparse, built from
the same table, runs only when the reader declines (help, abbreviations,
`--opt=value`, a bad or missing value), so help text and argument errors
come from argparse alone.

Exit status: 0 = clean, 1 = usage or parse error or a failed eigensolve,
2 = violations found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import densela, graphcore, harness, spectra

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
            return [(args.graph.removeprefix(graphcore.GRAPH6_HEADER),
                     graphcore.parse_graph6(args.graph))]
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


def _report_text(v, fmt: str) -> str:
    return (harness.reports_to_csv if fmt == "csv" else harness.reports_to_json)(v)


def _verdict_tail(v, bad: list[tuple[str, float, str]], closing: str = "") -> int:
    """Write the summary table of `v`, one line per counted violation in
    `bad`, then `closing`, to stderr in one write; EXIT_VIOLATIONS if any
    violation line was written."""
    lines = harness.summary_lines(harness.summarize(v))
    lines += [f"violation\t{graph_id}\t{harness.fmt12(alpha)}\t{bid}"
              for graph_id, alpha, bid in bad]
    sys.stderr.write("\n".join(lines) + "\n" + closing)
    return EXIT_VIOLATIONS if bad else EXIT_OK


def _spectrum_text(graph_ids: list[str], table: spectra.SpectrumTable) -> str:
    """`spectrum`'s output: one JSON object per row of `table`, one row per
    line, with the bytes `json.dumps` writes for the same dict with compact
    separators and every float through `harness.round12`. A row's floats are
    formatted in one `harness._json_numbers` call, a graph's fields once per
    graph and each alpha once per call. The centered eigenvalues s_i and
    Gamma = |prod s_i| are formed here and nowhere else: Gamma is 0.0 at a
    singular shift, and null where the product overflows a float64, since
    JSON has no infinity."""
    alphas = harness._json_numbers(list(table.alphas))
    rows = zip(table.rho, table.shift.tolist(), table.energy.tolist(), table.eta.tolist(),
               table.two_s.tolist(), table.log_gamma.tolist(), table.theta.tolist())
    lines = []
    with np.errstate(over="ignore"):
        for gid, g in zip(graph_ids, table.graphs):
            n, head = g.n, f'{{"graph_id":{json.dumps(gid)},"alpha":'
            fields = (f',"n":{n},"m":{g.m},"zagreb":{g.zagreb},'
                      f'"connected":{"true" if g.connected else "false"},"spectrum":[')
            # alphas first: zip stops after the graph's last row, drawing no more.
            for alpha, (rho, shift, energy, eta, two_s, log_gamma, theta) in zip(alphas, rows):
                s = rho - shift
                gamma = abs(float(np.prod(s))) if log_gamma > -math.inf else 0.0
                x = harness._json_numbers(
                    rho.tolist() + [shift] + s.tolist() + [energy, two_s, gamma, theta])
                lines.append(
                    f'{head}{alpha}{fields}{",".join(x[:n])}],"shift":{x[n]},'
                    f'"centered":[{",".join(x[n + 1:-4])}],"energy":{x[-4]},"eta":{eta},'
                    f'"two_s":{x[-3]},"gamma_det":{x[-2] if math.isfinite(gamma) else "null"},'
                    f'"theta":{x[-1]}}}\n')
    return "".join(lines)


def _cmd_spectrum(args) -> int:
    alphas = _parse_alphas(args.alpha, (0.0,))
    corpus = _input_graphs(args)
    table, = spectra.spectrum_tables(([g for _, g in corpus], alphas))
    sys.stdout.write(_spectrum_text([gid for gid, _ in corpus], table))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    alphas = _parse_alphas(args.alpha, (0.0,))
    v = harness.run_sweep(_input_graphs(args), alphas, args.tolerance)
    sys.stdout.write(harness.reports_to_json(v))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    alphas = _parse_alphas(args.alpha, harness.DEFAULT_ALPHA_GRID)
    corpus = _input_graphs(args)
    v = harness.run_sweep(corpus, alphas, args.tolerance)
    _write_output(_report_text(v, args.format), args.out)
    return _verdict_tail(v, harness.violations(v, strict=args.strict))


def _cmd_fuzz(args) -> int:
    alphas = _parse_alphas(args.alpha, harness.DEFAULT_ALPHA_GRID)
    v, mono = harness.run_fuzz(
        args.n_min, args.n_max, args.trials, args.seed, alphas, args.tolerance
    )
    if args.out:
        _write_output(_report_text(v, args.format), args.out)
    bad = harness.violations(v, strict=args.strict)
    return _verdict_tail(v, bad + list(mono), (
        f"{args.trials} graphs, {len(v.spectra)} reports, "
        f"{len(bad)} unexpected bound violations, "
        f"{len(mono)} monotonicity violations\n"))


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
    hits = harness.equality_hits(harness.run_sweep(corpus, alphas, args.tolerance), args.bound)
    lines = [json.dumps(h, separators=(",", ":")) for h in hits]
    _write_output("\n".join(lines) + ("\n" if lines else ""), args.out)
    contradicted = sum(h["contradicts_claim"] for h in hits)
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


# Each subcommand's handler, help and options as (flag, add_argument kwargs).
_GRAPH = ("graph", dict(nargs="?", help="one graph6 record"))
_GRAPH_INPUT = ("--input", dict(help="file of graph6 lines or one edge list"))
_FORMAT = ("--format", dict(choices=("csv", "json"), default="json"))
_STRICT = ("--strict", dict(action="store_true",
                            help="count the documented always-violated bound too"))
_ALPHA = ("--alpha", dict(help="comma-separated alpha values in [0, 1]"))
_ALPHA_AND_TOLERANCE = (_ALPHA, ("--tolerance", dict(
    type=_tolerance, default=bounds_mod.EQUALITY_RTOL,
    help="relative equality tolerance, finite and >= 0 (default 1e-7)",
)))

_COMMANDS = {
    "spectrum": (_cmd_spectrum, "eigenvalues and derived scalars",
                 (_GRAPH, _GRAPH_INPUT, _ALPHA)),
    "bounds": (_cmd_bounds, "every bound verdict for one graph",
               (_GRAPH, _GRAPH_INPUT, *_ALPHA_AND_TOLERANCE)),
    "sweep": (_cmd_sweep, "corpus x alpha grid, CSV/JSON report", (
        ("--input", dict(required=True, help="corpus file")),
        _FORMAT,
        ("--out", dict(help="report path (default stdout)")),
        _STRICT,
        *_ALPHA_AND_TOLERANCE,
    )),
    "fuzz": (_cmd_fuzz, "randomized soundness sweep", (
        ("--n-min", dict(type=int, default=4)),
        ("--n-max", dict(type=int, default=10)),
        ("--trials", dict(type=int, default=200)),
        ("--seed", dict(type=int, default=42)),
        _FORMAT,
        ("--out", dict(help="optionally dump all reports here")),
        _STRICT,
        *_ALPHA_AND_TOLERANCE,
    )),
    "hunt-equality": (_cmd_hunt, "find equality cases of one bound", (
        ("--bound", dict(required=True, choices=bounds_mod.BOUND_IDS)),
        ("--input", dict(help="corpus file")),
        ("--family", dict(choices=_HUNT_FAMILIES,
                          help="generate a named family instead of reading a corpus")),
        ("--n-min", dict(type=int, default=3, help="smallest graph order")),
        ("--n-max", dict(type=int, default=10, help="largest graph order")),
        ("--out", dict(help="hits path (default stdout)")),
        *_ALPHA_AND_TOLERANCE,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaenergy",
        description="Spectra of alpha*D + (1-alpha)*A and verdicts for the "
                    "published energy bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse would build from `argv`, or None to let argparse
    decide: accepts only exact declared options, each with a separate value
    not starting with '-' that passes its type and choices, store_true flags,
    at most one declared positional, and every required option."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = dict(command[2])
    positional = next((f for f in options if not f.startswith("-")), None)
    seen = {}
    tokens = iter(argv[1:])
    for tok in tokens:
        flag = tok if tok.startswith("-") else positional
        kwargs = options.get(flag)
        if kwargs is None or (flag == positional and flag in seen):
            return None
        if kwargs.get("action") == "store_true":
            seen[flag] = True
            continue
        value = tok if flag == positional else next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except (ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        seen[flag] = value
    if any(kw.get("required") and f not in seen for f, kw in options.items()):
        return None
    args = argparse.Namespace(command=argv[0])
    for flag, kwargs in options.items():
        default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        setattr(args, flag.lstrip("-").replace("-", "_"), seen.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    # The objects left by importing (numpy's among them) live as long as the
    # process. Frozen, no collection walks them, and the young generation's
    # count starts at zero, so whether a small call pays a collection does
    # not depend on how much the imports happened to allocate.
    gc.freeze()
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # Reader gone: fd 1 to the null device, so the exit flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_CliError, ValueError, densela.NoConvergenceError) as exc:
        # ValueError covers every typed input error: malformed graph6 or edge
        # list, order caps, generator parameters, alpha out of range.
        # NoConvergenceError carries LAPACK's own failure message.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
