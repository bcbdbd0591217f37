"""Benchmark of the alphaenergy CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A run first times package set-up in
SETUP_REPEATS fresh interpreters. It then makes CLI calls, each in a fresh
single-threaded interpreter (perfbench/worker.py), until the next call would
overrun S seconds. Call b draws its inputs from (seed, b) and is of kind
b % kinds; a round is one call of each kind, and a run makes at least one.
Every report is checked by perfbench/oracle.py.

Timings are in reference seconds. The machines this runs on are shared and
their speed drifts by tens of percent over seconds to minutes, hitting the
program and any other code alike. So the run times calibrate(), a fixed loop,
before the first measurement and after each one, and scales each measured
time t to t * CAL_REF_S / c, with c the mean of the two calibration times
around it. A change to the program does not change calibrate(). The raw
times are kept in the detail line.

End-to-end metrics (--trace 0): reports_per_s and cpu_ms_per_report come
from one round at median speed (per kind, the median scaled wall or CPU
seconds of its calls, summed over kinds); peak_rss_mb is the largest peak
RSS of a call's process; setup_s is the median scaled time to import the
package and finish one warm-up `harness.analyze`. Per-layer metrics
(--trace 1): each call is rerun traced, the run stops at the end of a round,
and times are unscaled seconds per round (perfbench/tracing.py).

Workloads (sizes are fixed; see perfbench/inputs.py):
  fuzz-c5             `fuzz --n-min k --n-max k --trials 4 --seed <derived>`
                      for k = 4..10 (seven kinds), default 11-point alpha
                      grid, JSON to --out: 44 reports per call. A round is
                      the criterion-5 run's mix of orders, 28 graphs.
  atlas7-sweep        `sweep --format csv` over 6 graphs per call, the next
                      slice of a seeded order of the 996 connected graphs on
                      <= 7 vertices, default alpha grid: 66 reports per call.
  large-n-alpha-half  `sweep --alpha 0.5 --format json` over one seeded
                      connected G(n, p), p in [0.1, 0.5], with n = 40, 51 or
                      62 (three kinds): 1 report per call.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` (reports expected and reports failed) and `metrics`. The lines
before it name each metric with its unit, then failed_ratio (failed over
expected reports), then a detail object with provenance, the per-bound
verdict counts and the raw timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
CAL_REF_S = 0.1  # calibrate() on the reference machine, see the module doc
CALL_TIMEOUT_S = 150.0
WORKLOADS = ("fuzz-c5", "atlas7-sweep", "large-n-alpha-half")
OK_EXITS = (0, 2)  # 2 reports bound violations: a finding, not a failure
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMBA_NUM_THREADS": "1"}


class Workload:
    """A workload's calls: call b is of kind b % kinds, and a round is one
    call of each kind."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.checksums: dict[str, str] = {}
        self.kinds = {"fuzz-c5": len(inputs.FUZZ_ORDERS),
                      "large-n-alpha-half": len(inputs.LARGE_ORDERS)}.get(name, 1)
        if name == "atlas7-sweep":
            self.atlas = inputs.load_atlas()
            self.order = np.random.default_rng(seed).permutation(len(self.atlas))
            self.checksums["atlas7.g6"] = inputs.ATLAS_SHA256

    def batch(self, b: int) -> inputs.Batch:
        if self.name == "fuzz-c5":
            return inputs.fuzz_batch(self.seed, b, self.work)
        if self.name == "atlas7-sweep":
            return inputs.atlas_batch(self.atlas, self.order, b, self.work)
        return inputs.large_batch(self.seed, b, self.work)


@dataclass
class Measured:
    check: oracle.CheckResult
    batches: list[inputs.Batch] = field(default_factory=list)
    plain: list[dict] = field(default_factory=list)   # untraced call results
    traced: list[dict] = field(default_factory=list)  # traced reruns, same order
    out_bytes: int = 0  # report bytes written by the traced calls
    calibration: list[float] = field(default_factory=list)


def run_worker(spec: dict, work: Path, timeout: float) -> dict:
    """Run worker.py on `spec` in a fresh interpreter; its result, or an error."""
    spec_path, result_path, log_path = (work / f"worker.{x}" for x in ("spec", "result", "log"))
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    env = {**os.environ, **SINGLE_THREAD}
    with open(log_path, "wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace")[-2000:]
        return {"error": f"worker exited {proc.returncode}: {tail}"}
    return json.loads(result_path.read_text())


def check_batch(batch: inputs.Batch, res: dict, orc: oracle.Oracle,
                check: oracle.CheckResult) -> None:
    if res.get("error") or res.get("exit") not in OK_EXITS:
        check.expected += len(batch.expected)
        check.fail(len(batch.expected), f"{batch.argv[0]} call failed: exit "
                   f"{res.get('exit')}, {res.get('error')}")
        return
    try:
        text = batch.out.read_text()
        reports = oracle.parse_csv(text) if batch.fmt == "csv" else oracle.parse_json(text)
    except (OSError, ValueError, KeyError) as exc:
        check.expected += len(batch.expected)
        check.fail(len(batch.expected), f"unreadable reports: {exc!r}")
        return
    oracle.check(reports, batch.expected, batch.alphas, orc, check)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(setup: dict, wl: Workload, batches: list[inputs.Batch]) -> dict:
    config = np.show_config(mode="dicts").get("Build Dependencies", {})
    try:
        import numba  # noqa: F401  (decides the package's Jacobi backend)
        numba_imports = True
    except ImportError:
        numba_imports = False
    checksums = dict(wl.checksums)
    if wl.name == "large-n-alpha-half":
        checksums["large-n graph6, all calls"] = inputs.sha256_text(
            "".join(rec + "\n" for b in batches for rec, _ in b.expected))
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: config.get(k, {}).get("name") for k in ("blas", "lapack")},
        "blas_version": config.get("blas", {}).get("version"),
        "blas_threads": SINGLE_THREAD["OPENBLAS_NUM_THREADS"],
        "numba_imports": numba_imports,
        "package_version": setup.get("version"),
        "jacobi_backend": setup.get("jacobi_backend"),
        "git_commit": git_commit(),
        "seed": wl.seed,
        "cli_seeds": [b.cli_seed for b in batches if b.cli_seed is not None],
        "alpha_grid": list(batches[0].alphas),
        "corpus_sha256": checksums,
    }


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-array work."""
    a = np.arange(64.0).reshape(8, 8)
    t0 = time.perf_counter()
    for _ in range(1000):
        x = 0
        for i in range(300):
            x += i * i
        for _ in range(20):
            a = (a @ a.T) / (1.0 + np.abs(a).sum())
    return time.perf_counter() - t0


def to_reference(values: list[float], cal: list[float]) -> list[float]:
    """Scale the i-th measured time by CAL_REF_S over the mean of cal[i] and
    cal[i + 1], the calibration times taken just before and just after it."""
    return [v * 2.0 * CAL_REF_S / (cal[i] + cal[i + 1]) for i, v in enumerate(values)]


def measure(wl: Workload, seconds: float, trace: bool) -> Measured:
    """Run calls until the next would overrun `seconds`, after at least one
    round. Traced runs pair each call with a traced rerun and stop only at
    the end of a round."""
    got = Measured(oracle.CheckResult())
    orc = oracle.Oracle()
    start = time.perf_counter()
    took: dict[int, list[float]] = {}
    got.calibration.append(calibrate())
    while True:
        b = len(got.batches)
        batch = wl.batch(b)
        got.batches.append(batch)
        t0 = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            batch.out.unlink(missing_ok=True)
            left = max(10.0, CALL_TIMEOUT_S - (time.perf_counter() - start))
            res = run_worker({"mode": "call", "argv": list(batch.argv), "trace": is_traced},
                             wl.work, left)
            check_batch(batch, res, orc, got.check)
            res["kind"] = b % wl.kinds
            (got.traced if is_traced else got.plain).append(res)
            if is_traced:
                got.out_bytes += batch.out.stat().st_size if batch.out.exists() else 0
        took.setdefault(b % wl.kinds, []).append(time.perf_counter() - t0)
        got.calibration.append(calibrate())
        b += 1
        if b < wl.kinds or (trace and b % wl.kinds):
            continue
        upcoming = range(b, b + wl.kinds) if trace else (b,)
        needed = sum(statistics.median(took[i % wl.kinds]) for i in upcoming)
        if time.perf_counter() - start + needed > seconds:
            return got


def _round_time(calls: list[dict], cal: list[float], key: str) -> float:
    """One round at median speed: per call kind, the median of the scaled
    `key` over its calls, summed over kinds."""
    by_kind: dict[int, list[float]] = {}
    for r, v in zip(calls, to_reference([r.get(key, 0.0) for r in calls], cal)):
        if "wall_s" in r:
            by_kind.setdefault(r["kind"], []).append(v)
    return sum(statistics.median(v) for v in by_kind.values())


def end_to_end(setups: list[float], setup_cal: list[float], got: Measured,
               per_round: int) -> dict:
    wall = _round_time(got.plain, got.calibration, "wall_s")
    cpu = _round_time(got.plain, got.calibration, "cpu_s")
    rss = [r["maxrss_kb"] for r in got.plain if "maxrss_kb" in r]
    return {
        "reports_per_s": (per_round / wall if wall else 0.0, "1/s"),
        "cpu_ms_per_report": (1e3 * cpu / per_round, "ms"),
        "peak_rss_mb": (max(rss, default=0) / 1024, "MB"),
        "setup_s": (statistics.median(to_reference(setups, setup_cal)), "s"),
    }


def per_layer(got: Measured, per_call: int, kinds: int) -> dict:
    pairs = list(zip(got.traced, got.plain))
    summ = tracing.merge([t["trace"] for t, _ in pairs if t.get("trace")])
    rounds = len(pairs) / kinds
    untraced = sum(p.get("wall_s", 0.0) for _, p in pairs)
    traced = sum(t.get("wall_s", 0.0) for t, _ in pairs)
    return tracing.layer_metrics(summ, per_call * len(pairs), rounds,
                                 got.out_bytes / rounds,
                                 traced / untraced if untraced else 0.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alphaenergy" / "__init__.py").is_file():
        print(f"error: no alphaenergy sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = Workload(args.workload, args.seed, work)
    except inputs.CorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_cal = [calibrate()]
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(run_worker({"mode": "setup"}, work, CALL_TIMEOUT_S))
        setup_cal.append(calibrate())
    bad = [s["error"] for s in setups if "error" in s]
    if bad:
        print(f"error: set-up failed: {bad[0]}", file=sys.stderr)
        return 1

    got = measure(wl, args.seconds, bool(args.trace))
    check, batches = got.check, got.batches
    per_call = len(batches[0].expected)
    if args.trace:
        metrics = per_layer(got, per_call, wl.kinds)
    else:
        metrics = end_to_end([s["setup_s"] for s in setups], setup_cal, got,
                             per_call * wl.kinds)

    failed_ratio = check.failed / check.expected
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  failed_ratio = {failed_ratio:.6g} ratio "
          f"({check.failed} of {check.expected} reports, {len(batches)} calls)")
    for why in check.problems:
        print(f"{args.workload}  failure: {why}")
    detail = {
        "workload": args.workload,
        "calls": len(batches),
        "reports_per_call": per_call,
        "failed_ratio": failed_ratio,
        "raw_reports_per_s": per_call * len(got.plain) / max(
            1e-9, sum(r.get("wall_s", 0.0) for r in got.plain)),
        "call_wall_s": [[r["kind"], r.get("wall_s")] for r in got.plain],
        "calibration_s": got.calibration,
        "setup_wall_s": [s["setup_s"] for s in setups],
        "setup_calibration_s": setup_cal,
        "verdict_counts": {bid: dict(zip(("applicable", "holds", "equality"), row))
                           for bid, row in check.fingerprint.items()},
        "provenance": provenance(setups[0], wl, batches),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.expected,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
