"""One measured alphaenergy call in a fresh interpreter.

    python3 perfbench/worker.py SPEC_JSON RESULT_JSON

SPEC_JSON holds {"mode": "setup"}, which times importing the package and one
warm-up `harness.analyze` on a triangle, or {"mode": "call", "argv": [...],
"trace": bool}, which times `alphaenergy.cli.main(argv)` and, when traced,
wraps the package's public functions around the call. The figures go to
RESULT_JSON. The package is imported from the checkout's `src`.
"""

import time

START = time.perf_counter()  # before anything of the package is imported

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import alphaenergy

    where = Path(alphaenergy.__file__).resolve().parent
    if where != SRC / "alphaenergy":
        raise ImportError(f"alphaenergy imported from {where}, not from {SRC}")
    return alphaenergy


def setup() -> dict:
    pkg = _import_package()
    from alphaenergy import graphcore, harness

    harness.analyze("Bw", graphcore.parse_graph6("Bw"), 0.5)
    elapsed = time.perf_counter() - START
    kernels = sys.modules.get("alphaenergy._kernels")
    return {
        "setup_s": elapsed,
        "version": getattr(pkg, "__version__", None),
        "jacobi_backend": getattr(kernels, "DEFAULT_BACKEND", None),
    }


def call(argv: list[str], trace: bool) -> dict:
    _import_package()
    from alphaenergy import cli

    tracer = patched = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        patched = tracing.install(tracer, tracing.package_modules())
    code = error = None
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # reported as a failed call, never hidden
        error = traceback.format_exc()
    finally:
        wall = time.perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if patched is not None:
            tracing.restore(patched)
    return {
        "exit": code,
        "error": error,
        "wall_s": wall,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "maxrss_kb": r1.ru_maxrss,
        "trace": tracing.summarize(tracer) if tracer is not None else None,
    }


def main() -> None:
    spec_path, result_path = sys.argv[1:3]
    spec = json.loads(Path(spec_path).read_text())
    if spec["mode"] == "setup":
        result = setup()
    else:
        result = call(spec["argv"], spec["trace"])
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
