"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 15 --trace 0

``--trace 0`` measures with tracing off and reports every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` makes the separate traced
run and reports every per-layer metric (a layer the workload does not
exercise reads 0), writing spans and profiles to ``.perfbench-out/``.
Human-readable ``name value unit`` lines come first, then the times as
measured, before their scaling to reference seconds, and the mean
speed sample (``measured ...``, see :mod:`speed`); the last line of
standard output is the JSON result.  Output checks that fail are
counted in ``failed`` (with reasons on stderr) instead of aborting.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-grid", "write-fault-grid", "trace-replay",
             "serve-ingest")


def _on_sigterm(_signum, _frame) -> None:
    # Unwind through every ``finally`` so child processes are reaped.
    raise SystemExit(143)


def _measure(workload: str, seed: int, seconds: float, traced: bool,
             checks) -> dict:
    if workload in ("paper-grid", "write-fault-grid"):
        import grids
        return grids.run(workload, seed, seconds, traced, checks)
    if workload == "trace-replay":
        import replay
        return replay.run(seed, seconds, traced, checks)
    import serve
    return serve.run(seed, seconds, traced, checks)


def result_line(spec: dict, measured: dict, traced: bool, checks) -> dict:
    """The result object: exactly the spec's metrics for this mode.

    A measured name the spec does not list is an error, as is a missing
    end-to-end metric; a per-layer metric the workload did not produce
    reads 0 (that layer did no work here).
    """
    section = spec["per_layer" if traced else "end_to_end"]
    every = {m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]}
    unknown = sorted(set(measured) - every)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for entry in section:
        name = entry["name"]
        if name not in measured and not traced:
            raise RuntimeError(f"workload did not measure {name}")
        value = float(measured.get(name, 0.0))
        if not math.isfinite(value):
            raise RuntimeError(f"{name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_sigterm)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import harness
        import selfcheck
        harness.OUT_DIR.mkdir(exist_ok=True)
        spec = harness.load_spec()
        selfcheck.check_spec(spec)
        if args.trace:
            selfcheck.run_all(spec)
        checks = harness.Checks()
        measured = _measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), checks)
        raw = measured.pop("raw")
        result = result_line(spec, measured, bool(args.trace), checks)
    except Exception:  # noqa: BLE001 — report and fail without a result
        traceback.print_exc()
        return 1
    for reason in checks.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} "
              f"{metric['unit']}")
    for name, value in raw.items():
        unit = "ms" if name.endswith("_ms") else "s"
        print(f"{args.workload} measured {name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
