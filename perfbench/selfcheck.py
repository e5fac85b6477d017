"""Self-checks of the benchmark itself.

Every run checks the spec's names; the traced run (and the standalone
script) runs them all:

- every metric name and unit in ``BENCHMARK.json`` follows the naming
  rule, and each name is used once;
- a corrupted digest, a changed CC table, a wrong BPS or a wrong top
  suspect is counted as a failed check, never raised;
- a different seed changes every generated input, and the same seed
  reproduces it byte for byte.

Standalone: ``python3 perfbench/selfcheck.py`` (exit 0 when all hold).
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent


class SelfCheckError(RuntimeError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise SelfCheckError(message)


def check_spec(spec: dict) -> None:
    from harness import NAME_RE, UNIT_RE
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]] + [w["name"] for w in spec["workloads"]]
    _require(len(names) == len(set(names)), "a name is used twice")
    for key in ("end_to_end", "per_layer"):
        for metric in spec[key]:
            _require(bool(NAME_RE.match(metric["name"])),
                     f"bad metric name {metric['name']!r}")
            _require(bool(UNIT_RE.match(metric["unit"])),
                     f"bad unit {metric['unit']!r} of {metric['name']}")
            _require(metric["better"] in ("higher", "lower"),
                     f"bad 'better' of {metric['name']}")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    _require(e2e.get("setup_s", {}).get("unit") == "s",
             "setup_s must be an end-to-end metric in s")
    from run import WORKLOADS
    _require([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
             "BENCHMARK.json workloads differ from run.py's")


def check_oracles_count_failures() -> None:
    from harness import Checks
    import grids
    import replay
    import serve
    from repro.core.records import TraceCollection

    checks = Checks()
    row = {"key": "set1/0/1", "digest": "00ff"}
    grids.check_digests([row], {"set1/0/1": "00fe"}, checks, "manifest")
    grids.check_cc({"set1": {"BPS": "0.5"}}, {"set1": {"BPS": "0.25"}},
                   checks, "manifest")
    _require(checks.failed == 2, "a corrupted digest or CC went uncounted")

    checks = Checks()
    stall = SimpleNamespace(server_key="server3")
    wrong = SimpleNamespace(kind="server-stall", target="server4")
    replay.check_command(checks, "watch", replay.N_RECORDS, 1.0, 2.0,
                         None, stall)
    replay.check_command(checks, "diagnose", replay.N_RECORDS, 2.0, 2.0,
                         wrong, stall)
    _require(checks.failed == 2, "a wrong BPS or suspect went uncounted")

    batch = TraceCollection.from_arrays(pid=[0, 1], nbytes=[4096, 4096],
                                        start=[0.0, 0.5], end=[1.0, 1.5])
    checks = Checks()
    serve.check_result(checks, {"state": "drained", "final": {
        "ops": 2, "exec_time": 1.5, "bps": 1.0}}, 2, batch)
    serve.check_result(checks, {"state": "failed"}, 2, batch)
    _require(checks.failed == 4, "a wrong serve result went uncounted")


def check_seeds_change_inputs() -> None:
    import inputs
    from harness import OUT_DIR

    _require(inputs.grid_base_seed(0) == inputs.REPO_BASE_SEED,
             "seed 0 must map onto the repository's default base seed")
    _require(inputs.grid_base_seed(1) != inputs.grid_base_seed(0),
             "the grid base seed ignores --seed")
    texts = []
    for seed in (0, 1, 0):
        path = OUT_DIR / "selfcheck-trace.jsonl"
        inputs.synthetic_trace(seed, 400, path)
        texts.append(path.read_bytes())
        path.unlink()
    _require(texts[0] != texts[1], "the trace ignores --seed")
    _require(texts[0] == texts[2], "the trace is not reproducible")
    lines = [inputs.serve_lines(seed, 50).lines for seed in (0, 1, 0)]
    _require(lines[0] != lines[1], "serve lines ignore --seed")
    _require(lines[0] == lines[2], "serve lines are not reproducible")


def run_all(spec: dict) -> None:
    check_spec(spec)
    check_oracles_count_failures()
    check_seeds_change_inputs()


def main() -> int:
    root = HERE.parent
    sys.path[:0] = [str(HERE), str(root / "src")]
    import harness
    harness.OUT_DIR.mkdir(exist_ok=True)
    try:
        run_all(harness.load_spec())
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1
    print("self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
