"""Golden digests: one cell per benchmark sweep against the manifest.

``perfbench/manifest.json`` pins the exact trace columns and execution
time of every seed-0 cell of the two simulator grids.  Re-running one
cell per sweep serially here makes a change that reorders same-instant
events (and so moves any simulated output) fail the tier-1 suite, not
only the benchmark.  The sweep builders and the digest come from
``perfbench/grids.py`` (read-only); the cells chosen run with several
processes, so ties between them are exercised, and take about a second
together.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.workloads.base import run_workload

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: workload -> sweep -> point index of the cell re-run.
CELLS = {
    "paper-grid": {"set1": 4, "set2-hdd": 1, "set2-ssd": 1,
                   "set3-pure": 7, "set3-ior": 5, "set4": 6},
    "write-fault-grid": {"set6": 5, "write-through": 1, "write-back": 1},
}


@pytest.fixture(scope="module")
def grids():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import grids as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.fixture(scope="module")
def manifest():
    with open(PERFBENCH / "manifest.json") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload,sweep,point", [
    (workload, sweep, point)
    for workload, cells in CELLS.items()
    for sweep, point in cells.items()
])
def test_cell_digest_matches_manifest(grids, manifest, workload, sweep,
                                      point):
    scale = grids.scale_for(grids.DEFAULT_SEED)
    specs = {name: spec for name, spec, _cc
             in grids.build_sweeps(workload, scale)}
    assert specs.keys() == CELLS[workload].keys()
    pinned = manifest[workload]["cells"]
    prefix = f"{sweep}/{point}/"
    # The first repetition runs at the point's smallest seed.
    seed = min(int(key[len(prefix):]) for key in pinned
               if key.startswith(prefix))
    _label, make, config = specs[sweep].points[point]
    measurement = run_workload(make(), config.with_seed(seed))
    assert grids.trace_digest(measurement) == pinned[f"{prefix}{seed}"]
