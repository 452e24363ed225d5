"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They run short horizons and ``--seconds 1``, so the whole file takes
about a minute; ``build_quarc1024`` dominates (its set-up is the
point of that workload).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def test_benchmark_json_matches_catalog():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: m.unit for name, m in PER_LAYER.items()}
    for w in WORKLOADS.values():
        assert w.stresses and w.bypasses and w.traffic
    for m in PER_LAYER.values():
        assert m.moves and m.workload


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(workload):
    """The untimed check of each workload: short-horizon array run equal
    to the reference oracle, with the C kernel loaded."""
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "check", workload, "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["oracle_equal"]
    assert res["ckernel"] and res["env"]["ckernel_loaded"]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run(["--workload", "sat_quarc64", "--seed", "3",
                 "--seconds", "1", "--trace", trace])
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_perturbed_summary_counts_as_failed():
    import worker
    from repro.sim.session import RunConfig

    spec = worker.spec_for("sat_quarc64", 7, short=True)
    summary = worker.execute_cell(RunConfig(spec=spec, backend="array"))
    good = {"digest": worker.digest(summary), "ckernel": True}
    summary.flits_moved += 1
    bad = {"digest": worker.digest(summary), "ckernel": True}
    check = {"oracle_equal": True, "ckernel": True}

    attempted, failed, ok = run.tally(check, [good, bad, good], sweep=False)
    assert (attempted, failed, len(ok)) == (4, 1, 2)
    # the sweep's identity target is the in-process workers=1 sweep
    attempted, failed, ok = run.tally(
        dict(check, full_digest=good["digest"]), [bad, good], sweep=True)
    assert (attempted, failed, len(ok)) == (3, 1, 1)
    # a run without the C kernel, or an oracle mismatch, fails too
    assert run.tally(check, [dict(good, ckernel=False)], False)[1] == 1
    assert run.tally(dict(check, oracle_equal=False), [good], False)[1] == 1


def test_tail_percentile():
    assert run.tail(list(range(10))) is None
    assert run.tail([float(v) for v in range(20, 0, -1)]) == (50.0, 10.0)


def test_refuses_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "sat_quarc64", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
