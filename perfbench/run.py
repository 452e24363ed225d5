"""End-to-end benchmark of the Quarc/Spidergon flit-level simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the production engine (``array`` backend with the C cycle kernel)
on one workload of :data:`catalog.WORKLOADS`, from the root of a
checkout.  Every measured run is a fresh process (``worker.py``), one at
a time:

1. ``check`` (untimed): warm the C kernel's on-disk cache, record the
   execution tier and compare the ``array`` summary with the
   ``reference`` oracle on a shortened horizon.
2. ``timed`` runs, repeated until ``--seconds`` seconds have passed; each
   end-to-end metric is the median over them.  Every run's summary must
   be byte-identical to the first (for the sweep: to an in-process
   ``workers=1`` sweep).
3. with ``--trace 1``, one ``traced`` run with the layer spans and the
   phase profiler on; it reports each layer's self time and counts.

A run that raises, fails a check or ran without the C kernel is counted
in ``failed``.  Times are host time.  The model has no hardware
reference results, so it is unvalidated and no error figure is given.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: wall-clock budget of one invocation, below the 180 s a run may take
RUN_LIMIT_S = 170.0


def call_worker(mode: str, workload: str, seed: int, timeout: float,
                env: Dict[str, str]) -> Optional[dict]:
    """Run one worker process to completion; its JSON result, or
    ``None`` (with the reason on stderr) if it failed."""
    # its own session, so a timeout also stops the sweep's pool workers
    proc = subprocess.Popen(
        [sys.executable, WORKER, mode, workload, str(seed)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        print(f"perfbench: {mode} run of {workload} timed out",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {mode} run of {workload} exited "
              f"{proc.returncode}:\n{stderr[-2000:]}", file=sys.stderr)
        return None
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print(f"perfbench: {mode} run of {workload} printed no result",
              file=sys.stderr)
        return None


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile with at least
    ten samples beyond it, or ``None`` with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def tally(check: Optional[dict], runs: List[Optional[dict]],
          sweep: bool) -> Tuple[int, int, List[dict]]:
    """``(attempted, failed, good runs)``.

    A run fails when its worker failed, when it ran without the C
    kernel, or when its summary digest differs from the identity target:
    the in-process ``workers=1`` sweep for the sweep, the first
    successful run otherwise.  The check fails when the ``array`` and
    ``reference`` summaries differ or the kernel did not load.
    """
    failed = 0
    if check is None or not check["oracle_equal"] or not check["ckernel"]:
        failed += 1
    target = check["full_digest"] if sweep and check else None
    good = []
    for run in runs:
        if run is None or not run["ckernel"]:
            failed += 1
            continue
        if target is None and not sweep:
            target = run["digest"]
        if run["digest"] != target:
            failed += 1
            continue
        good.append(run)
    return 1 + len(runs), failed, good


def end_to_end(timed: List[dict]) -> Dict[str, List[float]]:
    """Per-run samples of every end-to-end metric."""
    out: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    for r in timed:
        out["setup_s"].append(r["setup_s"])
        out["run_s"].append(r["run_s"])
        out["wall_s"].append(r["wall_s"])
        out["sim_cycles_per_s"].append(r["cycles"] / r["run_s"])
        out["flits_per_s"].append(r["flits"] / r["run_s"])
        out["peak_rss_mb"].append(r["peak_rss_mb"])
        out["cells_per_s"].append(r["cells"] / r["wall_s"])
    return out


def layer_metrics(workload: str, check: dict, timed: List[dict],
                  traced: dict) -> Dict[str, float]:
    """The per-layer metrics: the traced run's own, plus those that
    need the untraced runs (kernel share, pool and tracing overhead)."""
    layers = dict(traced["layers"])
    wall = statistics.median(r["wall_s"] for r in timed)
    # the share of the untraced run time, which tracing does not inflate
    layers["sim.kernel_share"] = (layers["sim.kernel_s"]
                                  / statistics.median(r["run_s"]
                                                      for r in timed))
    first = timed[0]
    layers["replication.cells_run"] = first["cells"]
    layers["replication.cells_abandoned"] = (first["cells_total"]
                                             - first["cells"])
    if workload == "sweep_quarc64":
        # pooled wall minus the pool-free cell time split over workers;
        # the traced sweep runs in-process, so compare like with like
        workers = check["env"]["sweep_workers"]
        layers["replication.pool_overhead_s"] = (
            wall - check["inproc_cell_s"] / workers)
        base = check["inproc_wall_s"]
    else:
        layers["replication.pool_overhead_s"] = 0.0
        base = wall
    layers["trace.overhead_frac"] = traced["wall_s"] / base - 1.0
    return layers


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no simulator source under src/repro; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    # the C kernel's compile cache lives in the temp dir: keep it (and
    # every other temp file) inside the checkout
    env["TMPDIR"] = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)

    def worker(mode: str) -> Optional[dict]:
        return call_worker(mode, args.workload, args.seed,
                           deadline - time.monotonic(), env)

    check = worker("check")
    runs: List[Optional[dict]] = []
    t0 = time.monotonic()
    while True:
        runs.append(worker("timed"))
        elapsed = time.monotonic() - t0
        # measure for at least --seconds; keep room for the traced run
        if (elapsed >= args.seconds or time.monotonic()
                + 2 * elapsed / len(runs) > deadline):
            break
    if args.trace:
        runs.append(worker("traced"))
    sweep = args.workload == "sweep_quarc64"
    attempted, failed, good = tally(check, runs, sweep)
    traced = good[-1] if args.trace and good and "layers" in good[-1] \
        else None
    timed = [r for r in good if "layers" not in r]
    if check is None or not timed or (args.trace and traced is None):
        print("perfbench: no successful check and run to report",
              file=sys.stderr)
        return 1

    samples = end_to_end(timed)
    info = WORKLOADS[args.workload]
    print(f"workload {args.workload}: {info.traffic}")
    print("env: " + json.dumps(check["env"], sort_keys=True))
    print(f"runs: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.3f}); "
          f"{len(timed)} timed samples")
    for name, values in samples.items():
        t = tail(values)
        extra = f"  p{t[0]:.0f} {t[1]:.6g}" if t else \
            "  (tail: needs >= 11 samples)"
        print(f"  {name:18s} median {statistics.median(values):.6g} "
              f"{END_TO_END[name]}  n={len(values)}{extra}")
    for row in timed[0]["sim"]:
        print("  simulated (cycles, msgs/node/cycle): "
              + json.dumps(row, sort_keys=True))
    if args.trace:
        layers = layer_metrics(args.workload, check, timed, traced)
        print(f"traced run: {traced['span_count']} spans -> "
              f"{traced['spans_file']}")
        for name, s in sorted(traced["self_times"].items()):
            print(f"  self {name:22s} {s:.6f} s")
        metrics = {name: {"value": layers[name], "unit": m.unit}
                   for name, m in PER_LAYER.items()}
    else:
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
