"""One benchmark process: a timed run, the output check, or a traced run.

    python3 perfbench/worker.py {timed,check,traced} WORKLOAD SEED

Each mode runs in a fresh process started by ``perfbench/run.py``, so
peak memory and set-up time are never inherited from an earlier run.
The result is one JSON object on the last line of standard output.

* ``timed``  -- the workload once, untraced: host set-up and run time,
  simulated work, peak RSS and a digest of the summary.
* ``check``  -- untimed: warms the C kernel's on-disk cache, records the
  execution tier, and compares the ``array`` engine with the
  ``reference`` oracle on a shortened horizon; for the sweep it also
  runs the full sweep in-process (``workers=1``) as the identity target
  of the pooled runs.
* ``traced`` -- the workload once with the layer spans
  (:mod:`tracer`) and the phase profiler on; reports each layer's self
  time and counts, and writes the spans out.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
from dataclasses import asdict
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import repro.sim.replication as replication  # noqa: E402
from repro.experiments.sweep import sweep_rates  # noqa: E402
from repro.obs import ObsSpec  # noqa: E402
from repro.sim.ckernel import load_cycle_kernel  # noqa: E402
from repro.sim.session import RunConfig, SimulationSession  # noqa: E402
from repro.traffic.workload import WorkloadSpec  # noqa: E402
from tracer import Tracer, install_layer_spans  # noqa: E402

#: the single-run workloads (the sweep is described by SWEEP below)
SINGLE: Dict[str, dict] = {
    "sat_quarc64": dict(kind="quarc", n=64, msg_len=16, beta=0.0,
                        rate=0.005, cycles=200_000, warmup=10_000),
    # 16k cycles: long enough that its run-time metrics average over
    # more than a second, while the attach still takes ~80% of the wall
    "build_quarc1024": dict(kind="quarc", n=1024, msg_len=16, beta=0.0,
                            rate=0.0004, cycles=16_000, warmup=1_000),
    "closed_coherence_quarc64": dict(
        kind="quarc", n=64, msg_len=16, beta=0.0, rate=1.0,
        cycles=60_000, warmup=6_000,
        workload="cache_coherence:window=4"),
}
SWEEP = "sweep_quarc64"
SWEEP_SPEC = dict(kind="quarc", n=64, msg_len=16, beta=0.05, rate=0.0005,
                  cycles=30_000, warmup=3_000)
#: five rates well below the knee (~0.0045-0.005 with these broadcasts)
#: and three past it, for every seed: the early stop then fires at the
#: same point each time (after 0.0065, abandoning the 0.007 cells)
#: instead of on whichever side of the knee a seed lands
SWEEP_RATES = [0.0005, 0.0012, 0.0019, 0.0026, 0.0033, 0.006, 0.0065,
               0.007]
SWEEP_REPLICATES = 2
#: the pool never has more workers than the host has cores
SWEEP_WORKERS = max(1, min(2, os.cpu_count() or 1))

#: (cycles, warmup) of the shortened horizon the oracle check runs;
#: short enough that the reference engine stays within seconds
SHORT = {
    "sat_quarc64": (4_000, 1_000),
    "build_quarc1024": (400, 100),
    "closed_coherence_quarc64": (4_000, 1_000),
    SWEEP: (1_000, 250),
}


def spec_for(workload: str, seed: int, short: bool = False
             ) -> WorkloadSpec:
    fields = dict(SWEEP_SPEC if workload == SWEEP else SINGLE[workload])
    if short:
        fields["cycles"], fields["warmup"] = SHORT[workload]
    return WorkloadSpec(seed=seed, **fields)


def digest(obj) -> str:
    """Hash of a summary's (or a list of summaries') full content."""
    if isinstance(obj, list):
        data = [asdict(x) for x in obj]
    else:
        data = asdict(obj)
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def execute_cell(config: RunConfig):
    """``SimulationSession(config).run()`` with the host set-up and run
    times (and execution tier) attached to the summary as the
    ``perfbench`` attribute, which equality and ``asdict`` ignore."""
    t0 = perf_counter()
    session = SimulationSession(config)
    t1 = perf_counter()
    summary = session.run()
    t2 = perf_counter()
    net = session.net
    summary.perfbench = {
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "cycles": config.spec.cycles,
        "flits": summary.flits_moved,
        # the tier that actually ran: the array engine's C kernel
        "ckernel": getattr(session.backend, "_ck", None) is not None,
        "profile": (session.profiler.report()
                    if session.profiler is not None else None),
        "buffers": sum(len(r.in_bufs) for r in net.routers),
        "ports": sum(len(r.out_ports) for r in net.routers),
    }
    return summary


def _route_sweep_cells() -> None:
    """Make the replication engine run each sweep cell through
    :func:`execute_cell`.  The engine looks ``_execute`` up at call
    time and pickles it by name for its (forked) pool, so the stand-in
    carries the original's name."""
    execute_cell.__module__ = replication.__name__
    execute_cell.__qualname__ = execute_cell.__name__ = "_execute"
    replication._execute = execute_cell


def _sim_row(s) -> dict:
    """Simulated results, printed but not gated (cycles and
    messages/node/cycle)."""
    return {"rate": s.offered_rate,
            "unicast_latency_cycles": s.unicast_mean,
            "bcast_latency_cycles": s.bcast_mean,
            "accepted_rate": (s.metric("accepted_rate").mean
                              if hasattr(s, "metric") else s.accepted_rate),
            "saturated": bool(s.saturated)}


def run_workload(workload: str, seed: int, *, short: bool = False,
                 workers: int = 1, obs: Optional[ObsSpec] = None) -> dict:
    """Run one workload on the array engine; host times plus digest."""
    spec = spec_for(workload, seed, short)
    if workload != SWEEP:
        t0 = perf_counter()
        summary = execute_cell(RunConfig(spec=spec, backend="array",
                                         obs=obs))
        wall = perf_counter() - t0
        cells = [summary.perfbench]
        out = {"digest": digest(summary), "cells_total": 1,
               "sim": [_sim_row(summary)]}
    else:
        _route_sweep_cells()
        done: List[int] = []
        t0 = perf_counter()
        points = sweep_rates(spec, SWEEP_RATES, backend="array",
                             workers=workers, replicates=SWEEP_REPLICATES,
                             progress=lambda d, total: done.append(total),
                             obs=obs)
        wall = perf_counter() - t0
        cells = [r.perfbench for p in points for r in p.runs]
        out = {"digest": digest(points),
               "cells_total": done[-1] if done else 0,
               "sim": [_sim_row(p) for p in points]}
    out.update(
        wall_s=wall,
        setup_s=sum(c["setup_s"] for c in cells),
        run_s=sum(c["run_s"] for c in cells),
        cycles=sum(c["cycles"] for c in cells),
        flits=sum(c["flits"] for c in cells),
        cells=len(cells),
        ckernel=all(c["ckernel"] for c in cells),
        cell_records=cells,
    )
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children
    (the sweep's pool workers), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0          # ru_maxrss is in KiB on Linux


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def mode_timed(workload: str, seed: int) -> dict:
    res = run_workload(workload, seed, workers=SWEEP_WORKERS)
    del res["cell_records"]
    res["peak_rss_mb"] = peak_rss_mb()
    return res


def mode_check(workload: str, seed: int) -> dict:
    # users compile once per host: warm the kernel's on-disk cache here,
    # outside every timed run
    kernel = load_cycle_kernel() is not None
    env = {
        "ckernel_loaded": kernel,
        "cc": os.environ.get("CC", "cc"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "sweep_workers": SWEEP_WORKERS,
    }
    spec = spec_for(workload, seed, short=True)
    if workload != SWEEP:
        ref = SimulationSession(RunConfig(spec=spec,
                                          backend="reference")).run()
        arr = execute_cell(RunConfig(spec=spec, backend="array"))
    else:
        ref = sweep_rates(spec, SWEEP_RATES, backend="reference",
                          replicates=SWEEP_REPLICATES)
        arr = sweep_rates(spec, SWEEP_RATES, backend="array",
                          replicates=SWEEP_REPLICATES)
    out = {"env": env, "oracle_equal": digest(ref) == digest(arr)}
    if workload == SWEEP:
        full = run_workload(workload, seed, workers=1)
        out["full_digest"] = full["digest"]
        out["inproc_wall_s"] = full["wall_s"]
        out["inproc_cell_s"] = sum(c["setup_s"] + c["run_s"]
                                   for c in full["cell_records"])
        out["ckernel"] = kernel and full["ckernel"]
    else:
        out["ckernel"] = kernel and arr.perfbench["ckernel"]
    return out


def mode_traced(workload: str, seed: int) -> dict:
    tracer = Tracer()
    install_layer_spans(tracer)
    res = run_workload(workload, seed, obs=ObsSpec(profile=True))
    cells = res.pop("cell_records")
    spans = tracer.self_times()

    def own(name: str) -> float:
        return spans.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return spans.get(name, (0.0, 0))[1]

    fold = kernel = replay = 0.0
    kcalls = scanned = candidates = moved = 0
    for c in cells:
        prof = c["profile"]
        fold += prof["categories"].get("fold", 0.0)
        kernel += prof["categories"].get("kernel", 0.0)
        replay += prof.get("replay_s", 0.0)
        kc = prof.get("kernel_counters", {})
        kcalls += kc.get("calls", 0)
        scanned += kc.get("buffers_scanned", 0)
        candidates += kc.get("candidates", 0)
        moved += kc.get("flits_moved", 0)
    layers = {
        "core.build_network_s": own("core.build_network"),
        "noc.buffers": cells[0]["buffers"],
        "noc.ports": cells[0]["ports"],
        "sim.make_backend_s": own("sim.make_backend"),
        "sim.ckernel_load_s": own("sim.ckernel_load"),
        "sim.ckernel_loaded": int(res["ckernel"]),
        "traffic.mix_init_s": own("traffic.mix_init"),
        "traffic.inject_s": own("traffic.inject"),
        "traffic.inject_calls": calls("traffic.inject"),
        "sim.step_s": own("sim.step"),
        "sim.step_calls": calls("sim.step"),
        "sim.ff_cycles": res["cycles"] - calls("sim.step"),
        "sim.fold_s": fold,
        "sim.kernel_s": kernel,
        "sim.replay_s": replay,
        "sim.kernel_calls": kcalls,
        "sim.kernel_scanned": scanned,
        "sim.kernel_candidates": candidates,
        "sim.moved_per_candidate": (moved / candidates
                                    if candidates else 0.0),
        "core.collect_s": own("core.collect"),
        "core.deliveries": calls("core.collect"),
        "workloads.on_tail_s": own("workloads.on_tail"),
        "workloads.on_tail_calls": calls("workloads.on_tail"),
    }
    outdir = os.path.join(ROOT, ".perfbench", "trace")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, f"{workload}-seed{seed}.npz")
    tracer.dump(path)
    res.update(layers=layers, spans_file=os.path.relpath(path, ROOT),
               self_times={k: v[0] for k, v in spans.items()},
               span_count=len(tracer.start))
    return res


MODES = {"timed": mode_timed, "check": mode_check, "traced": mode_traced}


def main(argv: List[str]) -> int:
    if len(argv) != 3 or argv[0] not in MODES or (
            argv[1] not in SINGLE and argv[1] != SWEEP):
        print(__doc__, file=sys.stderr)
        return 2
    result = MODES[argv[0]](argv[1], int(argv[2]))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
