"""What the benchmark measures, as plain data.

Nothing here imports the simulator, so the orchestrator can validate its
arguments (and fail cleanly in a tree without ``src/``) before touching
it.  ``BENCHMARK.json`` repeats the names, units and ``why`` lines; the
benchmark's own tests keep the two in step.

All times are **host** seconds; simulated quantities say so in their
name (``sim_cycles_per_s`` is simulated cycles per host second).
"""

from __future__ import annotations

from typing import Dict, NamedTuple

__all__ = ["Workload", "WORKLOADS", "END_TO_END", "LayerMetric",
           "PER_LAYER"]


class Workload(NamedTuple):
    why: str          #: why it is in the benchmark (one sentence)
    stresses: str     #: the layer that does most of its work
    bypasses: str     #: a layer it barely touches
    traffic: str      #: open-loop rate or closed-loop window


WORKLOADS: Dict[str, Workload] = {
    "sat_quarc64": Workload(
        why="quarc64 uniform unicast just below the knee: the C kernel,"
            " fold and replay do nearly all the work and setup is ~1%",
        stresses="sim run (C kernel, fold, Python replay)",
        bypasses="sim attach (64-node route tables build in ~0.03 s)",
        traffic="open loop, Bernoulli 0.005 msg/node/cycle, msg_len 16,"
                " beta 0, 200k cycles (warmup 10k)"),
    "build_quarc1024": Workload(
        why="quarc1024 at light load: the O(N^2) route-table build"
            " dominates wall time and peak memory",
        stresses="sim attach (make_backend route tables)",
        bypasses="sim run (16k cycles at light load)",
        traffic="open loop, Bernoulli 0.0004 msg/node/cycle, msg_len 16,"
                " beta 0, 16k cycles (warmup 1k)"),
    "closed_coherence_quarc64": Workload(
        why="closed-loop cache coherence: per-cycle reactive stepping with"
            " no fast-forward, collective deliveries and per-class"
            " collection",
        stresses="traffic injection, core.collector and the closed-loop"
                 " on_tail callback",
        bypasses="fast-forward and arrival precompute",
        traffic="closed loop, cache_coherence window 4 (request/reply plus"
                " invalidation broadcasts), 60k cycles (warmup 6k)"),
    "sweep_quarc64": Workload(
        why="the paper's latency-vs-rate sweep with broadcasts: the only"
            " workload that runs the process pool and the sweep's early"
            " stop",
        stresses="sim.replication process pool and early stop",
        bypasses="the closed-loop on_tail path and the O(N^2) attach"
                 " (64 nodes)",
        traffic="open loop, Bernoulli at 8 rates 0.0005..0.007 (5 below"
                " the knee, 3 past it), msg_len 16, beta 0.05, 2"
                " replicates, 30k cycles (warmup 3k), 2 pool workers"),
}


#: end-to-end metrics: name -> unit.  Each is the median over the fresh
#: processes of one run.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",             # SimulationSession(RunConfig(...))
    "run_s": "s",               # session.run()
    "wall_s": "s",              # setup + run; the whole sweep_rates call
    "sim_cycles_per_s": "1/s",  # simulated cycles / run_s
    "flits_per_s": "1/s",       # flits moved / run_s
    "peak_rss_mb": "MB",        # peak RSS of the process (and its pool)
    "cells_per_s": "1/s",       # simulation cells completed / wall_s
}


class LayerMetric(NamedTuple):
    unit: str
    moves: str        #: the end-to-end metric it should move
    workload: str     #: where it does most of its work


PER_LAYER: Dict[str, LayerMetric] = {
    "core.build_network_s": LayerMetric("s", "setup_s", "build_quarc1024"),
    "noc.buffers": LayerMetric("count", "setup_s", "build_quarc1024"),
    "noc.ports": LayerMetric("count", "setup_s", "build_quarc1024"),
    "sim.make_backend_s": LayerMetric(
        "s", "setup_s, peak_rss_mb", "build_quarc1024"),
    "sim.ckernel_load_s": LayerMetric("s", "setup_s", "build_quarc1024"),
    "sim.ckernel_loaded": LayerMetric("count", "setup_s",
                                      "build_quarc1024"),
    "traffic.mix_init_s": LayerMetric("s", "setup_s", "build_quarc1024"),
    "traffic.inject_s": LayerMetric(
        "s", "run_s", "closed_coherence_quarc64, sweep_quarc64"),
    "traffic.inject_calls": LayerMetric(
        "count", "run_s", "closed_coherence_quarc64, sweep_quarc64"),
    "sim.step_s": LayerMetric("s", "run_s, sim_cycles_per_s",
                              "sat_quarc64"),
    "sim.step_calls": LayerMetric("count", "run_s, sim_cycles_per_s",
                                  "sat_quarc64"),
    "sim.ff_cycles": LayerMetric("count", "run_s, sim_cycles_per_s",
                                 "sweep_quarc64"),
    "sim.fold_s": LayerMetric("s", "run_s, sim_cycles_per_s",
                              "sat_quarc64"),
    "sim.kernel_s": LayerMetric("s", "run_s, sim_cycles_per_s",
                                "sat_quarc64"),
    "sim.replay_s": LayerMetric("s", "run_s, sim_cycles_per_s",
                                "sat_quarc64"),
    "sim.kernel_share": LayerMetric("ratio", "run_s, sim_cycles_per_s",
                                    "sat_quarc64"),
    "sim.kernel_calls": LayerMetric("count", "run_s, sim_cycles_per_s",
                                    "sat_quarc64"),
    "sim.kernel_scanned": LayerMetric("count", "run_s, sim_cycles_per_s",
                                      "sat_quarc64"),
    "sim.kernel_candidates": LayerMetric(
        "count", "run_s, sim_cycles_per_s", "sat_quarc64"),
    "sim.moved_per_candidate": LayerMetric(
        "ratio", "run_s, sim_cycles_per_s", "sat_quarc64"),
    "core.collect_s": LayerMetric("s", "run_s",
                                  "closed_coherence_quarc64"),
    "core.deliveries": LayerMetric("count", "run_s",
                                   "closed_coherence_quarc64"),
    "workloads.on_tail_s": LayerMetric("s", "run_s",
                                       "closed_coherence_quarc64"),
    "workloads.on_tail_calls": LayerMetric("count", "run_s",
                                           "closed_coherence_quarc64"),
    "replication.pool_overhead_s": LayerMetric(
        "s", "wall_s, cells_per_s", "sweep_quarc64"),
    "replication.cells_run": LayerMetric("count", "wall_s, cells_per_s",
                                         "sweep_quarc64"),
    "replication.cells_abandoned": LayerMetric(
        "count", "wall_s, cells_per_s", "sweep_quarc64"),
    "trace.overhead_frac": LayerMetric("ratio", "none (tracing cost)",
                                       "all"),
}
