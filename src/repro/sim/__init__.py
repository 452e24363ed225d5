"""Discrete-event / cycle simulation kernel.

This subpackage is the reproduction's substitute for OMNeT++ (which the
paper used for its flit-level simulator).  It provides:

* :mod:`repro.sim.engine` -- a classic event-heap discrete-event simulator
  (:class:`~repro.sim.engine.Simulator`) with one-shot and recurring events.
* :mod:`repro.sim.rng` -- deterministic, named random-number streams so
  that every experiment is exactly reproducible from a single seed.
* :mod:`repro.sim.stats` -- online statistics (Welford mean/variance),
  histograms, warmup-aware sample collectors and batch-means confidence
  intervals.
* :mod:`repro.sim.records` -- light-weight record types for latency
  samples and simulation summaries.
* :mod:`repro.sim.backend` -- pluggable cycle-execution engines: the
  reference semantics, the active-set fast path and the array engine
  (:mod:`repro.sim.array_backend`, flat numpy state advanced by a C
  cycle kernel; see README.md in this directory).
* :mod:`repro.sim.session` -- :class:`RunConfig` / ``SimulationSession``,
  the single entry point experiments, benchmarks and the CLI run through.
  (Not imported here: it builds on :mod:`repro.core`, which itself
  imports this package -- import it as ``repro.sim.session``.)
* :mod:`repro.sim.replication` -- multi-seed replication:
  ``ReplicationPlan`` (seed spawning), ``ExecutionEngine`` (work
  units spread over a process pool with deterministic ordering) and
  ``ReplicatedSummary`` (mean / stddev / 95% CI per metric).  (Also not
  imported here, for the same layering reason -- import it as
  ``repro.sim.replication``.)

The flit-level NoC models in :mod:`repro.noc` register a single recurring
"network step" activity with the engine, so the hot per-cycle loop stays in
optimised plain-Python code while scheduling, stop conditions and
instrumentation go through the kernel.
"""

from repro.sim.backend import (
    BACKENDS,
    ActiveSetBackend,
    ReferenceBackend,
    SimBackend,
    make_backend,
)
from repro.sim.engine import Event, Simulator
from repro.sim.records import LatencySample, RunSummary
from repro.sim.rng import RngStreams
from repro.sim.stats import (
    BatchMeans,
    Histogram,
    OnlineStats,
    WarmupFilter,
)

__all__ = [
    "ActiveSetBackend",
    "BACKENDS",
    "ReferenceBackend",
    "SimBackend",
    "make_backend",
    "Event",
    "Simulator",
    "RngStreams",
    "OnlineStats",
    "Histogram",
    "WarmupFilter",
    "BatchMeans",
    "LatencySample",
    "RunSummary",
]
