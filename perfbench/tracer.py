"""Span tracer for the traced benchmark run.

Wraps the public entry points the simulator calls at each layer
boundary and records one span per call -- name, start, end and the
enclosing span -- in flat in-memory arrays, written out once at the end.
A layer's *self* time is its spans' duration minus the part covered by
their child spans, so nested layers (the C-kernel load inside the
backend attach, collector callbacks inside ``step``) are not counted
twice.

The wrappers patch module and class attributes of the process they run
in, so they are installed only in the throwaway process of the traced
run; ``src/`` is never edited.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = ["Tracer", "install_layer_spans"]


class Tracer:
    """Collects nested spans from wrapped callables."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        name_id, parent = self.name_id, self.parent
        start, end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with its
        traced version."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, np.int32),
            "parent": np.frombuffer(self.parent, np.int32),
            "start": np.frombuffer(self.start, np.float64),
            "end": np.frombuffer(self.end, np.float64),
        }

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over every span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = np.bincount(a["name_id"], weights=dur - child,
                          minlength=len(self.names))
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        return {name: (float(own[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def dump(self, path: str) -> None:
        """Write every span (and the name table) to ``path`` (.npz)."""
        np.savez_compressed(path, names=np.array(self.names),
                            **self.arrays())


def install_layer_spans(tracer: Tracer) -> None:
    """Trace the layer entry points a :class:`SimulationSession` calls.

    Module attributes are patched where the caller looks them up at call
    time (``session.make_backend``, ``api.build_network`` -- imported
    inside ``SimulationSession.__init__`` --, ``array_backend.
    load_cycle_kernel``); methods are patched on their classes, so every
    session the process builds afterwards is traced, including the
    cells of an in-process sweep.
    """
    import repro.core.api as api
    import repro.sim.array_backend as array_backend
    import repro.sim.session as session
    from repro.core.collector import LatencyCollector
    from repro.traffic.mix import TrafficMix
    from repro.workloads.closedloop import ClosedLoopEngine

    p = tracer.patch
    p(session.SimulationSession, "__init__", "session.setup")
    p(session.SimulationSession, "run", "session.run")
    p(api, "build_network", "core.build_network")
    p(session, "make_backend", "sim.make_backend")
    p(array_backend, "load_cycle_kernel", "sim.ckernel_load")
    p(TrafficMix, "__init__", "traffic.mix_init")
    for attr in ("generate", "inject", "precompute_arrivals"):
        p(TrafficMix, attr, "traffic.inject")
    p(array_backend.ArrayBackend, "step", "sim.step")
    for attr in ("on_unicast_cols", "on_collective_complete"):
        p(LatencyCollector, attr, "core.collect")
    p(ClosedLoopEngine, "on_tail", "workloads.on_tail")
