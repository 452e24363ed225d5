"""Engine throughput: reference vs active-set vs array backend.

Not a paper artefact -- this tracks the reproduction's own performance so
regressions in the hot path (ports.arbitrate / router.commit_move / the
active-set bookkeeping / the numpy step kernel) are caught, and guards
the optimized backends' contracts:

* **identical `RunSummary`** on every workload, for every backend;
* ``active``: >= 3x faster than ``reference`` at idle-heavy low load
  (its fast-forward regime);
* ``array``: >= 5x faster than ``reference`` in the near-saturation
  band on **every** large topology (quarc, spidergon, torus, mesh) --
  the region the paper's latency/load figures live in, where
  ``active`` degenerates to parity.  The ratio assumes the compiled
  cycle kernel (``repro.sim.ckernel``); the pure-numpy fallback sits
  around 3-4x.

Two entry points:

* ``pytest benchmarks/bench_sim_speed.py`` -- pytest-benchmark kernels
  plus the equivalence/speedup guards;
* ``python benchmarks/bench_sim_speed.py [--smoke] [--json PATH]
  [--replicates R] [--baseline PATH]`` -- the CI job: times every
  workload on all backends, verifies summaries are identical, writes a
  JSON report (baseline committed as ``BENCH_sim_speed.json`` at the
  repo root) and fails if a speedup floor is not met.

With ``--replicates R > 1`` every (workload, backend) cell is timed at
R seeds spawned from the workload's seed (`repro.sim.replication.
ReplicationPlan`), and the reported times/speedups are **means over
replicates with stddev spread** (``*_sd`` keys) instead of single
timings -- the form the committed baseline uses, so perf-trajectory
comparisons are not at the mercy of one seed's traffic draw.
``--baseline`` gates this run against the floors recorded in a previous
**full-mode** report (the CI perf-regression gate; smoke-mode baselines
are refused -- their floors are already lenient).  Smoke runs scale the
baseline's full-mode floors by the built-in smoke leniency ratio,
because smoke horizons are 5x shorter and CI machines are noisy.  The
floors a full-mode report records are a *ratchet*: 70% of the measured
speedups, never below the built-in constants, so committing a faster
baseline tightens the gate automatically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import Dict, List, Tuple

from repro.sim.backend import BACKENDS
from repro.sim.records import RunSummary
from repro.sim.replication import ReplicationPlan
from repro.sim.session import RunConfig, SimulationSession
from repro.sim.stats import aggregate_values
from repro.traffic.workload import WorkloadSpec

#: (name, spec, band) -- ``band`` selects which floor applies:
#: "low" carries the active-backend fast-forward floor, "sat" carries
#: the array-backend floor (gated per topology: all four large
#: networks must clear it), "mid" is tracked only.  Where an analytic
#: model exists (quarc, spidergon) the saturation rates sit at ~0.9x
#: the analytic saturation point (`repro.analysis.saturation_rate`);
#: mesh/torus rates are placed empirically just past the knee
#: (``saturated`` must report True).  Saturation workloads use long
#: messages (16-24 flits): that is the regime the paper's latency/load
#: figures live in, and it keeps the measurement dominated by the
#: cycle kernel rather than by injection bookkeeping shared with the
#: reference engine.
WORKLOADS: List[Tuple[str, WorkloadSpec, str]] = [
    ("low_load_quarc64",
     WorkloadSpec(kind="quarc", n=64, msg_len=8, beta=0.0, rate=0.0002,
                  cycles=30_000, warmup=5_000, seed=1), "low"),
    ("low_load_torus64",
     WorkloadSpec(kind="torus", n=64, msg_len=8, beta=0.0, rate=0.0002,
                  cycles=30_000, warmup=5_000, seed=1), "low"),
    ("mid_load_quarc16",
     WorkloadSpec(kind="quarc", n=16, msg_len=16, beta=0.05, rate=0.002,
                  cycles=30_000, warmup=5_000, seed=1), "mid"),
    ("high_load_spidergon16",
     WorkloadSpec(kind="spidergon", n=16, msg_len=16, beta=0.05,
                  rate=0.02, cycles=12_000, warmup=3_000, seed=1), "mid"),
    ("sat_quarc64",
     WorkloadSpec(kind="quarc", n=64, msg_len=16, beta=0.0, rate=0.0138,
                  cycles=6_000, warmup=1_500, seed=1), "sat"),
    ("sat_spidergon64",
     WorkloadSpec(kind="spidergon", n=64, msg_len=24, beta=0.0,
                  rate=0.0092, cycles=6_000, warmup=1_500, seed=1), "sat"),
    ("sat_torus64",
     WorkloadSpec(kind="torus", n=64, msg_len=24, beta=0.0, rate=0.02,
                  cycles=6_000, warmup=1_500, seed=1), "sat"),
    ("sat_mesh64",
     WorkloadSpec(kind="mesh", n=64, msg_len=16, beta=0.0, rate=0.0225,
                  cycles=6_000, warmup=1_500, seed=1), "sat"),
]

#: Acceptance floors (full mode); the smoke run uses lenient floors
#: because CI machines are noisy and the horizons are cut 5x.
ACTIVE_LOW_LOAD_FLOOR_FULL = 3.0
ACTIVE_LOW_LOAD_FLOOR_SMOKE = 1.5
#: The array floor holds on **every** "sat" workload -- all four large
#: topologies, not just the friendliest one.  5x assumes the compiled
#: cycle kernel engages (it falls back to pure numpy only when the
#: host has no C compiler, which CI does).
ARRAY_SAT_FLOOR_FULL = 5.0
ARRAY_SAT_FLOOR_SMOKE = 3.0


def _smoke_spec(spec: WorkloadSpec) -> WorkloadSpec:
    return replace(spec, cycles=max(spec.cycles // 5, 2 * spec.warmup),
                   warmup=spec.warmup // 2)


def _timed_run(spec: WorkloadSpec, backend: str,
               repeats: int) -> Tuple[float, RunSummary]:
    """Best-of-``repeats`` wall time for one full session run."""
    best = float("inf")
    summary = None
    for _ in range(repeats):
        session = SimulationSession(RunConfig(spec=spec, backend=backend))
        t0 = time.perf_counter()
        summary = session.run()
        best = min(best, time.perf_counter() - t0)
        session.backend.detach()
    return best, summary


def compare_backends(spec: WorkloadSpec, repeats: int = 2,
                     backends: Tuple[str, ...] = None,
                     replicates: int = 1) -> Dict:
    """Time ``spec`` on every backend; summaries must be identical.

    ``replicates > 1`` times every backend at R spawned seeds (each
    still best-of-``repeats`` to shed scheduler noise) and reports
    means with stddev spread; the summary-equivalence check then holds
    **per seed** across backends.  ``replicates=1`` keeps the exact
    historical single-seed behaviour.
    """
    names = list(backends if backends is not None else sorted(BACKENDS))
    if "reference" not in names:
        names.insert(0, "reference")
    if replicates > 1:
        seeds = ReplicationPlan(spec.seed, replicates).seeds()
        specs = [replace(spec, seed=s) for s in seeds]
    else:
        specs = [spec]
    times: Dict[str, List[float]] = {}
    summaries: Dict[str, List[RunSummary]] = {}
    for name in names:
        timed = [_timed_run(s, name, repeats) for s in specs]
        times[name] = [t for t, _ in timed]
        summaries[name] = [summary for _, summary in timed]
    ref_times = times["reference"]
    ref_runs = summaries["reference"]
    identical = all(summaries[name][i] == ref_runs[i]
                    for name in names for i in range(len(specs)))
    # one spread definition repo-wide: the same sample-stddev aggregate
    # ReplicatedSummary metrics use (repro.sim.stats.aggregate_values)
    ref_agg = aggregate_values(ref_times)
    result = {
        "spec": spec.to_dict(),
        "replicates": len(specs),
        "reference_s": round(ref_agg["mean"], 4),
        "reference_s_sd": round(ref_agg["stddev"], 4),
        "reference_cycles_per_s": round(spec.cycles / ref_agg["mean"]),
        "identical_summaries": identical,
        "flits_moved": ref_runs[0].flits_moved,
        "saturated": ref_runs[0].saturated,
    }
    for name in names:
        if name == "reference":
            continue
        t_agg = aggregate_values(times[name])
        s_agg = aggregate_values(
            [r / t for r, t in zip(ref_times, times[name])])
        result[f"{name}_s"] = round(t_agg["mean"], 4)
        result[f"{name}_s_sd"] = round(t_agg["stddev"], 4)
        result[f"speedup_{name}"] = round(s_agg["mean"], 2)
        result[f"speedup_{name}_sd"] = round(s_agg["stddev"], 2)
    return result


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def _session_chunk(backend: str, kind: str, n: int, rate: float = 0.02):
    spec = WorkloadSpec(kind=kind, n=n, msg_len=16, beta=0.05, rate=rate,
                        cycles=100_000, warmup=0, seed=1)
    session = SimulationSession(RunConfig(spec=spec, backend=backend))
    # warm the network into steady state before measuring the kernel
    session.backend.run_mix(session.mix, 500)
    return session


def _run_chunk(session, cycles=200):
    session.backend.run_mix(session.mix, cycles)
    return session.net.flits_moved


def test_speed_reference_quarc16(benchmark):
    s = _session_chunk("reference", "quarc", 16)
    benchmark(_run_chunk, s)
    assert s.net.total_flits() >= 0     # smoke: network still consistent


def test_speed_active_quarc16(benchmark):
    s = _session_chunk("active", "quarc", 16)
    benchmark(_run_chunk, s)
    assert s.net.total_flits() >= 0


def test_speed_array_quarc16(benchmark):
    s = _session_chunk("array", "quarc", 16)
    benchmark(_run_chunk, s)
    assert s.net.total_flits() >= 0


def test_speed_reference_quarc64_low_load(benchmark):
    s = _session_chunk("reference", "quarc", 64, rate=0.0002)
    benchmark(_run_chunk, s, 2000)
    assert s.net.total_flits() >= 0


def test_speed_active_quarc64_low_load(benchmark):
    s = _session_chunk("active", "quarc", 64, rate=0.0002)
    benchmark(_run_chunk, s, 2000)
    assert s.net.total_flits() >= 0


def test_speed_array_quarc64_saturated(benchmark):
    s = _session_chunk("array", "quarc", 64, rate=0.0138)
    benchmark(_run_chunk, s, 500)
    assert s.net.total_flits() >= 0


def test_low_load_speedup_and_equivalence():
    """The active-backend contract: identical stats, clearly faster at
    idle-heavy load.  The pytest floor is looser than the script's
    (wall-clock under pytest/CI is noisy); the 3x acceptance floor is
    enforced by the full script run (``python bench_sim_speed.py``)."""
    name, spec, _ = WORKLOADS[0]
    result = compare_backends(spec, repeats=2)
    assert result["identical_summaries"], name
    assert result["speedup_active"] >= 2.0, result


def test_saturation_speedup_and_equivalence():
    """The array-backend contract: identical stats, clearly faster in
    the near-saturation band on the big network (loose pytest floor;
    the 5x per-topology acceptance floor is enforced by the full
    script run)."""
    by_name = {name: spec for name, spec, _ in WORKLOADS}
    spec = _smoke_spec(by_name["sat_quarc64"])
    result = compare_backends(spec, repeats=2)
    assert result["identical_summaries"], result
    assert result["speedup_array"] >= 2.0, result


# ----------------------------------------------------------------------
# script / CI entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized horizons and lenient speedup floors")
    ap.add_argument("--json", default="",
                    help="write the report here (default: print only)")
    def positive_int(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"must be >= 1 (got {value})")
        return value

    ap.add_argument("--repeats", type=positive_int, default=None,
                    help="timing repeats per backend (default 3, smoke 1)")
    ap.add_argument("--replicates", type=positive_int, default=None,
                    help="seeds per (workload, backend) cell; reported "
                         "times/speedups are means with stddev spread "
                         "(default 3, smoke 2; 1 = single-seed timings)")
    ap.add_argument("--baseline", default="",
                    help="gate against the speedup floors recorded in "
                         "this earlier report (the committed "
                         "BENCH_sim_speed.json); smoke runs scale the "
                         "baseline's full-mode floors by the built-in "
                         "smoke leniency ratio")
    args = ap.parse_args(argv)

    repeats = args.repeats if args.repeats else (1 if args.smoke else 3)
    replicates = (args.replicates if args.replicates
                  else (2 if args.smoke else 3))
    active_floor = (ACTIVE_LOW_LOAD_FLOOR_SMOKE if args.smoke
                    else ACTIVE_LOW_LOAD_FLOOR_FULL)
    array_floor = (ARRAY_SAT_FLOOR_SMOKE if args.smoke
                   else ARRAY_SAT_FLOOR_FULL)
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        if baseline.get("mode") != "full":
            # a smoke report's floors are already lenient; scaling them
            # again would let sub-parity backends through the gate
            print(f"error: baseline {args.baseline} has mode="
                  f"{baseline.get('mode')!r}; the gate baseline must be "
                  f"a full-mode report (regenerate with "
                  f"`python benchmarks/bench_sim_speed.py --json ...`)",
                  file=sys.stderr)
            return 2
        active_floor = baseline["speedup_floor_low_load_active"]
        array_floor = baseline["speedup_floor_saturation_array"]
        if args.smoke:
            # the baseline records full-mode floors; smoke horizons are
            # 5x shorter and CI machines noisy, so apply the same
            # leniency ratio the built-in smoke floors encode
            active_floor = round(active_floor * ACTIVE_LOW_LOAD_FLOOR_SMOKE
                                 / ACTIVE_LOW_LOAD_FLOOR_FULL, 2)
            array_floor = round(array_floor * ARRAY_SAT_FLOOR_SMOKE
                                / ARRAY_SAT_FLOOR_FULL, 2)
        print(f"[baseline] {args.baseline}: gating at "
              f"active >= {active_floor}x (low load), "
              f"array >= {array_floor}x (saturation)")
    report = {
        "bench": "sim_speed",
        "mode": "smoke" if args.smoke else "full",
        "backends": sorted(BACKENDS),
        "replicates": replicates,
        "speedup_floor_low_load_active": active_floor,
        "speedup_floor_saturation_array": array_floor,
        "workloads": {},
    }
    failures = []
    sat_speedups: Dict[str, float] = {}
    for name, spec, band in WORKLOADS:
        if args.smoke:
            spec = _smoke_spec(spec)
        result = compare_backends(spec, repeats=repeats,
                                  replicates=replicates)
        result["band"] = band
        report["workloads"][name] = result
        print(f"{name:24s} ref {result['reference_s']:7.3f}s "
              f"±{result['reference_s_sd']:.3f}  "
              f"active {result['speedup_active']:5.2f}x "
              f"±{result['speedup_active_sd']:.2f}  "
              f"array {result['speedup_array']:5.2f}x "
              f"±{result['speedup_array_sd']:.2f}  "
              f"identical={result['identical_summaries']}")
        if not result["identical_summaries"]:
            failures.append(f"{name}: summaries differ between backends")
        if band == "low" and result["speedup_active"] < active_floor:
            failures.append(
                f"{name}: active speedup {result['speedup_active']}x "
                f"below {active_floor}x low-load floor")
        if band == "sat":
            sat_speedups[name] = result["speedup_array"]
            if not result["saturated"]:
                failures.append(
                    f"{name}: workload no longer saturates (retune the "
                    f"injection rate)")
            # every topology individually: a regression on one network
            # must not hide behind a healthy ratio on another
            if result["speedup_array"] < array_floor:
                failures.append(
                    f"{name}: array speedup {result['speedup_array']}x "
                    f"below {array_floor}x saturation floor")
    report["best_saturation_speedup_array"] = max(
        sat_speedups.values(), default=0.0)
    report["worst_saturation_speedup_array"] = min(
        sat_speedups.values(), default=0.0)
    if not args.smoke:
        # Ratchet: a full-mode report records the floors a *future*
        # --baseline gate will read as 70% of what this run actually
        # measured (weakest low-load active speedup / weakest
        # saturation-band array speedup), never below the built-in
        # constants -- so committing a faster baseline tightens the CI
        # gate automatically instead of freezing it at the constants.
        low_active = min(
            report["workloads"][name]["speedup_active"]
            for name, _, band in WORKLOADS if band == "low")
        report["speedup_floor_low_load_active"] = max(
            ACTIVE_LOW_LOAD_FLOOR_FULL, round(0.7 * low_active, 2))
        report["speedup_floor_saturation_array"] = max(
            ARRAY_SAT_FLOOR_FULL,
            round(0.7 * report["worst_saturation_speedup_array"], 2))

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"[json] {args.json}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
