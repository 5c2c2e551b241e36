#!/usr/bin/env python3
"""Batched-kernel throughput -> BENCH_core.json, with a regression gate.

Measures the two hot loops this repository spends its CPU time in:

* **Policy simulation** — requests/second through
  :class:`HybridMemorySimulator` for the core policies, once with the
  batched ``access_batch`` kernels (``batch=True``, the default) and
  once through the per-request ``access`` loop (``batch=False``, the
  pre-batching behaviour).  Both paths produce bit-identical
  :class:`RunResult`\\ s — ``tests/test_batch_equivalence.py`` asserts
  it — so the ratio is pure kernel speedup.
* **Cache filtering** — CPU accesses/second through
  :func:`repro.cpu.filter.filter_trace`, vectorized kernel vs the
  per-request reference replay, on a default (cache-thrashing) and a
  high-locality multicore trace.
* **Observability overhead** — the batched kernels with the event bus
  detached (``events=None``, the default) versus attached with the
  standard sinks.  The events-off number is what the regression gate
  floors: the bus must stay zero-overhead when disabled.
* **Single-tier LRU kernel** (report-only) — the DRAM-only/NVM-only
  baselines' miss-driven kernel does Python work per fault, not per
  request, so its throughput depends on the miss ratio.  Two rows put
  both ends on record: a fault-light paper cell (streamcluster at
  default scale) and a uniform trace over a footprint sized by the
  paper's 75 % rule, so about 25 % of its requests miss.
* **Pipeline phase breakdown** (report-only) — per-phase wall-clock of
  one representative grid cell: workload render vs cache filter vs
  simulator replay, so engine-level speedups (analytic, sampled) can
  be read against the phases they leave untouched.

Timing uses ``time.process_time()`` (container wall clocks jitter by
2x), garbage collection is disabled around the timed region, and each
cell is best-of-``--reps``.

The **regression gate** compares the batched/vectorized numbers
against the floors in ``benchmarks/baseline_core.json`` and fails
(exit 1) when throughput drops below ``tolerance`` (default 0.7, i.e.
a >30% regression) times the stored floor.  Floors are deliberately
conservative — about half of a dev-container measurement — so the gate
catches real kernel regressions, not machine variance.  Refresh them
with ``--update-baseline`` after intentional changes.

Run:  python benchmarks/bench_core.py [--fast] [--reps N]
                                      [--output BENCH_core.json]
                                      [--baseline benchmarks/baseline_core.json]
                                      [--update-baseline] [--no-gate]
"""

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.cpu.filter import filter_trace
from repro.cpu.hierarchy import cotson_hierarchy
from repro.cpu.multicore import synthesize_cpu_trace
from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import HybridMemorySimulator
from repro.obs import EventConfig
from repro.policies.registry import policy_factory
from repro.trace.trace import Trace
from repro.workloads.synthetic import zipf_workload

#: Policies measured with the event bus attached vs detached.
EVENT_POLICIES = ("proposed", "clock-dwf")

#: Policies on the policy-throughput grid (the figure-4 core set).
POLICIES = ("proposed", "clock-dwf", "dram-only", "nvm-only")

#: The single-module baselines, timed on their best and worst case.
SINGLE_TIER_POLICIES = ("dram-only", "nvm-only")

#: zipf workload sizes: full (local measurement) and --fast (CI smoke).
FULL_SIZE = dict(pages=4000, requests=500_000)
FAST_SIZE = dict(pages=1000, requests=100_000)

#: Cache-filter workloads: the synthesizer's default mix thrashes the
#: L1s (uniform-random lines within a big zipf page set); the "local"
#: mix keeps a per-core working set that caches well, which is closer
#: to the L1 hit ratios real applications show.
FILTER_WORKLOADS = {
    "multicore-default": {},
    "multicore-local": dict(shared_pages=16, private_pages=1,
                            shared_fraction=0.1, zipf_alpha=1.5),
}

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline_core.json"

#: Written into refreshed baselines: floor = measured * this margin.
BASELINE_MARGIN = 0.5


def best_of(fn, reps: int) -> float:
    """Best-of-``reps`` process time of ``fn()`` with the GC paused."""
    best = float("inf")
    for _ in range(reps):
        gc.collect()
        gc.disable()
        started = time.process_time()
        fn()
        elapsed = time.process_time() - started
        gc.enable()
        best = min(best, elapsed)
    return best


def policy_spec(name: str, footprint_pages: int) -> HybridMemorySpec:
    spec = HybridMemorySpec.for_footprint(footprint_pages)
    if name.startswith("dram-only"):
        return spec.as_dram_only()
    if name.startswith("nvm-only"):
        return spec.as_nvm_only()
    return spec


def bench_policies(size: dict, reps: int) -> dict:
    trace = zipf_workload(**size, seed=2016)
    requests = len(trace)
    rows: dict[str, dict] = {}
    for name in POLICIES:
        spec = policy_spec(name, size["pages"])

        def simulate(batch: bool) -> None:
            simulator = HybridMemorySimulator(
                spec, policy_factory(name), sanitize=False, batch=batch,
            )
            simulator.run(trace)

        batched = requests / best_of(lambda: simulate(True), reps)
        per_request = requests / best_of(lambda: simulate(False), reps)
        rows[name] = {
            "batch_rps": round(batched),
            "per_request_rps": round(per_request),
            "speedup": round(batched / per_request, 3),
        }
        print(f"  policy {name:10s}  batch {batched/1e3:7.1f}k req/s  "
              f"per-request {per_request/1e3:7.1f}k req/s  "
              f"speedup {batched / per_request:.2f}x")
    return {"workload": "zipf", **size, "results": rows}


def bench_filter(fast: bool, reps: int) -> dict:
    requests = 100_000 if fast else 500_000
    rows: dict[str, dict] = {}
    for label, kwargs in FILTER_WORKLOADS.items():
        trace = synthesize_cpu_trace(requests=requests, seed=9, **kwargs)

        def run(vectorized: bool) -> None:
            filter_trace(trace, cotson_hierarchy(), vectorized=vectorized)

        vec = requests / best_of(lambda: run(True), reps)
        ref = requests / best_of(lambda: run(False), reps)
        hierarchy = cotson_hierarchy()
        filter_trace(trace, hierarchy, vectorized=True)
        hit_ratio = (hierarchy.stats.l1_hits
                     / max(hierarchy.stats.cpu_accesses, 1))
        rows[label] = {
            "vectorized_aps": round(vec),
            "reference_aps": round(ref),
            "speedup": round(vec / ref, 3),
            "l1_hit_ratio": round(hit_ratio, 4),
        }
        print(f"  filter {label:18s}  vectorized {vec/1e3:7.1f}k acc/s  "
              f"reference {ref/1e3:7.1f}k acc/s  speedup {vec/ref:.2f}x  "
              f"(L1 hit {hit_ratio:.1%})")
    return {"requests": requests, "results": rows}


def bench_events(size: dict, reps: int) -> dict:
    trace = zipf_workload(**size, seed=2016)
    requests = len(trace)
    rows: dict[str, dict] = {}
    for name in EVENT_POLICIES:
        spec = policy_spec(name, size["pages"])

        def simulate(events) -> None:
            simulator = HybridMemorySimulator(
                spec, policy_factory(name), sanitize=False, events=events,
            )
            simulator.run(trace)

        off = requests / best_of(lambda: simulate(None), reps)
        on = requests / best_of(
            lambda: simulate(EventConfig(buckets=64)), reps)
        rows[name] = {
            "events_off_rps": round(off),
            "events_on_rps": round(on),
            "overhead": round(off / on, 3),
        }
        print(f"  events {name:10s}  off {off/1e3:7.1f}k req/s  "
              f"on {on/1e3:7.1f}k req/s  overhead {off / on:.2f}x")
    return {"workload": "zipf", **size, "results": rows}


def bench_single_tier(size: dict, reps: int) -> dict:
    """Report-only: the single-tier kernel on its best and worst case.

    ``streamcluster`` is the paper cell with the fewest faults per
    request; the uniform trace spreads ``size["requests"]`` requests
    evenly over ``size["pages"]`` pages, so a memory of 75 % of the
    footprint misses about a quarter of them.  Each row times the
    batched kernel against the per-request ``access`` loop on the full
    trace (no warm-up split) and records the miss ratio it ran at.
    """
    from repro.experiments.runspec import RunSpec

    rng = np.random.default_rng(2016)
    uniform = Trace(rng.integers(0, size["pages"], size["requests"]),
                    rng.random(size["requests"]) < 0.3, name="uniform")
    rows: dict[str, dict] = {}
    for label in ("streamcluster", "uniform"):
        row: dict = {}
        for name in SINGLE_TIER_POLICIES:
            if label == "uniform":
                trace, spec = uniform, policy_spec(name, size["pages"])
            else:
                run_spec = RunSpec.core(label, name)
                instance = run_spec.render()
                trace = instance.trace
                spec = run_spec.machine_spec(instance)

            def simulate(batch: bool, spec=spec, trace=trace, name=name):
                simulator = HybridMemorySimulator(
                    spec, policy_factory(name), sanitize=False,
                    batch=batch,
                )
                return simulator.run(trace)

            requests = len(trace)
            batched = requests / best_of(lambda: simulate(True), reps)
            per_request = requests / best_of(lambda: simulate(False), reps)
            miss_ratio = simulate(True).accounting.p_miss
            row["requests"] = requests
            row[name] = {
                "batch_rps": round(batched),
                "per_request_rps": round(per_request),
                "speedup": round(batched / per_request, 3),
                "miss_ratio": round(miss_ratio, 4),
            }
            print(f"  {label:13s} {name:9s}  batch {batched/1e3:7.1f}k "
                  f"req/s  per-request {per_request/1e3:7.1f}k req/s  "
                  f"speedup {batched / per_request:.2f}x  "
                  f"(miss {miss_ratio:.1%})")
        rows[label] = row
    return {"report_only": True, "results": rows}


def bench_pipeline(fast: bool, reps: int) -> dict:
    """Per-phase wall-clock of the run pipeline, one representative cell.

    Times the three phases an end-to-end run spends its time in —
    **workload render** (phased trace synthesis + machine sizing),
    **cache filter** (the CPU front-end's vectorized hierarchy replay
    over a same-order multicore trace), and **replay** (the simulator
    consuming the rendered trace) — so engine-level optimisations can
    be read against the pipeline costs they do *not* remove: a sampled
    or analytic engine only compresses the replay phase, and this
    section shows how much of a cell's wall-clock that actually is.
    Report-only (the regression gate floors the kernels above).
    """
    from repro.experiments.runspec import RunSpec

    scale = 0.005 if fast else 0.02
    spec = RunSpec.core("dedup", "proposed", request_scale=scale)
    render_seconds = best_of(spec.render, reps)
    instance = spec.render()
    replay_seconds = best_of(
        lambda: spec.execute(instance=instance), reps)
    filter_requests = len(instance.trace)
    cpu_trace = synthesize_cpu_trace(requests=filter_requests, seed=9)
    filter_seconds = best_of(
        lambda: filter_trace(cpu_trace, cotson_hierarchy(),
                             vectorized=True), reps)
    phases = {
        "workload_render": render_seconds,
        "cache_filter": filter_seconds,
        "replay": replay_seconds,
    }
    total = sum(phases.values())
    rows = {
        name: {"seconds": round(seconds, 4),
               "share": round(seconds / total, 4)}
        for name, seconds in phases.items()
    }
    for name, row in rows.items():
        print(f"  phase {name:16s} {row['seconds'] * 1e3:8.1f} ms "
              f"({row['share']:.0%})")
    return {
        "workload": "dedup",
        "policy": "proposed",
        "request_scale": scale,
        "requests": int(len(instance.trace)),
        "phases": rows,
    }


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def measured_floors(payload: dict) -> dict[str, float]:
    """Flatten a benchmark payload into gate-comparable numbers."""
    floors: dict[str, float] = {}
    for name, row in payload["policies"]["results"].items():
        floors[f"policy:{name}"] = row["batch_rps"]
    for label, row in payload["filter"]["results"].items():
        floors[f"filter:{label}"] = row["vectorized_aps"]
    for name, row in payload.get("events", {}).get("results", {}).items():
        floors[f"events-off:{name}"] = row["events_off_rps"]
    return floors


def check_gate(payload: dict, baseline: dict) -> list[str]:
    mode = "fast" if payload["fast"] else "full"
    floors = baseline.get("floors", {}).get(mode)
    if not floors:
        return [f"baseline has no floors for mode {mode!r}"]
    tolerance = baseline.get("tolerance", 0.7)
    measured_by_key = measured_floors(payload)
    failures = []
    for key, floor in floors.items():
        measured = measured_by_key.get(key)
        if measured is None:
            failures.append(f"{key}: missing from benchmark output")
        elif measured < tolerance * floor:
            failures.append(
                f"{key}: {measured:,.0f}/s is below {tolerance:.0%} of "
                f"the {floor:,.0f}/s baseline floor")
    return failures


def update_baseline(payload: dict, path: Path) -> None:
    baseline = {"note": "Conservative throughput floors (~0.5x of a dev "
                        "measurement); the gate fails below tolerance x "
                        "floor. Refresh with --update-baseline.",
                "tolerance": 0.7, "floors": {}}
    if path.exists():
        baseline.update(json.loads(path.read_text(encoding="utf-8")))
    mode = "fast" if payload["fast"] else "full"
    baseline.setdefault("floors", {})[mode] = {
        key: round(value * BASELINE_MARGIN)
        for key, value in measured_floors(payload).items()
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"updated {path} ({mode} floors)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced sizes (CI smoke run)")
    parser.add_argument("--reps", type=int, default=3, metavar="N",
                        help="best-of-N timing repetitions (default 3)")
    parser.add_argument("--output", default="BENCH_core.json",
                        help="result file (default: BENCH_core.json)")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="baseline floors for the regression gate")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline floors from this run")
    parser.add_argument("--no-gate", action="store_true",
                        help="measure and report only; skip the gate")
    args = parser.parse_args()

    size = FAST_SIZE if args.fast else FULL_SIZE
    print(f"policy grid: {len(POLICIES)} policies on zipf "
          f"({size['pages']} pages, {size['requests']:,} requests), "
          f"best of {args.reps}")
    policies = bench_policies(size, args.reps)
    print("cache filter:")
    filters = bench_filter(args.fast, args.reps)
    print("observability overhead:")
    events = bench_events(size, args.reps)
    print("single-tier LRU kernel (report-only):")
    single_tier = bench_single_tier(size, args.reps)
    print("pipeline phase breakdown:")
    pipeline = bench_pipeline(args.fast, args.reps)

    payload = {
        "benchmark": "core-kernel-throughput",
        "fast": args.fast,
        "reps": args.reps,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "policies": policies,
        "filter": filters,
        "events": events,
        "single_tier": single_tier,
        "pipeline": pipeline,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        update_baseline(payload, baseline_path)
        return 0
    if args.no_gate:
        return 0
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run with --update-baseline "
              "to create one", file=sys.stderr)
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = check_gate(payload, baseline)
    if failures:
        print("PERF REGRESSION GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    mode = "fast" if payload["fast"] else "full"
    print(f"perf gate OK ({mode} floors, "
          f"tolerance {baseline.get('tolerance', 0.7):.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
