#!/usr/bin/env python3
"""Analytic-engine throughput and accuracy -> BENCH_model.json.

Two measurements, one gate:

* **Sweep throughput** — configurations/second through a
  read x write threshold sweep of the proposed policy, evaluated once
  with ``engine="analytic"`` (the closed-form estimator in
  :mod:`repro.model`) and once with ``engine="simulate"``.  The
  analytic numbers separate the one-time workload-profile build from
  the per-configuration marginal cost: a sweep pays the profile once
  and the Markov stage per point, which is where the orders-of-
  magnitude advantage over trace replay comes from.  An end-to-end
  row times the whole cold sweep (profile build plus every
  configuration) against simulating every configuration.
* **Cross-validation smoke** — the full Fig. 4 grid (twelve PARSEC
  workloads x four core policies) evaluated both ways at the fast
  scale, checked against the same accuracy contract
  ``tests/test_model_validation.py`` asserts (DESIGN.md section 14).

The **gate** fails (exit 1) when the analytic sweep drops below the
speedup floor (100x at the full scale, 10x with ``--fast``, where the
traces are too short for simulation cost to dominate) or when any
grid cell exceeds its error bound.

Run:  python benchmarks/bench_model.py [--fast] [--reps N]
                                       [--output BENCH_model.json]
                                       [--no-gate]
"""

import argparse
import gc
import json
import os
import platform
import sys
import time

from repro.experiments.runner import CORE_POLICIES
from repro.experiments.runspec import RunSpec
from repro.workloads.parsec import WORKLOAD_NAMES

#: Sweep workload and threshold grid (the paper's sensitivity range).
SWEEP_WORKLOAD = "dedup"
THRESHOLDS = (1, 2, 4, 8, 16, 32, 64)

#: Request scales: full (local measurement) and --fast (CI smoke).
FULL_SCALE = 0.005
FAST_SCALE = 0.0005

#: Cross-validation runs at the fast scale in both modes (48 cells
#: of full-scale simulation would dominate the benchmark's runtime).
VALIDATION_SCALE = FAST_SCALE

#: Speedup floors for the gate.
FULL_SPEEDUP_FLOOR = 100.0
FAST_SPEEDUP_FLOOR = 10.0

#: Accuracy contract, mirrored from tests/test_model_validation.py.
HIT_RATIO_POINTS = 0.5
AMAT_RELATIVE = 0.30
APPR_RELATIVE = 0.40
NVM_WRITES_RELATIVE = 0.45
NVM_WRITES_FLOOR = 1_000
MEAN_AMAT_RELATIVE = 0.05
MEAN_APPR_RELATIVE = 0.08


def timed(fn) -> float:
    """Process time of one ``fn()`` with the GC paused."""
    gc.collect()
    gc.disable()
    started = time.process_time()
    fn()
    elapsed = time.process_time() - started
    gc.enable()
    return elapsed


def bench_sweep(scale: float, reps: int, simulated_points: int) -> dict:
    """Threshold-sweep configs/s: analytic vs simulate."""
    from repro.model import estimator

    overrides = [
        {"read_threshold": read, "write_threshold": write}
        for read in THRESHOLDS
        for write in THRESHOLDS
    ]
    instance = RunSpec.core(
        SWEEP_WORKLOAD, "proposed", request_scale=scale
    ).render()

    def run(engine: str, configs: list) -> None:
        for config in configs:
            RunSpec.core(
                SWEEP_WORKLOAD, "proposed", request_scale=scale,
                engine=engine, policy_overrides=config,
            ).execute(instance=instance)

    def cold(configs: list) -> float:
        estimator._PROFILES.clear()
        estimator._MEMBERSHIP.clear()
        return timed(lambda: run("analytic", configs))

    profile_seconds = min(cold(overrides[:1]) for _ in range(reps))
    sweep_seconds = min(cold(overrides) for _ in range(reps))
    marginal = min(
        timed(lambda: run("analytic", overrides)) / len(overrides)
        for _ in range(reps)
    )
    simulated = overrides[:simulated_points]
    per_simulation = min(
        timed(lambda: run("simulate", simulated)) / len(simulated)
        for _ in range(reps)
    )
    analytic_cps = 1.0 / marginal
    simulate_cps = 1.0 / per_simulation
    speedup = per_simulation / marginal
    end_to_end = per_simulation * len(overrides) / sweep_seconds
    print(f"  sweep {SWEEP_WORKLOAD} ({len(overrides)} configs, "
          f"scale {scale:g}, {len(instance.trace.pages):,} requests)")
    print(f"    analytic  {analytic_cps:10,.0f} configs/s "
          f"({marginal * 1e3:.2f} ms marginal, "
          f"{profile_seconds:.2f}s one-time profile)")
    print(f"    simulate  {simulate_cps:10,.1f} configs/s "
          f"({per_simulation * 1e3:.1f} ms/config)")
    print(f"    speedup   {speedup:10,.0f}x marginal, "
          f"{end_to_end:,.1f}x end to end ({sweep_seconds:.2f}s cold "
          f"sweep incl. profile vs "
          f"{per_simulation * len(overrides):.1f}s simulated)")
    return {
        "workload": SWEEP_WORKLOAD,
        "request_scale": scale,
        "requests": int(len(instance.trace.pages)),
        "configs": len(overrides),
        "profile_build_seconds": round(profile_seconds, 4),
        "analytic_configs_per_second": round(analytic_cps, 1),
        "simulate_configs_per_second": round(simulate_cps, 2),
        "speedup": round(speedup, 1),
        "end_to_end_sweep_seconds": round(sweep_seconds, 4),
        "end_to_end_speedup": round(end_to_end, 1),
    }


def cross_validate(scale: float) -> dict:
    """Fig. 4 grid both ways; per-cell errors plus bound violations."""
    cells = []
    violations = []
    amat_errors = []
    appr_errors = []
    for workload in WORKLOAD_NAMES:
        for policy in CORE_POLICIES:
            sim = RunSpec.core(
                workload, policy, request_scale=scale
            ).execute()
            ana = RunSpec.core(
                workload, policy, request_scale=scale, engine="analytic"
            ).execute()
            hit_delta = abs(
                ana.accounting.hit_ratio - sim.accounting.hit_ratio
            )
            amat_error = (
                abs(ana.performance.amat - sim.performance.amat)
                / sim.performance.amat
            )
            appr_error = abs(ana.power.appr - sim.power.appr) / sim.power.appr
            writes_delta = abs(ana.nvm_writes.total - sim.nvm_writes.total)
            writes_bound = max(
                NVM_WRITES_RELATIVE * sim.nvm_writes.total, NVM_WRITES_FLOOR
            )
            cell = f"{workload}/{policy}"
            if hit_delta > HIT_RATIO_POINTS / 100:
                violations.append(f"{cell}: hit-ratio off {hit_delta:.4f}")
            if amat_error > AMAT_RELATIVE:
                violations.append(f"{cell}: AMAT error {amat_error:.1%}")
            if appr_error > APPR_RELATIVE:
                violations.append(f"{cell}: APPR error {appr_error:.1%}")
            if writes_delta > writes_bound:
                violations.append(
                    f"{cell}: NVM writes off {writes_delta:,.0f}"
                )
            amat_errors.append(amat_error)
            appr_errors.append(appr_error)
            cells.append({
                "workload": workload,
                "policy": policy,
                "hit_ratio_delta": round(hit_delta, 6),
                "amat_relative_error": round(amat_error, 4),
                "appr_relative_error": round(appr_error, 4),
                "nvm_writes_delta": int(writes_delta),
            })
    mean_amat = sum(amat_errors) / len(amat_errors)
    mean_appr = sum(appr_errors) / len(appr_errors)
    if mean_amat > MEAN_AMAT_RELATIVE:
        violations.append(f"grid-mean AMAT error {mean_amat:.1%}")
    if mean_appr > MEAN_APPR_RELATIVE:
        violations.append(f"grid-mean APPR error {mean_appr:.1%}")
    print(f"  {len(cells)} cells: mean AMAT error {mean_amat:.1%} "
          f"(max {max(amat_errors):.1%}), mean APPR error "
          f"{mean_appr:.1%} (max {max(appr_errors):.1%}), "
          f"{len(violations)} bound violation(s)")
    return {
        "request_scale": scale,
        "mean_amat_relative_error": round(mean_amat, 4),
        "max_amat_relative_error": round(max(amat_errors), 4),
        "mean_appr_relative_error": round(mean_appr, 4),
        "max_appr_relative_error": round(max(appr_errors), 4),
        "violations": violations,
        "cells": cells,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale (CI smoke run)")
    parser.add_argument("--reps", type=int, default=3, metavar="N",
                        help="best-of-N timing repetitions (default 3)")
    parser.add_argument("--output", default="BENCH_model.json",
                        help="result file (default: BENCH_model.json)")
    parser.add_argument("--no-gate", action="store_true",
                        help="measure and report only; skip the gate")
    args = parser.parse_args()

    scale = FAST_SCALE if args.fast else FULL_SCALE
    simulated_points = 4 if not args.fast else 8
    print("sweep throughput:")
    sweep = bench_sweep(scale, args.reps, simulated_points)
    print("cross-validation (Fig. 4 grid, both engines):")
    validation = cross_validate(VALIDATION_SCALE)

    payload = {
        "benchmark": "analytic-engine",
        "fast": args.fast,
        "reps": args.reps,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "sweep": sweep,
        "validation": validation,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.no_gate:
        return 0
    floor = FAST_SPEEDUP_FLOOR if args.fast else FULL_SPEEDUP_FLOOR
    failures = list(validation["violations"])
    if sweep["speedup"] < floor:
        failures.append(
            f"sweep speedup {sweep['speedup']:.0f}x below the "
            f"{floor:.0f}x floor"
        )
    if failures:
        print("MODEL GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"model gate OK (speedup {sweep['speedup']:,.0f}x >= "
          f"{floor:.0f}x, all error bounds hold)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
