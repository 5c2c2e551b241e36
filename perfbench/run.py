"""End-to-end benchmark of the paper audit and of ``repro serve``.

    python3 perfbench/run.py --workload audit-exact --seed 1 \\
        --seconds 30 --trace 0

Workloads:

``audit-exact``
    ``repro claims`` under ``engine="simulate"``: the 48 cells of the
    Section V grid, cold (fresh interpreter, empty result cache), then
    warm (fresh interpreter, same cache), repeated.
``audit-approx``
    The same under ``engine="analytic"`` and then ``engine="sampled"``,
    each in its own fresh interpreter with its own empty cache, scored
    against the exact grid of ``reference.json``.
``serve-mix``
    One ``repro serve --jobs 1`` driven in a closed loop by two client
    threads: warm re-queries, cold runs on fresh spec seeds, streamed
    cold runs and trace uploads.

``--trace 0`` measures with no tracing and reports the end-to-end
metrics; ``--trace 1`` runs the same work once untraced and once
through the timed executor and reports the per-layer metrics, the
tracing overhead and the attribution coverage.  Every reply is checked
against ``reference.json``; the last line of standard output is the
JSON result, the lines before it a readable report, and the full
report (spans included) goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    OUT_DIR,
    REFERENCE,
    ROOT,
    SCRATCH,
    load_reference,
    median,
    percentile,
    spec_seed,
    use_source,
)
from spans import self_times

CHILD_TIMEOUT_S = 170
#: Audit repetitions continue until ``--seconds`` have passed, but never
#: stop below this many.
MIN_REPS = 3
#: Spans of the engine calls that compute a result (``engine.exec_s``).
ENGINE_SPANS = ("mmu.replay", "model.profile", "model.estimate",
                "sampling.sample", "obs.events_replay", "trace.source_replay")
#: Spans outside the timed work (set-up, probes); they do not count
#: towards the attribution coverage.
UNTIMED_SPANS = ("experiments.code_version", "probe.events_off_replay")


class Tally:
    """Attempted and failed operations, with the failures' reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)


# ----------------------------------------------------------------------
# Audits
# ----------------------------------------------------------------------
def run_child(script: str, *args: str) -> dict:
    """Run one of the benchmark's child scripts in a fresh interpreter
    and return the JSON object it prints last."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / script), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} failed:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spawn_audit(engine: str, seed: int, cache_dir: Path,
                trace: bool = False) -> dict:
    """One audit in a fresh interpreter; ``setup_s`` is spawn until the
    runner and executor are built."""
    start = time.monotonic()
    report = run_child("audit.py", "--engine", engine, "--seed", str(seed),
                       "--cache-dir", str(cache_dir),
                       *(["--trace"] if trace else []))
    report["setup_s"] = report["ready"] - start
    return report


def cold_and_warm(engine: str, seed: int, scratch: Path, tag: str,
                  trace: bool = False) -> tuple[dict, dict]:
    cache_dir = scratch / f"cache-{engine}-{tag}"
    cold = spawn_audit(engine, seed, cache_dir, trace)
    warm = spawn_audit(engine, seed, cache_dir, trace)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return cold, warm


def check_audit(tally: Tally, engine: str, seed: int, cold: dict,
                warm: dict, reference: dict, baseline: dict | None) -> None:
    """Exact cells against the reference digests; approximate cells
    against the first repetition (they must repeat exactly).  Warm
    cells must equal the cold ones (cache round trip)."""
    expected = reference["cells"][str(seed)]
    tally.check(cold["stats"]["cache_hits"] == 0
                and warm["stats"]["cache_misses"] == 0,
                f"{engine}: cold audit hit or warm audit missed the cache")
    for key in expected:
        digest = cold["cells"].get(key, {}).get("digest")
        if engine == "simulate":
            want = expected[key]["digest"]
        else:
            want = (baseline or cold)["cells"][key]["digest"]
        tally.check(digest == want, f"{engine} {key}@{seed}: wrong result")
        tally.check(warm["cells"].get(key, {}).get("digest") == digest,
                    f"{engine} {key}@{seed}: warm result differs from cold")
    failing = sorted(k for k, holds in cold["claims"].items() if not holds)
    if engine == "simulate":
        want_failing = reference["claims_failed_exact"][str(seed)]
    else:
        want_failing = sorted(
            k for k, holds in (baseline or cold)["claims"].items()
            if not holds)
    tally.check(failing == want_failing,
                f"{engine}: claims failing {failing}, expected {want_failing}")


def accuracy(cold: dict, seed: int, reference: dict) -> list[float]:
    """Relative errors (%) of one approximate audit against the exact
    grid, over cells x {AMAT, APPR, NVM writes}; metrics whose exact
    value is 0 (NVM writes of DRAM-only cells) have no relative error
    and are left out."""
    errors = []
    for key, exact in reference["cells"][str(seed)].items():
        for metric in ("amat", "appr", "nvm_writes"):
            if exact[metric]:
                estimate = cold["cells"][key][metric]
                errors.append(abs(estimate - exact[metric])
                              / abs(exact[metric]) * 100)
    return errors


def audit_engines(workload: str) -> tuple[str, ...]:
    return (("simulate",) if workload == "audit-exact"
            else ("analytic", "sampled"))


def run_audit(workload: str, seed: int, seconds: int, scratch: Path,
              reference: dict) -> dict:
    engines = audit_engines(workload)
    cells_seed = spec_seed(seed)
    tally = Tally()
    setups, work, rss = [], [], []
    cold_ms, warm_ms = [], []
    per_engine: dict[str, list[dict]] = {engine: [] for engine in engines}
    deadline = time.monotonic() + seconds
    rep = 0
    while rep < MIN_REPS or time.monotonic() < deadline:
        rep_work, rep_rss = 0.0, 0.0
        for engine in engines:
            cold, warm = cold_and_warm(engine, cells_seed, scratch, str(rep))
            runs = per_engine[engine]
            check_audit(tally, engine, cells_seed, cold, warm, reference,
                        runs[0] if runs else None)
            runs.append(cold)
            setups += [cold["setup_s"], warm["setup_s"]]
            cold_ms += cold["latencies_ms"]
            warm_ms += warm["latencies_ms"]
            rep_work += cold["audit_s"]
            rep_rss = max(rep_rss, cold["maxrss_mb"])
        work.append(rep_work)
        rss.append(rep_rss)
        rep += 1

    metrics = {
        "setup_s": (median(setups), "s"),
        "work_s": (median(work), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    named = {
        "cold_p50_ms": (median(cold_ms), "ms"),
        "cold_p90_ms": (percentile(cold_ms, 0.90), "ms"),
        "warm_p50_ms": (median(warm_ms), "ms"),
    }
    claims_failed = 0
    errors: list[float] = []
    for engine in engines:
        first = per_engine[engine][0]
        failing = sorted(k for k, ok in first["claims"].items() if not ok)
        claims_failed += len(failing)
        name = "audit_s" if engine == "simulate" else f"audit_{engine}_s"
        named[name] = (median(r["audit_s"] for r in per_engine[engine]), "s")
        named[f"claims_failing.{engine}"] = (" ".join(failing) or "none",
                                             "ids")
        if engine != "simulate":
            errors += accuracy(first, cells_seed, reference)
        if engine == "sampled":
            cells = first["cells"].values()
            named["sampling.exact_cells"] = (
                sum(c["effective_rate"] == 1 for c in cells), "count")
    named["claims_failed"] = (claims_failed, "count")
    if errors:
        named["max_rel_err_pct"] = (max(errors), "%")
        named["mean_rel_err_pct"] = (sum(errors) / len(errors), "%")
    named["failed_frac"] = (len(tally.problems) / tally.attempted, "ratio")
    samples = {"audits": rep * len(engines), "cold_cells": len(cold_ms),
               "warm_cells": len(warm_ms), "setups": len(setups),
               "spec_seed": cells_seed, "work_s": work}
    return {"metrics": metrics, "named": named, "samples": samples,
            "tally": tally}


def trace_audit(workload: str, seed: int, seconds: int, scratch: Path,
                reference: dict) -> dict:
    """Untraced and traced cold+warm audits of every engine of the
    workload, alternated until ``seconds`` have passed.  Layer times are
    per repetition (averaged over the traced ones); layer counts must
    repeat exactly."""
    engines = audit_engines(workload)
    cells_seed = spec_seed(seed)
    tally = Tally()
    untraced: list[float] = []
    traced: list[float] = []
    spans: list[dict] = []
    counts: dict[str, int] | None = None
    hits = lookups = 0
    simulated: dict[str, int] = {}
    baseline: dict[str, dict] = {}
    deadline = time.monotonic() + seconds
    while not traced or time.monotonic() < deadline:
        rep = len(traced)
        plain_s = traced_s = 0.0
        rep_counts: dict[str, int] = {}
        for engine in engines:
            cold, warm = cold_and_warm(engine, cells_seed, scratch,
                                       f"plain-{rep}")
            check_audit(tally, engine, cells_seed, cold, warm, reference,
                        baseline.get(engine))
            baseline.setdefault(engine, cold)
            tcold, twarm = cold_and_warm(engine, cells_seed, scratch,
                                         f"traced-{rep}", trace=True)
            check_audit(tally, engine, cells_seed, tcold, twarm, reference,
                        baseline[engine])
            plain_s += cold["audit_s"] + warm["audit_s"]
            traced_s += tcold["audit_s"] + twarm["audit_s"]
            for report in (tcold, twarm):
                spans += report["spans"]
                for name, value in report["counts"].items():
                    rep_counts[name] = rep_counts.get(name, 0) + value
                hits += report["stats"]["cache_hits"]
                lookups += (report["stats"]["cache_hits"]
                            + report["stats"]["cache_misses"])
            if rep == 0:
                for cell in tcold["cells"].values():
                    for name in ("dram_hits", "nvm_hits", "faults",
                                 "migrations"):
                        simulated[name] = simulated.get(name, 0) + cell[name]
        tally.check(counts is None or rep_counts == counts,
                    "layer counts differ between repetitions")
        counts = rep_counts
        untraced.append(plain_s)
        traced.append(traced_s)
    own = {name: value / len(traced)
           for name, value in self_times(spans).items()}
    layers = layer_metrics(own, counts, median(untraced), median(traced),
                           hits / lookups, UNTIMED_SPANS
                           + ("experiments.serialise",))
    named = {}
    named["experiments.figures_s"] = (own.get("experiments.claims", 0.0), "s")
    for name, value in simulated.items():
        named[f"mmu.{name}"] = (value, "count")
    if "mmu.replay" in own:
        named["mmu.replay_s"] = (own["mmu.replay"], "s")
        named["mmu.replay_req_per_s"] = (
            counts["mmu.replay_requests"] / own["mmu.replay"], "1/s")
    if "model.profile" in own:
        named["model.profile_s"] = (own["model.profile"], "s")
        named["model.estimate_s"] = (own["model.estimate"], "s")
        named["model.profiles"] = (counts["model.profiles"], "count")
    if "sampling.sample" in own:
        named["sampling.sample_s"] = (own["sampling.sample"], "s")
        named["sampling.replayed_frac"] = (
            counts["sampling.replayed_requests"]
            / counts["sampling.total_requests"], "ratio")
        named["sampling.exact_cells"] = (counts["sampling.exact_cells"],
                                         "count")
    samples = {"spec_seed": cells_seed, "repetitions": len(traced),
               "untraced_s": untraced, "traced_s": traced}
    return {"metrics": layers, "named": named, "spans": spans,
            "samples": samples, "tally": tally}


def layer_metrics(own: dict[str, float], counts: dict, untraced_s: float,
                  traced_s: float, hit_ratio: float,
                  untimed: tuple[str, ...]) -> dict:
    """The per-layer metrics every workload reports, from self times
    per repetition (``own``) and the untraced and traced totals."""
    attributed = sum(value for name, value in own.items()
                     if name not in untimed)
    return {
        "workloads.render_s": (own.get("workloads.render", 0.0), "s"),
        "workloads.requests": (counts.get("workloads.requests", 0), "count"),
        "engine.exec_s": (sum(own.get(name, 0.0) for name in ENGINE_SPANS),
                          "s"),
        "experiments.cache_get_s": (own.get("experiments.cache_get", 0.0),
                                    "s"),
        "experiments.cache_put_s": (own.get("experiments.cache_put", 0.0),
                                    "s"),
        "experiments.serialise_s": (own.get("experiments.serialise", 0.0),
                                    "s"),
        "experiments.code_version_s": (
            own.get("experiments.code_version", 0.0), "s"),
        "experiments.cache_hit_ratio": (hit_ratio, "ratio"),
        "tracing.overhead_pct": ((traced_s / untraced_s - 1) * 100, "%"),
        "tracing.coverage_pct": (attributed / untraced_s * 100, "%"),
    }


# ----------------------------------------------------------------------
# Serve
# ----------------------------------------------------------------------
SETUP_BOOTS = 3


def boot_servers(scratch: Path):
    """Boot ``SETUP_BOOTS`` servers, keep the last; returns it with every
    boot time."""
    from serve_load import Server

    boots = []
    for index in range(SETUP_BOOTS - 1):
        server = Server(scratch / f"boot-{index}")
        boots.append(server.boot_s)
        server.stop()
    server = Server(scratch / "server")
    boots.append(server.boot_s)
    return server, boots


def drive(server, seed: int, blocks: int, tracer=None):
    from repro.workloads.parsec import WORKLOAD_NAMES
    from serve_load import build_schedule, digest_reply, run_phase

    priming, mixed = build_schedule(seed, blocks, WORKLOAD_NAMES)
    start = time.monotonic()
    records = run_phase(server.client, priming, tracer=tracer)
    records += run_phase(server.client, mixed, tracer=tracer)
    wall_s = time.monotonic() - start
    for record in records:
        digest_reply(record)
    return priming + mixed, records, wall_s


def check_serve(tally: Tally, items, records, stats: dict,
                reference: dict) -> None:
    from serve_load import check_records

    problems = check_records(items, records, reference)
    tally.attempted += len(items)
    tally.problems += problems
    kinds = [item["kind"] for item in items]
    misses = len(kinds) - kinds.count("warm")
    executor = stats["executor"]
    tally.check(executor["cache_hits"] == kinds.count("warm")
                and executor["cache_misses"] == misses,
                f"server cache counters {executor} do not match the "
                f"schedule ({kinds.count('warm')} warm, {misses} cold)")


def latencies(records, kind: str, field: str = "latency_ms") -> list[float]:
    return [r[field] for r in records
            if r["kind"] == kind and "error" not in r and field in r]


def run_serve(seed: int, seconds: int, scratch: Path,
              reference: dict) -> dict:
    from serve_load import blocks_for

    blocks = blocks_for(seconds)
    tally = Tally()
    server, boots = boot_servers(scratch)
    try:
        items, records, wall_s = drive(server, seed, blocks)
        stats = server.client.stats()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    check_serve(tally, items, records, stats, reference)
    warm = latencies(records, "warm")
    cold = latencies(records, "cold")
    ttfe = latencies(records, "stream", "ttfe_ms")
    metrics = {
        "setup_s": (median(boots), "s"),
        "work_s": (wall_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    requests = len(items) + sum(r["kind"] == "upload" for r in records)
    named = {
        "serve_rps": (requests / wall_s, "req/s"),
        "warm_p50_ms": (median(warm), "ms"),
        "warm_p99_ms": (percentile(warm, 0.99), "ms"),
        "cold_p50_ms": (median(cold), "ms"),
        "cold_p90_ms": (percentile(cold, 0.90), "ms"),
        "stream_ttfe_p50_ms": (median(ttfe), "ms"),
        "stream_total_p50_ms": (median(latencies(records, "stream")), "ms"),
        "upload_p50_ms": (median(latencies(records, "upload", "upload_ms")),
                          "ms"),
        "upload_run_p50_ms": (median(latencies(records, "upload", "run_ms")),
                              "ms"),
        "failed_frac": (len(tally.problems) / tally.attempted, "ratio"),
    }
    samples = {"requests": requests, "warm": len(warm), "cold": len(cold),
               "stream": len(ttfe),
               "upload": len(latencies(records, "upload")),
               "boots": len(boots), "blocks": blocks, "clients": 2}
    return {"metrics": metrics, "named": named, "samples": samples,
            "tally": tally}


def spawn_probe(seed: int, blocks: int, workdir: Path, trace: bool) -> dict:
    return run_child("service_probe.py", "--seed", str(seed),
                     "--blocks", str(blocks), "--workdir", str(workdir),
                     *(["--trace"] if trace else []))


def trace_serve(seed: int, seconds: int, scratch: Path,
                reference: dict) -> dict:
    """One schedule block through HTTP (client spans per request kind),
    then the same block in-process, untraced and traced in turn until
    ``seconds`` have passed.  Layer times are per block (averaged over
    the traced passes); layer counts must repeat exactly."""
    from spans import Tracer

    deadline = time.monotonic() + seconds
    tally = Tally()
    tracer = Tracer("clients")
    server, boots = boot_servers(scratch)
    try:
        items, records, _ = drive(server, seed, 1, tracer=tracer)
        stats = server.client.stats()
    finally:
        server.stop()
    check_serve(tally, items, records, stats, reference)
    untraced: list[float] = []
    traced_walls: list[float] = []
    spans: list[dict] = []
    service_ms: dict[str, list[float]] = {}
    counts = None
    while not traced_walls or time.monotonic() < deadline:
        rep = len(traced_walls)
        plain = spawn_probe(seed, 1, scratch / f"plain-{rep}", trace=False)
        traced = spawn_probe(seed, 1, scratch / f"traced-{rep}", trace=True)
        for probe in (plain, traced):
            check_serve(tally, items, probe["records"],
                        {"executor": probe["stats"]}, reference)
        tally.check(traced["event_lines"] == plain["event_lines"],
                    "event line count differs between in-process passes")
        tally.check(counts is None or traced["counts"] == counts,
                    "layer counts differ between repetitions")
        counts = traced["counts"]
        spans += traced["spans"]
        untraced.append(plain["wall_s"])
        traced_walls.append(traced["wall_s"])
        for kind, values in plain["service_ms"].items():
            service_ms.setdefault(kind, []).extend(values)
    reps = len(traced_walls)
    own = {name: value / reps for name, value in self_times(spans).items()}
    probe_stats = traced["stats"]
    lookups = probe_stats["cache_hits"] + probe_stats["cache_misses"]
    layers = layer_metrics(own, counts, median(untraced),
                           median(traced_walls),
                           probe_stats["cache_hits"] / lookups, UNTIMED_SPANS)
    named = {}
    named["serve.boot_s"] = (median(boots), "s")
    service_total = sum(sum(v) for v in service_ms.values()) / reps
    client_total = sum(r["latency_ms"] for r in records)
    named["serve.service_ms"] = (service_total / len(records), "ms")
    named["serve.transport_ms"] = (
        (client_total - service_total) / len(records), "ms")
    for kind, values in service_ms.items():
        named[f"serve.service_ms.{kind}"] = (median(values), "ms")
        named[f"serve.transport_ms.{kind}"] = (
            median(latencies(records, kind)) - median(values), "ms")
    named["mmu.replay_s"] = (own.get("mmu.replay", 0.0), "s")
    if own.get("mmu.replay"):
        named["mmu.replay_req_per_s"] = (
            counts["mmu.replay_requests"] / own["mmu.replay"], "1/s")
    named["trace.ingest_s"] = (own.get("trace.ingest", 0.0), "s")
    if own.get("trace.ingest"):
        named["trace.ingest_mb_per_s"] = (
            traced["ingested_bytes"] / 1e6 / own["trace.ingest"], "MB/s")
    named["trace.source_replay_s"] = (own.get("trace.source_replay", 0.0),
                                      "s")
    named["obs.events_replay_s"] = (own.get("obs.events_replay", 0.0), "s")
    named["obs.events_off_replay_s"] = (
        own.get("probe.events_off_replay", 0.0), "s")
    named["obs.event_lines"] = (traced["event_lines"], "count")
    samples = {"blocks": 1, "requests": len(records), "repetitions": reps,
               "untraced_s": untraced, "traced_s": traced_walls}
    return {"metrics": layers, "named": named, "spans": spans + tracer.spans,
            "samples": samples, "tally": tally}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
WORKLOADS = ("audit-exact", "audit-approx", "serve-mix")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    use_source()
    if not REFERENCE.is_file():
        print(f"perfbench: missing {REFERENCE}", file=sys.stderr)
        return 2
    reference = load_reference()
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-mix" and args.trace:
            body = trace_serve(args.seed, args.seconds, scratch, reference)
        elif args.workload == "serve-mix":
            body = run_serve(args.seed, args.seconds, scratch, reference)
        elif args.trace:
            body = trace_audit(args.workload, args.seed, args.seconds,
                               scratch, reference)
        else:
            body = run_audit(args.workload, args.seed, args.seconds, scratch,
                             reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    return report(args, body)


def report(args, body: dict) -> int:
    tally: Tally = body["tally"]
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"samples: {json.dumps(body['samples'])}")
    for title, metrics in (("bounded in BENCHMARK.json", body["metrics"]),
                           ("report", body["named"])):
        print(f"{title}:")
        for name, (value, unit) in metrics.items():
            shown = f"{value:.4f}" if isinstance(value, float) else str(value)
            print(f"  {name:32s} {shown:>14s} {unit}")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "samples": body["samples"],
        "metrics": as_json({**body["metrics"], **body["named"]}),
        "problems": tally.problems, "spans": body.get("spans", []),
    }) + "\n", encoding="utf-8")
    print(f"full report: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": len(tally.problems),
        "metrics": as_json(body["metrics"]),
    }))
    return 0


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
