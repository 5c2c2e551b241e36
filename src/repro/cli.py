"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``workloads``
    List the PARSEC profiles (Table III) with their scaled sizes.
``policies``
    List the registered placement policies.
``characterize TRACE``
    Print Table III-style statistics for a trace file (.trc or .npz).
``simulate``
    Run one policy over a workload (or trace file) and print the
    paper's metrics.
``run``
    Execute a (workload x policy) grid of declarative run specs
    through the parallel executor (``--jobs N``) with the persistent
    result cache, and print one summary row per run.
``figure ID``
    Regenerate one paper figure (fig1, fig2a..fig4c) as ASCII bars.
``tables``
    Regenerate Tables II-IV.
``sweep``
    Run a threshold / window / DRAM-ratio sweep.
``events``
    Run workloads with the observability bus attached and print the
    per-interval time series, the beneficial-migration split and an
    exact end-of-run reconstruction check; ``--events PATH`` dumps the
    raw JSONL streams.
``lint``
    Run the project-specific static-analysis rules (R002-R015,
    including the dataflow-based units and typestate checks and, under
    ``--deep``, the interprocedural purity/escape tier) over source
    paths; exits nonzero on findings.  ``--format json|github`` for
    machine-readable output, ``--fix`` for the mechanical rewrites.
``profile``
    cProfile one (workload, policy) run — workload rendering excluded
    from the profile — and print the hottest functions.

The grid commands (``run``, ``figure``, ``claims``, ``sweep``,
``events``, ``profile``) share one flag vocabulary via a common
argparse parent: ``--jobs``, ``--cache``/``--no-cache``,
``--cache-dir``, ``--progress``, ``--sanitize``, ``--events PATH`` and
``--seed`` mean the same thing everywhere they appear.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.experiments.claims import claims_hold, verify_claims
from repro.experiments.executor import (
    DEFAULT_CACHE_DIR,
    ParallelExecutor,
    ResultCache,
    collect_events,
)
from repro.experiments.figures import FIGURE_BUILDERS
from repro.experiments.report import render_figure, render_table
from repro.experiments.runner import CORE_POLICIES, ExperimentRunner
from repro.experiments.runspec import ENGINES, RunSpec
from repro.experiments.sweep import dram_ratio_sweep, threshold_sweep, window_sweep
from repro.experiments.tables import table_ii, table_iii, table_iv
from repro.memory.accounting import AccessAccounting
from repro.memory.endurance import compute_nvm_writes
from repro.memory.metrics import compute_performance
from repro.memory.power import compute_power
from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import RunResult, simulate
from repro.obs.config import EventConfig
from repro.obs.summary import EventSummary
from repro.policies.registry import available_policies, policy_factory
from repro.sampling import SamplingConfig
from repro.trace.source import materialize, open_trace_source
from repro.trace.stats import characterize
from repro.trace.trace import Trace
from repro.workloads.parsec import (
    DEFAULT_REQUEST_SCALE,
    PROFILES,
    WORKLOAD_NAMES,
    parsec_workload,
)


def _load_trace(path: str) -> Trace:
    return materialize(open_trace_source(path))


def _resolve_workload(args) -> tuple[Trace, HybridMemorySpec, float, float]:
    """Trace + spec + gap + warmup from --workload or --trace."""
    if args.trace:
        trace = _load_trace(args.trace)
        spec = HybridMemorySpec.for_footprint(max(trace.unique_pages, 2))
        return trace, spec, 0.0, args.warmup
    instance = parsec_workload(args.workload, seed=args.seed)
    return (instance.trace, instance.spec, instance.inter_request_gap,
            instance.warmup_fraction if args.warmup < 0 else args.warmup)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_workloads(args) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        profile = PROFILES[name]
        rows.append((
            name,
            f"{profile.working_set_kb:,}",
            f"{profile.total_requests:,}",
            f"{100 * profile.write_ratio:.1f}%",
            profile.description,
        ))
    print(render_table(
        ["workload", "WSS (KB)", "requests (paper)", "writes",
         "traits"],
        rows,
        title="PARSEC profiles (paper Table III)",
    ))
    return 0


def _cmd_policies(args) -> int:
    for name in available_policies():
        print(name)
    return 0


def _cmd_characterize(args) -> int:
    trace = _load_trace(args.trace)
    stats = characterize(trace)
    rows = [
        ("name", stats.name),
        ("requests", f"{stats.total_requests:,}"),
        ("reads", f"{stats.read_requests:,} ({stats.read_ratio:.1%})"),
        ("writes", f"{stats.write_requests:,} ({stats.write_ratio:.1%})"),
        ("distinct pages", f"{stats.unique_pages:,}"),
        ("working set", f"{stats.working_set_kb:,} KB"),
        ("accesses/page", f"{stats.accesses_per_page:.1f}"),
        ("top-decile share", f"{stats.top_decile_share:.2f}"),
        ("median reuse distance", f"{stats.median_reuse_distance:.0f}"),
        ("cold-page fraction", f"{stats.cold_page_fraction:.2f}"),
        ("max burst", f"{stats.max_burst_length}"),
    ]
    print(render_table(["statistic", "value"], rows,
                       title=f"characterisation of {args.trace}"))
    return 0


def _cmd_simulate(args) -> int:
    trace, spec, gap, warmup = _resolve_workload(args)
    if args.policy.startswith("dram-only"):
        spec = spec.as_dram_only()
    elif args.policy.startswith("nvm-only"):
        spec = spec.as_nvm_only()
    result = simulate(
        trace, spec, policy_factory(args.policy),
        inter_request_gap=gap, warmup_fraction=max(warmup, 0.0),
        sanitize=True if args.sanitize else None,
    )
    accounting = result.accounting
    rows = [
        ("workload", result.workload),
        ("policy", result.policy),
        ("requests (measured)", f"{accounting.total_requests:,}"),
        ("hit ratio", f"{accounting.hit_ratio:.4f}"),
        ("DRAM / NVM hit share",
         f"{accounting.p_hit_dram:.3f} / {accounting.p_hit_nvm:.3f}"),
        ("page faults", f"{accounting.page_faults:,}"),
        ("promotions (NVM->DRAM)", f"{accounting.migrations_to_dram:,}"),
        ("demotions (DRAM->NVM)", f"{accounting.migrations_to_nvm:,}"),
        ("AMAT", f"{result.amat * 1e9:.1f} ns"),
        ("memory time (no fault term)",
         f"{result.performance.memory_time * 1e9:.1f} ns"),
        ("APPR", f"{result.appr * 1e9:.2f} nJ"),
        ("  static / dynamic / migration",
         f"{result.power.static * 1e9:.2f} / "
         f"{(result.power.dynamic_hit + result.power.fault_fill) * 1e9:.2f}"
         f" / {result.power.migration * 1e9:.2f} nJ"),
        ("NVM writes", f"{result.nvm_writes.total:,}"),
        ("max page wear", f"{result.endurance.max_page_writes:,} writes"),
    ]
    print(render_table(["metric", "value"], rows,
                       title="simulation result"))
    return 0


class _RecordingExecutor(ParallelExecutor):
    """The ``--events`` collection point of ``figure``, ``claims`` and
    ``sweep``, whose experiment code hands back metrics only: keeps the
    ``(spec, result)`` pairs of every batch it executes until the
    command exits.  The resident ``serve`` never records."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.pairs: list[tuple[RunSpec, RunResult]] = []

    def submit(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        specs = list(specs)
        results = super().submit(specs)
        self.pairs.extend(zip(specs, results))
        return results


def _executor_options(args) -> dict[str, Any]:
    """Executor arguments of the shared grid flags (--jobs/--cache).

    ``--sanitize`` is applied here as the ``REPRO_SANITIZE``
    environment default, which the simulator reads in-process and
    worker processes inherit.  ``--cache``/``--no-cache`` override the
    command's own default (``cache_default``, set per subcommand).
    """
    if getattr(args, "sanitize", False):
        os.environ[SANITIZE_ENV] = "1"
    enabled = (args.cache if args.cache is not None
               else getattr(args, "cache_default", False))
    cache = ResultCache(args.cache_dir) if enabled else None
    progress = None
    if getattr(args, "progress", False):
        def progress(done: int, total: int, spec) -> None:
            print(f"  [{done}/{total}] {spec.label()}", file=sys.stderr)
    return {"jobs": args.jobs, "cache": cache, "progress": progress}


def _executor_from(args) -> ParallelExecutor:
    """The executor the grid commands share."""
    return ParallelExecutor(**_executor_options(args))


def _event_config(args) -> EventConfig | None:
    """The event collection the shared ``--events PATH`` flag implies."""
    if not getattr(args, "events", None):
        return None
    return EventConfig(trace=True)


def _engine_conflict(args) -> bool:
    """Report (to stderr) the invalid grid-flag combinations.

    Only the simulator replays the trace, so ``--events`` has nothing
    to collect under the analytic or sampled engines; and
    ``--sample-rate`` only means something to the sampled engine.
    Catching both here gives a usage error instead of the ``RunSpec``
    constructor's ``ValueError`` traceback.
    """
    engine = getattr(args, "engine", "simulate")
    if engine != "simulate" and getattr(args, "events", None):
        print(f"--engine {engine} cannot collect event streams; drop "
              "--events or use --engine simulate", file=sys.stderr)
        return True
    if getattr(args, "sample_rate", None) is not None and engine != "sampled":
        print(f"--sample-rate requires --engine sampled (got --engine "
              f"{engine})", file=sys.stderr)
        return True
    return False


def _sampling_config(args) -> SamplingConfig | None:
    """The sampling configuration the ``--sample-rate`` flag implies
    (``None`` leaves the sampled engine on its defaults)."""
    rate = getattr(args, "sample_rate", None)
    if rate is None:
        return None
    return SamplingConfig(rate=rate)


def _write_event_traces(
    path_arg: str,
    pairs: Iterable[tuple[RunSpec, EventSummary | None]],
) -> None:
    """Dump collected JSONL event streams under ``--events PATH``.

    A single stream with a ``.jsonl`` destination is written to that
    file; otherwise ``PATH`` is a directory and each run gets
    ``{workload}-{policy}-{digest}.jsonl``.
    """
    traced = [(spec, summary) for spec, summary in pairs
              if summary is not None and summary.trace_lines]
    if not traced:
        print("no event traces collected (events were not enabled "
              "with trace capture)", file=sys.stderr)
        return
    path = Path(path_arg)
    if len(traced) == 1 and path.suffix == ".jsonl":
        targets = [path]
    else:
        path.mkdir(parents=True, exist_ok=True)
        targets = [
            path / f"{spec.workload}-{spec.policy}-{spec.digest()[:8]}.jsonl"
            for spec, _ in traced
        ]
    for (spec, summary), target in zip(traced, targets):
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as stream:
            for line in summary.trace_lines:
                stream.write(line)
                stream.write("\n")
        print(f"wrote {len(summary.trace_lines):,} events "
              f"({spec.label()}) to {target}")


def _cmd_run(args) -> int:
    if _engine_conflict(args):
        return 2
    executor = _executor_from(args)
    workloads = args.workload or list(WORKLOAD_NAMES)
    policies = args.policy or list(CORE_POLICIES)
    specs = [
        RunSpec.core(workload, policy, seed=args.seed,
                     events=_event_config(args), engine=args.engine,
                     sampling=_sampling_config(args))
        for workload in workloads
        for policy in policies
    ]
    results = executor.submit(specs)
    rows = []
    for spec, result in zip(specs, results):
        summary = result.summary()
        rows.append((
            spec.workload,
            spec.policy,
            f"{summary['hit_ratio']:.4f}",
            f"{summary['amat_ns']:.1f}",
            f"{summary['appr_nj']:.2f}",
            f"{int(summary['nvm_writes']):,}",
            f"{int(summary['migrations_to_dram']):,}",
            f"{int(summary['migrations_to_nvm']):,}",
        ))
    print(render_table(
        ["workload", "policy", "hit ratio", "AMAT (ns)", "APPR (nJ)",
         "NVM writes", "promotions", "demotions"],
        rows,
        title=f"{len(specs)} runs, {executor.jobs} worker(s)",
    ))
    stats = executor.stats
    print(f"\nsimulated {stats.simulated}, cache hits {stats.cache_hits}, "
          f"cache misses {stats.cache_misses}")
    if args.events:
        _write_event_traces(args.events, zip(specs, (r.events
                                                     for r in results)))
    return 0


def _cmd_figure(args) -> int:
    if _engine_conflict(args):
        return 2
    executor = _RecordingExecutor(**_executor_options(args))
    runner = ExperimentRunner(seed=args.seed, executor=executor,
                              events=_event_config(args),
                              engine=args.engine,
                              sampling=_sampling_config(args))
    if args.id == "all":
        ids: Sequence[str] = sorted(FIGURE_BUILDERS)
    elif args.id in FIGURE_BUILDERS:
        ids = [args.id]
    else:
        known = ", ".join(sorted(FIGURE_BUILDERS)) + ", all"
        print(f"unknown figure {args.id!r}; known: {known}",
              file=sys.stderr)
        return 2
    for index, figure_id in enumerate(ids):
        if index:
            print()
        print(render_figure(FIGURE_BUILDERS[figure_id](runner)))
    if args.events:
        _write_event_traces(args.events, collect_events(executor.pairs))
    return 0


def _cmd_tables(args) -> int:
    print(render_table(["Component", "Configuration"], table_ii(),
                       title="Table II"))
    print()
    print(render_table(
        ["Memory", "Latency r/w (ns)", "Power r/w (nJ)",
         "Static (J/GB.s)"],
        table_iv(), title="Table IV",
    ))
    print()
    rows = table_iii(seed=args.seed)
    print(render_table(
        ["Workload", "WSS KB (paper)", "write% paper", "write% sim",
         "pages sim"],
        [
            (row.workload, f"{row.paper_wss_kb:,}",
             f"{100 * row.paper_write_ratio:.1f}",
             f"{100 * row.measured_write_ratio:.1f}",
             f"{row.measured_wss_pages:,}")
            for row in rows
        ],
        title="Table III",
    ))
    return 0


def _cmd_claims(args) -> int:
    if _engine_conflict(args):
        return 2
    executor = _RecordingExecutor(**_executor_options(args))
    runner = ExperimentRunner(seed=args.seed, executor=executor,
                              events=_event_config(args),
                              engine=args.engine,
                              sampling=_sampling_config(args))
    results = verify_claims(runner)
    print(render_table(
        ["id", "ok", "claim", "paper", "measured"],
        [
            (r.claim_id, "PASS" if r.holds else "FAIL", r.statement,
             r.paper_value, r.measured)
            for r in results
        ],
        title="Paper-claim audit",
    ))
    passed = sum(1 for r in results if r.holds)
    print(f"\n{passed}/{len(results)} claims hold")
    if args.events:
        _write_event_traces(args.events, collect_events(executor.pairs))
    return 0 if claims_hold(results) else 1


def _cmd_lint(args) -> int:
    # Imported here: the lint machinery (rules, flow CFGs, call graph)
    # costs every other command's start-up for nothing.
    from repro.analysis.cli import list_rules, run_lint

    if args.list_rules:
        return list_rules()
    return run_lint(args.paths, select=args.select, deep=args.deep,
                    perf=args.perf, fmt=args.format, fix=args.fix,
                    baseline=args.baseline,
                    update_baseline=args.update_baseline,
                    statistics=args.statistics)


def _cmd_profile(args) -> int:
    import cProfile
    import pstats

    if _engine_conflict(args):
        return 2
    if args.sanitize:
        os.environ[SANITIZE_ENV] = "1"
    spec = RunSpec.core(args.workload, args.policy, seed=args.seed,
                        events=_event_config(args), engine=args.engine,
                        sampling=_sampling_config(args))
    # Render outside the profiled region: trace synthesis is numpy-bound
    # and would drown out the simulation kernel we care about.
    instance = spec.render()
    profiler = cProfile.Profile()
    profiler.enable()
    result = spec.execute(instance=instance)
    profiler.disable()

    requests = result.accounting.total_requests
    print(f"profiled {spec.label()}: {requests:,} requests\n")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.events:
        _write_event_traces(args.events, [(spec, result.events)])
    return 0


def _cmd_sweep(args) -> int:
    if _engine_conflict(args):
        return 2
    executor = _RecordingExecutor(**_executor_options(args))
    events = _event_config(args)
    sampling = _sampling_config(args)
    if args.kind == "threshold":
        points = threshold_sweep(args.workload, seed=args.seed,
                                 executor=executor, events=events,
                                 engine=args.engine, sampling=sampling)
    elif args.kind == "window":
        points = window_sweep(args.workload, seed=args.seed,
                              executor=executor, events=events,
                              engine=args.engine, sampling=sampling)
    else:
        points = dram_ratio_sweep(args.workload, seed=args.seed,
                                  executor=executor, events=events,
                                  engine=args.engine, sampling=sampling)
    print(render_table(
        [points[0].parameter, "memory time (ns)", "APPR (nJ)",
         "promotions", "demotions", "NVM writes"],
        [
            (f"{point.value:g}", f"{point.memory_time_ns:.1f}",
             f"{point.appr_nj:.2f}", point.migrations_to_dram,
             point.migrations_to_nvm, f"{point.nvm_writes:,}")
            for point in points
        ],
        title=f"{args.kind} sweep on {args.workload}",
    ))
    if args.events:
        _write_event_traces(args.events, collect_events(executor.pairs))
    return 0


def _cmd_serve(args) -> int:
    """Resident multi-tenant service over the shared grid flags.

    The executor (``--jobs/--cache/--cache-dir/--progress/--sanitize``)
    is exactly the one the batch commands use, so the server answers
    warm queries from the same persistent result cache with zero
    cold-start; ``--engine``/``--seed``/``--sample-rate`` become
    server-side spec defaults applied to payloads that do not set
    them; ``--events PATH`` additionally persists every event-bearing
    run's JSONL stream under PATH.
    """
    from repro.serve import ReproService, serve

    defaults: dict = {"seed": args.seed}
    if args.engine != "simulate":
        defaults["engine"] = args.engine
    sampling = _sampling_config(args)
    if sampling is not None:
        if args.engine != "sampled":
            print(f"--sample-rate requires --engine sampled (got --engine "
                  f"{args.engine})", file=sys.stderr)
            return 2
        defaults["sampling"] = sampling
    service = ReproService(
        executor=_executor_from(args),
        trace_root=args.trace_dir,
        defaults=defaults,
        events_dir=args.events,
    )
    print(f"repro serve listening on http://{args.host}:{args.port} "
          f"(jobs={service.executor.jobs}, cache="
          f"{'on' if service.executor.cache is not None else 'off'})",
          file=sys.stderr)
    serve(args.host, args.port, service)
    print("repro serve: shut down cleanly", file=sys.stderr)
    return 0


def _reconstruct(result: RunResult) -> tuple[bool, str]:
    """Re-derive the end-of-run metrics from the interval deltas.

    The aggregator's per-interval accounting deltas must sum back to
    the run's final counters bit-for-bit, and the paper models
    re-evaluated on that sum must equal the run's own AMAT/APPR/wear —
    the ``repro events`` acceptance check.
    """
    summary = result.events
    assert summary is not None
    totals: dict[str, int] = {}
    wear_totals: dict[str, int] = {}
    for row in summary.series:
        for name, value in row.accounting.items():
            totals[name] = totals.get(name, 0) + value
        for name in ("fault_fill_writes", "migration_writes",
                     "request_writes"):
            wear_totals[name] = wear_totals.get(name, 0) + row.wear[name]
    if totals != result.accounting.snapshot():
        return False, "interval accounting deltas != final counters"
    accounting = AccessAccounting(**totals)
    performance = compute_performance(accounting, result.spec)
    power = compute_power(accounting, result.spec, performance,
                          inter_request_gap=summary.inter_request_gap)
    nvm_writes = compute_nvm_writes(accounting, result.spec)
    checks = [
        ("AMAT", performance.amat, result.performance.amat),
        ("APPR", power.appr, result.power.appr),
        ("NVM writes", nvm_writes.total, result.nvm_writes.total),
    ]
    for name, rebuilt, final in checks:
        if rebuilt != final:
            return False, f"{name}: rebuilt {rebuilt!r} != final {final!r}"
    for name, value in wear_totals.items():
        if value != getattr(result.wear, name):
            return False, (f"wear {name}: rebuilt {value} != "
                           f"final {getattr(result.wear, name)}")
    return True, (f"AMAT {performance.amat * 1e9:.3f} ns, "
                  f"APPR {power.appr * 1e9:.3f} nJ, "
                  f"NVM writes {nvm_writes.total:,}")


def _cmd_events(args) -> int:
    if args.engine != "simulate":
        print("the events report replays the simulator; --engine "
              f"{args.engine} has no event stream to observe",
              file=sys.stderr)
        return 2
    executor = _executor_from(args)
    policies = args.policy or ["clock-dwf", "proposed"]
    config = EventConfig(buckets=args.intervals, trace=bool(args.events))
    specs = [
        RunSpec.core(args.workload, policy, seed=args.seed,
                     request_scale=args.request_scale, events=config)
        for policy in policies
    ]
    results = executor.submit(specs)
    status = 0
    for ordinal, (spec, result) in enumerate(zip(specs, results)):
        summary = result.events
        if summary is None:
            print(f"{spec.label()}: no event summary collected",
                  file=sys.stderr)
            status = 1
            continue
        if ordinal:
            print()
        print(render_table(
            ["interval", "requests", "AMAT (ns)", "APPR (nJ)",
             "NVM writes", "promotions", "demotions", "faults"],
            [
                (f"{row.start:,}-{row.end:,}", f"{row.requests:,}",
                 f"{row.amat * 1e9:.1f}", f"{row.appr * 1e9:.2f}",
                 f"{row.nvm_writes:,}", f"{row.migrations_to_dram:,}",
                 f"{row.migrations_to_nvm:,}", f"{row.page_faults:,}")
                for row in summary.series
            ],
            title=f"{spec.label()}: {len(summary.series)} intervals of "
                  f"{summary.interval:,} requests",
        ))
        ledger = summary.migrations
        if ledger is not None and ledger.promotions:
            print(f"promotions {ledger.promotions:,}: "
                  f"{ledger.beneficial:,} beneficial / "
                  f"{ledger.non_beneficial:,} non-beneficial "
                  f"({ledger.beneficial_ratio:.1%}), "
                  f"wasted {ledger.wasted_seconds * 1e6:.2f} us")
        ok, detail = _reconstruct(result)
        if ok:
            print(f"reconstruction: exact ({detail})")
        else:
            print(f"reconstruction: FAILED ({detail})")
            status = 1
    if args.events:
        _write_event_traces(args.events, zip(specs, (r.events
                                                     for r in results)))
    return status


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid DRAM-NVM migration-scheme reproduction "
                    "(Salkhordeh & Asadi, DATE 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list PARSEC profiles") \
        .set_defaults(func=_cmd_workloads)
    sub.add_parser("policies", help="list registered policies") \
        .set_defaults(func=_cmd_policies)

    p = sub.add_parser("characterize",
                       help="Table III statistics for a trace file")
    p.add_argument("trace", help=".trc or .npz trace file")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("simulate", help="run one policy on a workload")
    p.add_argument("--policy", default="proposed")
    p.add_argument("--workload", default="dedup",
                   choices=list(WORKLOAD_NAMES))
    p.add_argument("--trace", default=None,
                   help="trace file instead of a PARSEC workload")
    p.add_argument("--warmup", type=float, default=-1.0,
                   help="warm-up fraction (default: workload's own)")
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--sanitize", action="store_true",
                   help="assert simulation invariants after every request")
    p.set_defaults(func=_cmd_simulate)

    # One flag vocabulary for every grid command; a command's own
    # cache preference goes through ``cache_default`` so that
    # --cache/--no-cache stay explicit overrides everywhere.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: all CPUs)")
    grid.add_argument(
        "--cache", dest="cache", action="store_true", default=None,
        help="persist results under the cache directory")
    grid.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="disable the persistent result cache")
    grid.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})")
    grid.add_argument(
        "--progress", action="store_true",
        help="print per-run progress to stderr")
    grid.add_argument(
        "--sanitize", action="store_true",
        help="assert simulation invariants during every run")
    grid.add_argument(
        "--events", default=None, metavar="PATH",
        help="collect event streams and write JSONL trace(s) to PATH "
             "(a .jsonl file for a single run, else a directory)")
    grid.add_argument("--seed", type=int, default=2016)
    grid.add_argument(
        "--engine", choices=list(ENGINES), default="simulate",
        help="execution engine: 'simulate' replays the trace through "
             "the event-driven simulator, 'analytic' evaluates the "
             "closed-form model (repro.model), 'sampled' replays a "
             "1-in-K page sample and scales the metrics back up "
             "(repro.sampling)")
    grid.add_argument(
        "--sample-rate", type=int, default=None, metavar="K",
        help="sample 1 page in K under --engine sampled (default: "
             "the engine's built-in rate)")

    p = sub.add_parser(
        "run", parents=[grid],
        help="execute a workload x policy grid through the parallel "
             "executor")
    p.add_argument("--workload", action="append",
                   choices=list(WORKLOAD_NAMES), metavar="NAME",
                   help="workload(s) to run (repeatable; default: all 12)")
    p.add_argument("--policy", action="append", metavar="NAME",
                   help="policy(ies) to run (repeatable; default: the "
                        "four core policies)")
    p.set_defaults(func=_cmd_run, cache_default=True)

    p = sub.add_parser("figure", parents=[grid],
                       help="regenerate a paper figure")
    p.add_argument("id", help="fig1, fig2a..fig4c, or 'all'")
    p.set_defaults(func=_cmd_figure, cache_default=False)

    p = sub.add_parser("tables", help="regenerate Tables II-IV")
    p.add_argument("--seed", type=int, default=2016)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("claims", parents=[grid],
                       help="audit every paper claim against the "
                            "regenerated figures")
    p.set_defaults(func=_cmd_claims, cache_default=False)

    p = sub.add_parser("sweep", parents=[grid], help="parameter sweep")
    p.add_argument("kind", choices=("threshold", "window", "dram-ratio"))
    p.add_argument("--workload", default="raytrace",
                   choices=list(WORKLOAD_NAMES))
    p.set_defaults(func=_cmd_sweep, cache_default=False)

    p = sub.add_parser(
        "events", parents=[grid],
        help="per-interval event-stream report: time series, "
             "beneficial-migration split, exact reconstruction check")
    p.add_argument("workload", choices=list(WORKLOAD_NAMES))
    p.add_argument("--policy", action="append", metavar="NAME",
                   help="policy(ies) to observe (repeatable; default: "
                        "clock-dwf and proposed)")
    p.add_argument("--intervals", type=int, default=16, metavar="N",
                   help="number of time-series buckets (default: 16)")
    p.add_argument("--request-scale", type=float,
                   default=DEFAULT_REQUEST_SCALE, metavar="F",
                   help="workload request-count scale (default: "
                        f"{DEFAULT_REQUEST_SCALE:g})")
    p.set_defaults(func=_cmd_events, cache_default=False)

    p = sub.add_parser(
        "profile", parents=[grid],
        help="cProfile one (workload, policy) run and print hot spots")
    p.add_argument("--workload", default="dedup",
                   choices=list(WORKLOAD_NAMES))
    p.add_argument("--policy", default="proposed")
    p.add_argument("--sort", default="cumulative",
                   choices=("cumulative", "tottime", "calls"),
                   help="pstats sort order (default: cumulative)")
    p.add_argument("--top", type=int, default=25, metavar="N",
                   help="number of rows to print (default: 25)")
    p.set_defaults(func=_cmd_profile, cache_default=False)

    p = sub.add_parser(
        "serve", parents=[grid],
        help="resident HTTP service: submit RunSpecs and trace "
             "uploads, stream event JSONL, answer warm queries from "
             "the result cache")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8023,
                   help="bind port (default: 8023)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="spill directory for uploaded traces "
                        "(default: <cache-dir>/traces)")
    p.set_defaults(func=_cmd_serve, cache_default=True)

    p = sub.add_parser(
        "lint",
        help="run the project lint rules (R002-R018) over source paths",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--select", nargs="+", metavar="RULE",
                   help="restrict to the given rule ids (e.g. R010 R003)")
    p.add_argument("--deep", action="store_true",
                   help="add the interprocedural tier (R013-R015: worker "
                        "purity, sync-before-emit, digest stability)")
    p.add_argument("--perf", action="store_true",
                   help="add the hot-path performance tier (R016-R018: "
                        "per-iteration allocation, unhoisted lookups, "
                        "numpy scalar boxing/dtype churn)")
    p.add_argument("--baseline", metavar="PATH",
                   help="ratchet against a baseline file: findings "
                        "recorded there are tolerated, new ones fail")
    p.add_argument("--update-baseline", action="store_true",
                   help="re-record the baseline from the current "
                        "findings and exit clean")
    p.add_argument("--statistics", action="store_true",
                   help="print per-tier timings and per-rule finding "
                        "counts to stderr")
    p.add_argument("--format", choices=["text", "json", "github"],
                   default="text",
                   help="output format (default: text)")
    p.add_argument("--fix", action="store_true",
                   help="apply mechanical fixes (R003 mutable defaults, "
                        "R005 magic device numbers) before linting")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly the
        # way well-behaved unix tools do.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
