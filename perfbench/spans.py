"""In-memory spans and the timed executor of the traced runs.

Spans are recorded from the benchmark's own code around calls into the
program's public functions; nothing in the program is patched.  A span
carries its name, start, end, parent and run id, stays in memory, and
is written out with the run's report.  A layer's self time is its
spans' duration minus the part covered by their child spans.

:class:`TracingExecutor` stands in for ``ParallelExecutor`` wherever
the program accepts an executor (``ExperimentRunner(executor=...)``,
``ReproService(executor=...)``).  It does what the serial executor
does -- cache lookup, render once per workload, execute, cache write --
with one span around each call, and splits the engines into their
public stages: ``profile_workload``/``estimate_run`` for the analytic
engine, ``sample_spec`` for the sampled one, ``RunSpec.execute`` for
replay.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder; thread-safe, one parent stack per thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"name": name, "start": time.monotonic(), "end": None,
                  "parent": stack[-1]["id"] if stack else None,
                  "run": self.run_id}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span."""
        with self._lock:
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": None, "run": self.run_id,
                               "id": len(self.spans)})

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name."""
    child_time: dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[(span["run"], span["parent"])] += (
                span["end"] - span["start"])
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        own = span["end"] - span["start"]
        totals[span["name"]] += own - child_time[(span["run"], span["id"])]
    return dict(totals)


class TracingExecutor:
    """Serial executor with a span around every layer call."""

    jobs = 1

    def __init__(self, tracer: Tracer, cache=None) -> None:
        # Imported here: the program's src/ joins the path at run time.
        from repro.experiments.executor import ExecutorStats
        from repro.experiments.runspec import RunSpec
        from repro.model import estimate_run, profile_workload
        from repro.sampling.engine import sample_spec

        self._key = RunSpec.key
        self._estimate_run = estimate_run
        self._profile_workload = profile_workload
        self._sample_spec = sample_spec
        self.tracer = tracer
        self.cache = cache
        self.stats = ExecutorStats()
        self._instances: dict = {}
        self._profiles: dict = {}

    def submit(self, specs):
        specs = list(specs)
        self.stats.submitted += len(specs)
        span = self.tracer.span
        done: dict = {}
        pending = []
        for spec in dict.fromkeys(specs):
            cached = None
            if self.cache is not None:
                with span("experiments.cache_get"):
                    cached = self.cache.get(spec)
            if cached is not None:
                self.stats.cache_hits += 1
                done[spec] = cached
            else:
                if self.cache is not None:
                    self.stats.cache_misses += 1
                pending.append(spec)
        for spec in sorted(pending, key=self._key):
            result = self._execute(spec)
            self.stats.simulated += 1
            if self.cache is not None:
                with span("experiments.cache_put"):
                    self.cache.put(spec, result)
            done[spec] = result
        return [done[spec] for spec in specs]

    # ------------------------------------------------------------------
    def _instance(self, spec):
        key = (spec.workload, spec.request_scale, spec.footprint_scale,
               spec.seed,
               spec.source.digest if spec.source is not None else None)
        instance = self._instances.get(key)
        if instance is None:
            with self.tracer.span("workloads.render"):
                instance = spec.render()
            self._instances[key] = instance
            self.tracer.count("workloads.requests", len(instance.trace))
        return instance

    def _execute(self, spec):
        span, count = self.tracer.span, self.tracer.count
        if spec.engine == "simulate" and spec.source is not None:
            with span("trace.source_replay"):
                return spec.execute()
        instance = self._instance(spec)
        if spec.engine == "analytic":
            warmup = (instance.warmup_fraction if spec.warmup_fraction is None
                      else spec.warmup_fraction)
            key = (spec.workload, spec.request_scale, spec.footprint_scale,
                   spec.seed, warmup)
            profile = self._profiles.get(key)
            if profile is None:
                with span("model.profile"):
                    profile = self._profile_workload(
                        instance, warmup_fraction=warmup)
                self._profiles[key] = profile
                count("model.profiles")
            with span("model.estimate"):
                return self._estimate_run(
                    profile, spec.machine_spec(instance),
                    policy=spec.policy,
                    overrides=dict(spec.policy_overrides) or None,
                    inter_request_gap=instance.inter_request_gap,
                    workload=spec.workload)
        if spec.engine == "sampled":
            with span("sampling.sample"):
                result = self._sample_spec(spec, instance=instance)
            summary = result.sampling
            count("sampling.replayed_requests", summary.sampled_requests)
            count("sampling.total_requests", summary.total_requests)
            count("sampling.exact_cells", summary.effective_rate == 1)
            return result
        if spec.events is not None:
            with span("obs.events_replay"):
                return spec.execute(instance=instance)
        with span("mmu.replay"):
            result = spec.execute(instance=instance)
        count("mmu.replay_requests", len(instance.trace))
        return result
