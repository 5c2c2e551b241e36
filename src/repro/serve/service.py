"""The transport-free core of ``repro serve``.

A :class:`ReproService` is a resident façade over the experiment
stack: one shared :class:`~repro.experiments.executor.ParallelExecutor`
(and therefore one warm result cache and the byte-budgeted
rendered-workload and profile caches), one content-addressed
:class:`~repro.trace.TraceStore` for uploaded traces, and a tolerant
payload-to-:class:`~repro.experiments.runspec.RunSpec` translation so
HTTP clients can submit partial dicts instead of the full frozen
dataclass form.

Everything here is transport-agnostic — the HTTP layer
(:mod:`repro.serve.server`) and the tests drive the same methods.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.experiments.executor import (
    DEFAULT_CACHE_DIR,
    ParallelExecutor,
    ResultCache,
    cache_stats,
)
from repro.experiments.runspec import ENGINES, RunSpec
from repro.mmu.simulator import RunResult
from repro.obs.config import EventConfig
from repro.policies.registry import available_policies
from repro.trace.source import IterableTraceSource, SourceSpec, TraceStore
from repro.trace.source import parse_trace_line
from repro.workloads.parsec import WORKLOAD_NAMES


class ServiceError(ValueError):
    """A malformed or unsatisfiable request (HTTP 400, not a crash)."""


#: RunSpec fields a payload may set directly (everything identity).
_SPEC_FIELDS = frozenset((
    "workload", "policy", "request_scale", "footprint_scale", "seed",
    "policy_overrides", "spec_transform", "warmup_fraction", "events",
    "engine", "sampling", "source",
))


class ReproService:
    """Resident executor + trace store behind ``repro serve``.

    Parameters
    ----------
    jobs:
        Worker processes for the shared executor (``None``: all CPUs).
    cache:
        The persistent :class:`ResultCache`; ``None`` disables
        persistence (every run recomputes).
    trace_root:
        Spill directory for uploaded traces; defaults to
        ``<cache dir>/traces``.
    executor:
        A prebuilt :class:`ParallelExecutor` (the CLI passes the one
        its shared ``--jobs/--cache/--progress`` flags imply);
        overrides ``jobs``/``cache``.
    defaults:
        Server-side spec defaults (e.g. ``{"engine": "analytic"}``
        from ``repro serve --engine analytic``) applied to any payload
        that does not set the key itself.
    events_dir:
        When set (the shared ``--events PATH`` flag), every
        event-bearing result is also persisted there as
        ``{workload}-{policy}-{digest}.jsonl``.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        trace_root: str | Path | None = None,
        executor: ParallelExecutor | None = None,
        defaults: Mapping[str, Any] | None = None,
        events_dir: str | Path | None = None,
    ) -> None:
        if executor is None:
            executor = ParallelExecutor(jobs=jobs, cache=cache)
        if trace_root is None:
            base = (executor.cache.root if executor.cache is not None
                    else Path(DEFAULT_CACHE_DIR))
            trace_root = Path(base) / "traces"
        self.store = TraceStore(trace_root)
        self.executor = executor
        self.defaults = dict(defaults or {})
        unknown = set(self.defaults) - _SPEC_FIELDS
        if unknown:
            raise ValueError(
                f"unknown default spec field(s): {', '.join(sorted(unknown))}")
        self.events_dir = Path(events_dir) if events_dir is not None else None
        #: Sources ingested this process, by digest — lets payloads
        #: reference an uploaded trace as ``{"source": "<digest>"}``.
        self.sources: dict[str, SourceSpec] = {}
        self._lock = threading.Lock()
        # Operational uptime, not simulation state: never feeds a run.
        self._started = time.time()  # noqa: R002
        self._runs = 0
        self._ingests = 0

    # ------------------------------------------------------------------
    # Payload translation
    # ------------------------------------------------------------------
    def spec_from_payload(self, payload: Mapping[str, Any]) -> RunSpec:
        """Build a :class:`RunSpec` from a tolerant request dict.

        Unknown keys are rejected (a typo must not silently run the
        default grid point).  ``source`` may be a full
        :class:`SourceSpec` dict or just the digest string of a trace
        uploaded earlier this process; ``events`` may be ``true`` (a
        plain trace-collecting config), a dict, or absent.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("run payload must be a JSON object")
        unknown = set(payload) - _SPEC_FIELDS
        if unknown:
            raise ServiceError(
                f"unknown spec field(s): {', '.join(sorted(unknown))}")
        kwargs = dict(payload)
        for key, value in self.defaults.items():
            kwargs.setdefault(key, value)
        engine = kwargs.get("engine", "simulate")
        if engine not in ENGINES:
            raise ServiceError(
                f"unknown engine {engine!r}; known: {', '.join(ENGINES)}")
        source = kwargs.get("source")
        if isinstance(source, str):
            known = self.sources.get(source)
            if known is None:
                raise ServiceError(
                    f"unknown source digest {source!r}; upload the trace "
                    "through POST /traces first")
            kwargs["source"] = known
        events = kwargs.get("events")
        if events is True:
            kwargs["events"] = EventConfig(trace=True)
        if kwargs.get("source") is not None:
            kwargs.setdefault("workload", kwargs["source"].name
                              if isinstance(kwargs["source"], SourceSpec)
                              else kwargs["source"]["name"])
        if "workload" not in kwargs:
            raise ServiceError("spec needs a workload or a source")
        if kwargs.get("source") is None \
                and kwargs["workload"] not in WORKLOAD_NAMES:
            raise ServiceError(
                f"unknown workload {kwargs['workload']!r} (and no source "
                "given); known: " + ", ".join(WORKLOAD_NAMES))
        try:
            return RunSpec(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ServiceError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, payload: Mapping[str, Any],
            stream: bool = False) -> tuple[RunSpec, RunResult]:
        """Execute one spec (through the executor, so cache-first).

        ``stream=True`` forces event collection
        (``EventConfig(trace=True)``) so the caller has a JSONL event
        stream to forward — only meaningful for the simulate engine
        (the fast engines carry no event stream, which ``RunSpec``
        itself enforces).
        """
        spec = self.spec_from_payload(payload)
        if stream and spec.events is None:
            if spec.engine != "simulate":
                raise ServiceError(
                    f"engine={spec.engine!r} produces no event stream; "
                    "drop ?stream or use engine=\"simulate\"")
            spec = RunSpec.from_dict(
                {**spec.to_dict(), "events": {"trace": True}})
        results = self.run_specs([spec])
        result = results[0]
        if self.events_dir is not None and result.events is not None:
            self._persist_events(spec, result)
        return spec, result

    def _persist_events(self, spec: RunSpec, result: RunResult) -> None:
        events = result.events
        assert events is not None
        self.events_dir.mkdir(parents=True, exist_ok=True)  # type: ignore[union-attr]
        target = (self.events_dir  # type: ignore[operator]
                  / f"{spec.workload}-{spec.policy}-{spec.digest()}.jsonl")
        target.write_text(
            "".join(f"{line}\n" for line in events.trace_lines),
            encoding="utf-8",
        )

    def run_specs(self, specs: list[RunSpec]) -> list[RunResult]:
        """Batch entry: one executor submit under the service lock.

        The executor's merge bookkeeping is not thread-safe, so
        concurrent HTTP handlers serialise here; the pool still fans
        each batch out over all workers.
        """
        with self._lock:
            self._runs += len(specs)
            return self.executor.submit(specs)

    # ------------------------------------------------------------------
    # Trace ingest
    # ------------------------------------------------------------------
    def ingest(self, lines: Iterable[str], name: str | None = None,
               page_size: int | None = None) -> SourceSpec:
        """Ingest ``.trc``-format lines into the trace store.

        Parses, digests and spills in one streaming pass (peak memory
        is one chunk), registers the resulting :class:`SourceSpec`
        under its content digest, and returns it.  Re-uploading the
        same content converges on the same digest and file.
        """
        def pairs():
            for number, raw in enumerate(lines, start=1):
                parsed = parse_trace_line(raw, number)
                if parsed is not None:
                    yield parsed

        source = IterableTraceSource(
            pairs(), name=name or "upload",
            **({"page_size": page_size} if page_size else {}),
        )
        try:
            spec = self.store.add(source, name=name)
        except ValueError as exc:
            raise ServiceError(str(exc)) from exc
        with self._lock:
            self.sources[spec.digest] = spec
            self._ingests += 1
        return spec

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            executor = self.executor.stats.as_dict()
            return {
                "uptime_seconds": round(
                    time.time() - self._started, 3),  # noqa: R002
                "runs": self._runs,
                "ingests": self._ingests,
                "sources": sorted(self.sources),
                "jobs": self.executor.jobs,
                "cache": (
                    str(self.executor.cache.root)
                    if self.executor.cache is not None else None
                ),
                "executor": executor,
                # This process's rendered-workload and profile caches
                # (pool workers keep their own for one batch).
                "caches": cache_stats(),
            }

    def catalog(self) -> dict[str, list[str]]:
        return {
            "policies": list(available_policies()),
            "workloads": list(WORKLOAD_NAMES),
            "engines": list(ENGINES),
        }
