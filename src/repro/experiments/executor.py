"""Parallel experiment execution over :class:`RunSpec` batches.

``submit([specs]) -> [RunResult]`` is the one interface every consumer
of simulation results goes through (the experiment runner, the sweeps,
the CLI, the examples).  Beneath it sit two layers:

* :class:`ParallelExecutor` — fans specs out over a ``multiprocessing``
  worker pool (``jobs`` workers, default ``os.cpu_count()``).  Each
  worker process renders a workload once per scale/seed while it stays
  in a byte-budgeted LRU (:class:`~repro.memo.ByteLRU`), results are
  merged deterministically in input order regardless of completion
  order, progress is reported through a callback as results arrive,
  and worker failures are retried in the parent and surfaced as
  :class:`ExecutorError` *after* the remaining specs complete — a
  crash never deadlocks or starves the batch.
* :class:`ResultCache` — a content-addressed JSON cache under
  ``.repro-cache/``, keyed by ``RunSpec.digest()`` plus a code-version
  fingerprint (a hash over the simulation-relevant source trees), so
  results persist across processes and invalidate themselves when the
  simulator, policies, models or workload generators change.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import repro
from repro.experiments.runspec import RunSpec
from repro.memo import ByteLRU
from repro.mmu.simulator import RunResult
from repro.obs.summary import EventSummary
from repro.workloads.parsec import WorkloadInstance

#: Default location of the persistent result cache.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Packages whose source determines simulation results; a change in any
#: of them invalidates every cached result.
_VERSIONED_SUBPACKAGES = (
    "trace", "workloads", "memory", "mmu", "core", "policies", "obs",
    "model", "sampling",
)
_VERSIONED_MODULES = ("experiments/runspec.py",)

#: Memoised (stat signature, content hash) of the last fingerprint
#: computation.  The signature — (relative path, mtime_ns, size) per
#: versioned file — is cheap to recompute (a stat per file, no reads),
#: so the expensive content hash reruns only when some file actually
#: changed.  Unlike a plain once-per-process memo this stays correct
#: in long-lived processes that edit source between submits (notebook
#: kernels, watch loops, the executor's own tests).
_code_version_memo: tuple[tuple, str] | None = None  # repro: worker-local

StatSignature = tuple[tuple[str, int, int], ...]


def _versioned_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for sub in _VERSIONED_SUBPACKAGES:
        files.extend((root / sub).rglob("*.py"))
    files.extend(
        path for rel in _VERSIONED_MODULES
        if (path := root / rel).is_file()
    )
    return sorted(files)


def _stat_signature(root: Path, files: Sequence[Path]) -> StatSignature:
    signature = []
    for path in files:
        stat = path.stat()
        signature.append(
            (str(path.relative_to(root)), stat.st_mtime_ns, stat.st_size)
        )
    return tuple(signature)


def code_version(root: str | Path | None = None) -> str:
    """Fingerprint of the simulation-relevant source.

    Memoised against a stat signature of the versioned tree: calls
    after the first cost one ``stat`` per file and re-hash content only
    when a file's path set, mtime or size changed.  ``root`` overrides
    the package directory (tests point it at a scratch tree); only the
    default root participates in the memo.
    """
    global _code_version_memo
    explicit_root = root is not None
    base = Path(root) if explicit_root else Path(repro.__file__).parent
    files = _versioned_files(base)
    signature = _stat_signature(base, files)
    if not explicit_root and _code_version_memo is not None:
        cached_signature, cached_version = _code_version_memo
        if cached_signature == signature:
            return cached_version
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(base)).encode())
        digest.update(path.read_bytes())
    version = digest.hexdigest()[:16]
    if not explicit_root:
        _code_version_memo = (signature, version)
    return version


# ----------------------------------------------------------------------
# Persistent result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed on-disk cache of :class:`RunResult` objects.

    One JSON file per (spec digest, code version); the stored payload
    carries the spec itself so cache files are self-describing and
    auditable.  Corrupt or stale files read as misses.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR,
                 version: str | None = None) -> None:
        self.root = Path(root)
        self.version = version if version is not None else code_version()

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.digest()}-{self.version}.json"

    def get(self, spec: RunSpec) -> RunResult | None:
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("version") != self.version:
                return None
            return RunResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, spec: RunSpec, result: RunResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": self.version,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        path = self.path_for(spec)
        # Unique temp file + atomic rename: concurrent writers of the
        # same spec (several executors, a resident server's threads)
        # never interleave bytes — each rename is all-or-nothing and
        # the last writer wins with a complete file.  A shared
        # ``path + ".tmp"`` name would race: two writers would append
        # into one file and rename a corrupt mixture.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=path.stem + "-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Byte budget of the rendered-workload cache.  One default-scale grid
#: (the twelve PARSEC workloads at one seed) is 780,109 requests at
#: 9 B each (int64 page, bool write flag), about 7.0 MB; 24 MiB holds
#: three and a half grids.  An audit's grid never evicts, and a
#: resident server keeps its current and previous cold seeds plus the
#: seed of its streamed runs.
INSTANCE_BUDGET_BYTES = 24 * 2**20

#: Per-process rendered-workload cache: with ``fork`` each worker keeps
#: its own copy, so a workload is rendered once per worker while it
#: stays within the budget, however many specs share it.
_INSTANCES: ByteLRU[WorkloadInstance] = ByteLRU(INSTANCE_BUDGET_BYTES)  # repro: worker-local


def _rendered(spec: RunSpec) -> WorkloadInstance:
    key = (
        spec.workload, spec.request_scale, spec.footprint_scale, spec.seed,
        # External traces key by content digest: two sources sharing a
        # name must not collide in the per-worker instance cache.
        spec.source.digest if spec.source is not None else None,
    )
    instance = _INSTANCES.get(key)
    if instance is None:
        instance = spec.render()
        _INSTANCES[key] = instance
    return instance


def cache_stats() -> dict[str, dict[str, int]]:
    """Occupancy of this process's bounded caches — rendered workloads
    and analytic profiles: entries, bytes, budget, evictions.

    Operational state only; it never enters a result, a digest or a
    cache key.
    """
    from repro.model.estimator import _PROFILES

    return {"workloads": _INSTANCES.stats(), "profiles": _PROFILES.stats()}


def _instance_for(spec: RunSpec) -> WorkloadInstance | None:
    """The pre-rendered instance a spec's execution should reuse.

    ``None`` for simulated source specs: those stream the backing
    trace file chunk by chunk inside ``execute`` — materialising (and
    worker-caching) the whole trace would defeat the constant-memory
    drive path.  The analytic and sampled engines consume a rendered
    instance either way.
    """
    if spec.source is not None and spec.engine == "simulate":
        return None
    return _rendered(spec)


def _worker_run(item: tuple[int, RunSpec]) -> tuple[int, dict | None, str | None]:
    """Pool target: never raises — failures travel back as tracebacks."""
    index, spec = item
    try:
        result = spec.execute(instance=_instance_for(spec))
        return index, result.to_dict(), None
    except Exception:
        return index, None, traceback.format_exc()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class ExecutorStats:
    """Counters over an executor's lifetime (cache audits, benchmarks)."""

    submitted: int = 0
    simulated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    failures: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "simulated": self.simulated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "retries": self.retries,
            "failures": self.failures,
        }


@dataclass(frozen=True)
class WorkerFailure:
    """One spec that failed after retries, with its worker traceback."""

    spec: RunSpec
    traceback: str


class ExecutorError(RuntimeError):
    """Raised after a batch completes with at least one failed spec.

    The error carries the failures *and* every completed result, so a
    single bad spec does not discard the rest of the batch.
    """

    def __init__(self, failures: Sequence[WorkerFailure],
                 results: dict[RunSpec, RunResult]) -> None:
        self.failures = list(failures)
        self.results = results
        lines = [f"{len(self.failures)} of "
                 f"{len(self.failures) + len(results)} run spec(s) failed:"]
        for failure in self.failures:
            last = failure.traceback.strip().splitlines()[-1]
            lines.append(f"  {failure.spec.label()}: {last}")
        super().__init__("\n".join(lines))


#: Progress callback signature: (completed, total, spec just finished).
ProgressCallback = Callable[[int, int, RunSpec], None]


class ParallelExecutor:
    """Executes :class:`RunSpec` batches, in parallel, with caching.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``; ``1``
        executes serially in-process (no pool overhead).
    cache:
        A :class:`ResultCache` (or ``None`` to disable persistence).
    progress:
        Callback invoked in the parent as each spec completes.
    retries:
        How many times a failed spec is re-executed serially in the
        parent before it is reported as a failure.
    start_method:
        ``multiprocessing`` start method; ``None`` keeps the platform
        default (``fork`` on Linux, which inherits registered custom
        policies and environment toggles).
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
        retries: int = 1,
        start_method: str | None = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.progress = progress
        self.retries = retries
        self.start_method = start_method
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------
    def submit(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Execute a batch and return results aligned with ``specs``.

        Duplicate specs are simulated once.  The merge is deterministic:
        output order is input order and each result is keyed by its
        spec, so worker completion order never shows through.  If any
        spec still fails after retries, :class:`ExecutorError` is
        raised *after* all remaining specs have completed (the partial
        results ride on the exception).
        """
        specs = list(specs)
        self.stats.submitted += len(specs)
        unique = list(dict.fromkeys(specs))
        results: dict[RunSpec, RunResult] = {}
        total = len(unique)
        done = 0

        def _completed(spec: RunSpec, result: RunResult) -> None:
            nonlocal done
            results[spec] = result
            done += 1
            if self.progress is not None:
                self.progress(done, total, spec)

        pending: list[RunSpec] = []
        for spec in unique:
            cached = self.cache.get(spec) if self.cache else None
            if cached is not None:
                self.stats.cache_hits += 1
                _completed(spec, cached)
            else:
                if self.cache:
                    self.stats.cache_misses += 1
                pending.append(spec)

        # Deterministic execution order (stable scheduling + progress).
        pending.sort(key=RunSpec.key)
        failures: list[WorkerFailure] = []

        def _fresh(spec: RunSpec, result: RunResult) -> None:
            self.stats.simulated += 1
            if self.cache:
                self.cache.put(spec, result)
            _completed(spec, result)

        if self.jobs == 1 or len(pending) <= 1:
            for spec in pending:
                result, failure = self._run_with_retries(spec)
                if failure is not None:
                    failures.append(failure)
                else:
                    assert result is not None
                    _fresh(spec, result)
        else:
            failed: list[tuple[RunSpec, str]] = []
            context = (multiprocessing.get_context(self.start_method)
                       if self.start_method else multiprocessing)
            workers = min(self.jobs, len(pending))
            with context.Pool(processes=workers) as pool:
                items = list(enumerate(pending))
                for index, payload, error in pool.imap_unordered(
                        _worker_run, items):
                    spec = pending[index]
                    if error is not None:
                        failed.append((spec, error))
                    else:
                        _fresh(spec, RunResult.from_dict(payload))
            # Retry crashed specs serially in the parent: a transient
            # worker death must not cost the batch, and a deterministic
            # crash reproduces here with a clean traceback.
            for spec, error in failed:
                result, failure = self._run_with_retries(
                    spec, first_error=error)
                if failure is not None:
                    failures.append(failure)
                else:
                    assert result is not None
                    _fresh(spec, result)

        if failures:
            self.stats.failures += len(failures)
            raise ExecutorError(failures, results)
        return [results[spec] for spec in specs]

    # ------------------------------------------------------------------
    def _run_with_retries(
        self, spec: RunSpec, first_error: str | None = None,
    ) -> tuple[RunResult | None, WorkerFailure | None]:
        """Execute one spec in-process, retrying up to ``self.retries``."""
        error = first_error
        attempts = self.retries + 1 if first_error is None else self.retries
        for _ in range(attempts):
            if error is not None:
                self.stats.retries += 1
            try:
                return spec.execute(instance=_instance_for(spec)), None
            except Exception:
                error = traceback.format_exc()
        return None, WorkerFailure(spec=spec, traceback=error or "")


def collect_events(
    pairs: Iterable[tuple[RunSpec, RunResult]],
) -> list[tuple[RunSpec, EventSummary]]:
    """The event summaries among ``(spec, result)`` pairs, one per
    distinct spec, sorted by :meth:`RunSpec.key`.

    The executor keeps no results between submits (a resident service
    would grow without bound); callers that want event streams collect
    them from the results they already hold.  The sort makes serial,
    ``jobs=N`` and cache-hit runs report identical sequences.
    """
    events = {spec: result.events for spec, result in pairs
              if result.events is not None}
    return sorted(events.items(), key=lambda item: item[0].key())


def execute_specs(
    specs: Sequence[RunSpec],
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> list[RunResult]:
    """One-shot convenience wrapper around :class:`ParallelExecutor`."""
    return ParallelExecutor(jobs=jobs, cache=cache).submit(specs)
