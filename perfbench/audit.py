"""One claims audit in this (fresh) interpreter; prints one JSON line.

Does what ``repro claims --engine E --seed S --jobs 1`` does, with the
result cache under ``--cache-dir``: build the runner, run
``verify_claims``.  Run it twice on one cache directory for a cold
then a warm audit.  ``--trace`` swaps the serial executor for the
timed one of :mod:`spans`.

    python3 perfbench/audit.py --engine simulate --seed 2016 \\
        --cache-dir .perfbench/c0 [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

from common import cell_key, result_digest, use_source


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    use_source()
    from repro.experiments import ExperimentRunner, verify_claims
    from repro.experiments.executor import ParallelExecutor, ResultCache

    marks: list[float] = []
    tracer = None
    if args.trace:
        from spans import Tracer, TracingExecutor

        tracer = Tracer(f"audit-{args.engine}-{os.getpid()}")
        with tracer.span("experiments.code_version"):
            cache = ResultCache(args.cache_dir)
        inner = TracingExecutor(tracer, cache=cache)
    else:
        cache = ResultCache(args.cache_dir)
        inner = ParallelExecutor(
            jobs=1, cache=cache,
            progress=lambda done, total, spec: marks.append(time.monotonic()))
    executor = _Recorder(inner, marks)
    runner = ExperimentRunner(seed=args.seed, executor=executor,
                              engine=args.engine)
    ready = time.monotonic()

    start = time.monotonic()
    if tracer is not None:
        with tracer.span("experiments.claims"):
            claims = verify_claims(runner)
    else:
        claims = verify_claims(runner)
    audit_s = time.monotonic() - start

    cells = {cell_key(spec.workload, spec.policy): _cell(result)
             for spec, result in executor.results.items()}
    report = {
        "ready": ready,
        "audit_s": audit_s,
        "claims": {claim.claim_id: claim.holds for claim in claims},
        "cells": cells,
        "latencies_ms": executor.latencies_ms(),
        "stats": inner.stats.as_dict(),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        with tracer.span("experiments.serialise"):
            for result in executor.results.values():
                type(result).from_dict(json.loads(json.dumps(result.to_dict())))
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    print(json.dumps(report))


class _Recorder:
    """Executor wrapper: keeps every result and the per-cell completion
    times (``marks``, appended by the executor's progress callback)."""

    def __init__(self, inner, marks: list[float]) -> None:
        self.inner = inner
        self.marks = marks
        self.results: dict = {}
        self._submits: list[tuple[float, int, int]] = []

    def submit(self, specs):
        start, first = time.monotonic(), len(self.marks)
        results = self.inner.submit(specs)
        self._submits.append((start, first, len(self.marks)))
        self.results.update(zip(specs, results))
        return results

    def latencies_ms(self) -> list[float]:
        latencies = []
        for start, first, last in self._submits:
            previous = start
            for mark in self.marks[first:last]:
                latencies.append((mark - previous) * 1e3)
                previous = mark
        return latencies


def _cell(result) -> dict:
    accounting = result.accounting
    cell = {
        "digest": result_digest(result.to_dict()),
        "amat": result.amat,
        "appr": result.appr,
        "nvm_writes": result.nvm_writes.total,
        "dram_hits": accounting.dram_hits,
        "nvm_hits": accounting.nvm_hits,
        "faults": accounting.page_faults,
        "migrations": accounting.migrations,
    }
    if result.sampling is not None:
        cell["effective_rate"] = result.sampling.effective_rate
    return cell


if __name__ == "__main__":
    main()
