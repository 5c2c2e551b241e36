"""Write ``reference.json``: the exact outputs the benchmark checks.

For every pool spec seed it records, per core cell (12 workloads x the
four core policies), the digest of the canonical ``RunResult.to_dict()``
plus the AMAT, APPR and NVM-write totals the approximate engines are
scored against, and whether each paper claim holds under the exact
engine.  For the streamed cells it records the event-stream digest and
line count, and for every generated upload the digest of the run on it.
Run it from the repository root on the commit whose outputs are the
reference (about two minutes on one core):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import io
import json
import tempfile

from common import (
    CORE_POLICIES,
    REFERENCE,
    SPEC_SEEDS,
    STREAM_POLICIES,
    UPLOAD_POOL,
    cell_key,
    events_digest,
    result_digest,
    upload_policy,
    upload_text,
    use_source,
)


def main() -> None:
    use_source()
    from repro.experiments import ExperimentRunner, verify_claims
    from repro.experiments.executor import code_version
    from repro.experiments.runspec import RunSpec
    from repro.obs.config import EventConfig
    from repro.serve import ReproService
    from repro.workloads.parsec import WORKLOAD_NAMES

    cells: dict[str, dict] = {}
    claims: dict[str, list[str]] = {}
    streams: dict[str, dict] = {}
    for seed in SPEC_SEEDS:
        runner = ExperimentRunner(seed=seed, jobs=1)
        claims[str(seed)] = sorted(
            claim.claim_id for claim in verify_claims(runner)
            if not claim.holds)
        specs = [RunSpec.core(workload, policy, seed=seed)
                 for workload in WORKLOAD_NAMES for policy in CORE_POLICIES]
        by_cell = {}
        for spec, result in zip(specs, runner.submit(specs)):
            by_cell[cell_key(spec.workload, spec.policy)] = {
                "digest": result_digest(result.to_dict()),
                "amat": result.amat,
                "appr": result.appr,
                "nvm_writes": result.nvm_writes.total,
            }
        cells[str(seed)] = by_cell
        by_stream = {}
        for workload in WORKLOAD_NAMES:
            for policy in STREAM_POLICIES:
                spec = RunSpec.core(workload, policy, seed=seed,
                                    events=EventConfig(trace=True))
                lines = spec.execute().events.trace_lines
                by_stream[cell_key(workload, policy)] = {
                    "events": events_digest([json.loads(line)
                                             for line in lines]),
                    "lines": len(lines)}
        streams[str(seed)] = by_stream
        print(f"seed {seed}: claims failing {claims[str(seed)] or 'none'}",
              flush=True)

    uploads = {}
    with tempfile.TemporaryDirectory() as scratch:
        service = ReproService(jobs=1, cache=None, trace_root=scratch)
        for index in range(UPLOAD_POOL):
            source = service.ingest(io.StringIO(upload_text(index)),
                                    name=f"upload-{index}")
            _, result = service.run({"source": source.digest,
                                     "policy": upload_policy(index)})
            uploads[str(index)] = {"source": source.digest,
                                   "digest": result_digest(result.to_dict())}

    REFERENCE.write_text(json.dumps({
        "code_version": code_version(),
        "claims_failed_exact": claims,
        "cells": cells,
        "streams": streams,
        "uploads": uploads,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
