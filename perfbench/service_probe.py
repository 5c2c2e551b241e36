"""The ``serve-mix`` schedule run in-process against ``ReproService``,
without HTTP; prints one JSON line.

Each request does the service-side work of the HTTP handler: build the
spec, run it through the executor (cache first), serialise the reply
(``to_dict`` plus JSON, event lines for a stream), and for an upload
ingest the ``.trc`` text first.  Subtracting its per-kind service time
from the client latency of the same schedule gives the transport time.
``--trace`` swaps in the timed executor of :mod:`spans`.

    python3 perfbench/service_probe.py --seed 0 --blocks 1 \\
        --workdir .perfbench/probe [--trace]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import time
from contextlib import nullcontext
from pathlib import Path

from common import upload_policy, upload_text, use_source


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    use_source()
    from repro.experiments.executor import ResultCache
    from repro.serve import ReproService
    from repro.workloads.parsec import WORKLOAD_NAMES
    from serve_load import build_schedule, digest_reply

    workdir = Path(args.workdir)
    priming, mixed = build_schedule(args.seed, args.blocks, WORKLOAD_NAMES)
    tracer = None
    if args.trace:
        from spans import Tracer, TracingExecutor

        tracer = Tracer(f"service-{os.getpid()}")
        with tracer.span("experiments.code_version"):
            cache = ResultCache(workdir / "cache")
        executor = TracingExecutor(tracer, cache=cache)
        service = ReproService(executor=executor,
                               trace_root=workdir / "traces")
    else:
        service = ReproService(jobs=1, cache=ResultCache(workdir / "cache"),
                               trace_root=workdir / "traces")

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    service_ms: dict[str, list[float]] = {}
    records = []
    ingested_bytes = 0
    event_lines = 0
    start = time.monotonic()
    for item in priming + mixed:
        kind = item["kind"]
        record = {"kind": kind}
        begin = time.monotonic()
        with span(f"serve.{kind}"):
            if kind == "upload":
                text = upload_text(item["index"])
                ingested_bytes += len(text)
                with span("trace.ingest"):
                    source = service.ingest(io.StringIO(text),
                                            name=f"upload-{item['index']}")
                record["source"] = source.digest
                payload = {"source": source.digest,
                           "policy": upload_policy(item["index"])}
            else:
                payload = item["payload"]
            spec, result = service.run(payload, stream=kind == "stream")
            with span("experiments.serialise"):
                lines = (result.events.trace_lines
                         if result.events is not None else [])
                reply = {"digest": spec.digest(), "label": spec.label(),
                         "result": result.to_dict()}
                "".join(f"{line}\n" for line in lines) + json.dumps(reply)
        service_ms.setdefault(kind, []).append(
            (time.monotonic() - begin) * 1e3)
        event_lines += len(lines)
        record["result"] = reply["result"]
        if kind == "stream":
            record["events"] = lines
        records.append(record)
    wall_s = time.monotonic() - start
    for record in records:
        if "events" in record:
            record["events"] = [json.loads(line) for line in record["events"]]
        digest_reply(record)

    report = {"wall_s": wall_s, "service_ms": service_ms, "records": records,
              "ingested_bytes": ingested_bytes, "event_lines": event_lines,
              "stats": service.executor.stats.as_dict()}
    if tracer is not None:
        # Probe outside the schedule: the streamed cells once more with
        # events off, for the cost of event collection.
        for item in mixed:
            if item["kind"] == "stream":
                spec = service.spec_from_payload(item["payload"])
                instance = spec.render()
                with tracer.span("probe.events_off_replay"):
                    spec.execute(instance=instance)
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
    print(json.dumps(report))


if __name__ == "__main__":
    main()
