"""The ``serve-mix`` load: one ``repro serve --jobs 1`` process driven
in a closed loop by two client threads through ``ServeClient``.

The request schedule is generated from the workload seed (see
:func:`build_schedule`) and contains warm re-queries of a fixed set of
cells, cold ``/run`` calls on fresh spec seeds, ``?stream=1`` cold runs
and ``/traces`` uploads each followed by a run on the returned digest.
Every reply is checked against ``reference.json`` after the loop.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    CORE_POLICIES,
    ROOT,
    SPEC_SEEDS,
    SRC,
    STREAM_POLICIES,
    UPLOAD_POOL,
    cell_key,
    core_payload,
    events_digest,
    result_digest,
    spec_seed,
    upload_policy,
    upload_text,
)

CLIENTS = 2
#: Per block of the schedule; ``--seconds`` picks the number of blocks.
WARM_PER_BLOCK = 400
STREAMS_PER_BLOCK = 8
UPLOADS_PER_BLOCK = 6
SECONDS_PER_BLOCK = 5
#: Spec seeds (offsets into ``SPEC_SEEDS``): the warm set takes offset
#: 0, block ``b``'s cold cells ``1 + b``, and the streamed cells of
#: blocks ``3g`` to ``3g + 2`` offset ``15 - g``; none is used twice.
MAX_BLOCKS = 10


def blocks_for(seconds: int) -> int:
    return max(1, min(MAX_BLOCKS, round(seconds / SECONDS_PER_BLOCK)))


def build_schedule(seed: int, blocks: int, workloads: tuple[str, ...]):
    """``(priming, mixed)`` request lists for one run.

    ``priming`` runs the warm set cold (these count as cold samples);
    ``mixed`` is the shuffled closed-loop schedule.  Each item is a dict
    with ``kind`` (``cold``, ``warm``, ``stream`` or ``upload``), the
    ``/run`` payload, and the reference coordinates of its result.
    """
    rng = random.Random(seed)
    warm_seed = spec_seed(seed)
    warm_cells = [(workload, policy) for workload in workloads
                  for policy in STREAM_POLICIES]
    priming = [_run_item("cold", workload, policy, warm_seed)
               for workload, policy in warm_cells]
    uploads = rng.sample(range(UPLOAD_POOL), blocks * UPLOADS_PER_BLOCK)
    stream_blocks = len(warm_cells) // STREAMS_PER_BLOCK
    mixed = []
    streams: list[tuple[str, str]] = []
    for block in range(blocks):
        items = [_run_item("warm", *rng.choice(warm_cells), warm_seed)
                 for _ in range(WARM_PER_BLOCK)]
        cold_seed = spec_seed(seed, 1 + block)
        items += [_run_item("cold", workload, policy, cold_seed)
                  for workload in workloads for policy in CORE_POLICIES]
        group, part = divmod(block, stream_blocks)
        if part == 0:
            streams = list(warm_cells)
            rng.shuffle(streams)
        stream_seed = spec_seed(seed, len(SPEC_SEEDS) - 1 - group)
        items += [_run_item("stream", workload, policy, stream_seed)
                  for workload, policy in streams[
                      part * STREAMS_PER_BLOCK:
                      (part + 1) * STREAMS_PER_BLOCK]]
        items += [{"kind": "upload", "index": index}
                  for index in uploads[block * UPLOADS_PER_BLOCK:
                                       (block + 1) * UPLOADS_PER_BLOCK]]
        rng.shuffle(items)
        mixed += items
    return priming, mixed


def _run_item(kind: str, workload: str, policy: str, seed: int) -> dict:
    return {"kind": kind, "payload": core_payload(workload, policy, seed),
            "seed": seed, "cell": cell_key(workload, policy)}


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """A ``repro serve --jobs 1`` child with its own cache and trace
    directory; ``boot_s`` is spawn until the first ``/healthz`` 200."""

    def __init__(self, workdir: Path) -> None:
        from repro.serve import ServeClient

        self.port = free_port()
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "1",
             "--cache-dir", str(workdir / "cache"),
             "--trace-dir", str(workdir / "traces"),
             "--port", str(self.port)],
            cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.client = ServeClient(port=self.port, timeout=60.0)
        try:
            self._wait_ready(start)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, start: float) -> None:
        deadline = start + 60.0
        while True:
            if self.process.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            try:
                if self.client.healthz():
                    self.boot_s = time.monotonic() - start
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not become healthy")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Shut the server down and wait for it; kill it if it hangs."""
        if self.process.poll() is None:
            try:
                self.client.shutdown()
                self.process.wait(timeout=10)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()


# ----------------------------------------------------------------------
# Closed-loop clients
# ----------------------------------------------------------------------
def run_phase(client, items: list[dict], clients: int = CLIENTS,
              tracer=None) -> list[dict]:
    """Send ``items`` from ``clients`` threads, each sending its next
    request only when the previous reply has arrived.  Returns one
    record per item (in schedule order) with latency and reply."""
    records: list[dict | None] = [None] * len(items)
    position = [0]
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = position[0]
                position[0] += 1
            if index >= len(items):
                return
            records[index] = _send(client, items[index], tracer)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records  # type: ignore[return-value]


def _send(client, item: dict, tracer) -> dict:
    from repro.serve.client import ServeError

    kind = item["kind"]
    record: dict = {"kind": kind}
    start = time.monotonic()
    try:
        if kind == "upload":
            index = item["index"]
            source = client.upload_trace(upload_text(index),
                                         name=f"upload-{index}")
            uploaded = time.monotonic()
            record["upload_ms"] = (uploaded - start) * 1e3
            record["source"] = source["digest"]
            reply = client.run({"source": source["digest"],
                                "policy": upload_policy(index)})
            record["run_ms"] = (time.monotonic() - uploaded) * 1e3
            record["result"] = reply["result"]
        elif kind == "stream":
            events = []
            for entry in client.run_stream(item["payload"]):
                if "final" in entry:
                    record["result"] = entry["final"]["result"]
                else:
                    if not events:
                        record["ttfe_ms"] = (time.monotonic() - start) * 1e3
                    events.append(entry)
            record["events"] = events
        else:
            record["result"] = client.run(item["payload"])["result"]
    except (ServeError, OSError, ValueError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
    end = time.monotonic()
    record["latency_ms"] = (end - start) * 1e3
    if tracer is not None:
        tracer.record(f"client.{kind}", start, end)
    return record


def digest_reply(record: dict) -> None:
    """Replace a record's result (and event stream) by its digest."""
    if "result" in record:
        record["digest"] = result_digest(record.pop("result"))
    if "events" in record:
        record["events"] = events_digest(record["events"])


def check_records(items: list[dict], records: list[dict],
                  reference: dict) -> list[str]:
    """Compare every digested reply with the reference; returns the
    problems (one string per failed request)."""
    problems = []
    for item, record in zip(items, records):
        kind = item["kind"]
        if "error" in record:
            problems.append(f"{kind}: {record['error']}")
        elif kind == "upload":
            expected = reference["uploads"][str(item["index"])]
            if (record.get("source"), record.get("digest")) \
                    != (expected["source"], expected["digest"]):
                problems.append(f"upload {item['index']}: wrong result")
        else:
            seed, cell = str(item["seed"]), item["cell"]
            if record.get("digest") != reference["cells"][seed][cell][
                    "digest"]:
                problems.append(f"{kind} {cell}@{seed}: wrong result")
            if kind == "stream" and record.get("events") \
                    != reference["streams"][seed][cell]["events"]:
                problems.append(f"stream {cell}@{seed}: wrong events")
    return problems
