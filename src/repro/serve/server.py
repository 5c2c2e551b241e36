"""HTTP front end for :class:`~repro.serve.service.ReproService`.

Stdlib only (``http.server``), threaded so a long simulation does not
block health checks.  The protocol is deliberately plain:

==========  ======  ====================================================
endpoint    method  behaviour
==========  ======  ====================================================
/healthz    GET     liveness probe: ``{"ok": true}``
/stats      GET     service counters, executor/cache statistics and
                    the bounded in-memory caches (``caches``)
/policies   GET     registered policy names
/workloads  GET     PARSEC workload names (plus engines)
/run        POST    body = spec payload; ``?stream=1`` answers with an
                    ``application/x-ndjson`` body — one line per
                    simulation event, then a final ``{"result": ...}``
                    line.  Warm cache hits stream the identical lines
                    (the event stream rides on the cached result).
/batch      POST    body = ``{"specs": [payload, ...]}``; results in
                    submission order
/traces     POST    body = ``.trc`` text (``?name=`` optional),
                    decoded block by block; spills into the
                    content-addressed store and returns the
                    ``SourceSpec`` dict (reference it from later runs
                    as ``{"source": "<digest>"}``)
/shutdown   POST    clean stop (the CI smoke job's exit path)
==========  ======  ====================================================

Streaming uses HTTP/1.0 connection-close delimiting — no chunked
transfer encoding to hand-roll, and every stdlib/curl client handles
it.  A malformed ``Content-Length`` (non-numeric, signed) is a 400.
``/run`` and ``/batch`` read their JSON body into memory, so a
declared length above :data:`MAX_JSON_BODY_BYTES` is a 413, answered
before any of the body is read; ``/traces`` streams and has no cap.
"""

from __future__ import annotations

import io
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, BinaryIO
from urllib.parse import parse_qs, urlparse

from repro.serve.service import ReproService, ServiceError

#: Largest JSON body ``/run`` and ``/batch`` accept, in bytes.  A spec
#: payload is a few hundred bytes, so even a ``/batch`` of the whole
#: 48-cell claims grid is under 20 KB; this leaves room for batches
#: hundreds of times larger while bounding what one request can make
#: the server hold in memory.
MAX_JSON_BODY_BYTES = 4 * 1024 * 1024


class PayloadTooLarge(ServiceError):
    """A JSON body declared larger than :data:`MAX_JSON_BODY_BYTES`."""


class _BoundedBody(io.RawIOBase):
    """The first ``length`` bytes of a request stream (the body), as a
    raw stream that reports end-of-file where the body ends."""

    def __init__(self, stream: io.BufferedIOBase | BinaryIO,
                 length: int) -> None:
        self._stream = stream
        self._left = length

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: Any) -> int:
        want = min(len(buffer), self._left)
        if want <= 0:
            return 0
        data = self._stream.read(want)
        buffer[:len(data)] = data
        self._left -= len(data)
        return len(data)


class ReproServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ReproService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 service: ReproService) -> None:
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve"
    # Connection-close delimiting makes the JSONL stream's end
    # unambiguous without chunked encoding.
    protocol_version = "HTTP/1.0"

    server: ReproServer  # narrowed for the type checker

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        pass  # quiet by default; /stats carries the counters

    def _send_json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _content_length(self) -> int:
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise ServiceError(f"malformed Content-Length {raw!r}")
        return int(raw)

    def _read_body(self) -> bytes:
        length = self._content_length()
        if length > MAX_JSON_BODY_BYTES:
            raise PayloadTooLarge(
                f"JSON body of {length} bytes exceeds the "
                f"{MAX_JSON_BODY_BYTES}-byte limit")
        return self.rfile.read(length) if length else b""

    def _body_lines(self) -> io.TextIOWrapper:
        """The request body as UTF-8 text lines, decoded block by block
        so an upload of any size is ingested at constant memory.  Lines
        split at ``\\n`` only: no newline translation, so a stray
        ``\\r`` stays inside its line."""
        body = io.BufferedReader(
            _BoundedBody(self.rfile, self._content_length()))
        return io.TextIOWrapper(body, encoding="utf-8", newline="\n")

    def _read_json(self) -> Any:
        raw = self._read_body()
        try:
            return json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}")

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = urlparse(self.path).path
        service = self.server.service
        if path == "/healthz":
            self._send_json({"ok": True})
        elif path == "/stats":
            self._send_json(service.stats())
        elif path == "/policies":
            self._send_json({"policies": service.catalog()["policies"]})
        elif path == "/workloads":
            catalog = service.catalog()
            self._send_json({"workloads": catalog["workloads"],
                             "engines": catalog["engines"]})
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        query = parse_qs(url.query)
        service = self.server.service
        try:
            if url.path == "/run":
                stream = query.get("stream", ["0"])[0] not in ("", "0")
                spec, result = service.run(self._read_json(), stream=stream)
                if stream:
                    self._stream_run(spec, result)
                else:
                    self._send_json({
                        "digest": spec.digest(),
                        "label": spec.label(),
                        "result": result.to_dict(),
                    })
            elif url.path == "/batch":
                payload = self._read_json()
                specs = [service.spec_from_payload(item)
                         for item in payload.get("specs", ())]
                results = service.run_specs(specs)
                self._send_json({"results": [
                    {"digest": spec.digest(), "label": spec.label(),
                     "result": result.to_dict()}
                    for spec, result in zip(specs, results)
                ]})
            elif url.path == "/traces":
                name = query.get("name", [None])[0]
                source = service.ingest(self._body_lines(), name=name)
                self._send_json({"source": source.to_dict()})
            elif url.path == "/shutdown":
                self._send_json({"ok": True})
                # shutdown() must come from another thread — it joins
                # the serve loop this handler is running inside.
                threading.Thread(target=self.server.shutdown,
                                 daemon=True).start()
            else:
                self._send_error_json(404, f"unknown path {url.path!r}")
        except PayloadTooLarge as exc:
            self._send_error_json(413, str(exc))
        except ServiceError as exc:
            self._send_error_json(400, str(exc))
        except Exception as exc:  # a failed run is a 500, not a crash
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")

    def _stream_run(self, spec: Any, result: Any) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        events = result.events
        for line in (events.trace_lines if events is not None else ()):
            self.wfile.write(line.encode("utf-8"))
            self.wfile.write(b"\n")
        final = {"digest": spec.digest(), "label": spec.label(),
                 "result": result.to_dict()}
        self.wfile.write(json.dumps({"final": final}).encode("utf-8"))
        self.wfile.write(b"\n")


def serve(host: str = "127.0.0.1", port: int = 8023,
          service: ReproService | None = None,
          ready: threading.Event | None = None) -> ReproServer:
    """Run a server until ``/shutdown`` (or KeyboardInterrupt).

    Binds, signals ``ready`` (tests use this to rendezvous), then
    blocks in ``serve_forever``.  Returns the (closed) server so
    callers can inspect the service afterwards.
    """
    server = ReproServer((host, port), service or ReproService())
    if ready is not None:
        ready.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return server
