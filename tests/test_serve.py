"""The resident service: payload translation, HTTP protocol, caching.

An in-thread :class:`ReproServer` on an ephemeral port exercises the
real HTTP stack end to end: cold runs, warm cache-hit re-queries
(byte-identical, zero simulation), JSONL event streaming, trace upload
feeding source-backed specs, the fast engines behind the same
endpoint, error mapping, and clean shutdown.
"""

from __future__ import annotations

import io
import json
import threading
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro.experiments import executor as executor_module
from repro.experiments.executor import ResultCache
from repro.experiments.runspec import RunSpec
from repro.model import estimator
from repro.model.profile import profile_workload
from repro.serve import ReproServer, ReproService, ServeClient
from repro.serve.client import ServeError
from repro.serve.server import MAX_JSON_BODY_BYTES
from repro.serve.service import ServiceError

RUN = {"workload": "dedup", "policy": "proposed", "request_scale": 0.05}


# ----------------------------------------------------------------------
# Service core (no HTTP)
# ----------------------------------------------------------------------
class TestServiceCore:
    @pytest.fixture
    def service(self, tmp_path) -> ReproService:
        return ReproService(jobs=1, trace_root=tmp_path / "traces")

    def test_payload_translation(self, service):
        spec = service.spec_from_payload(RUN)
        assert spec.workload == "dedup"
        assert spec.policy == "proposed"
        assert spec.request_scale == 0.05

    def test_unknown_fields_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown spec field"):
            service.spec_from_payload({**RUN, "polciy": "proposed"})

    def test_unknown_workload_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown workload"):
            service.spec_from_payload({"workload": "quake"})

    def test_unknown_engine_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown engine"):
            service.spec_from_payload({**RUN, "engine": "quantum"})

    def test_unknown_source_digest_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown source digest"):
            service.spec_from_payload({"source": "feedfacedeadbeef"})

    def test_stream_rejects_fast_engines(self, service):
        with pytest.raises(ServiceError, match="no event stream"):
            service.run({**RUN, "engine": "analytic"}, stream=True)

    def test_defaults_apply_only_when_absent(self, tmp_path):
        service = ReproService(jobs=1, trace_root=tmp_path / "t",
                               defaults={"engine": "analytic"})
        assert service.spec_from_payload(RUN).engine == "analytic"
        explicit = service.spec_from_payload({**RUN, "engine": "simulate"})
        assert explicit.engine == "simulate"

    def test_ingest_registers_source(self, service):
        lines = ["# name: up\n"] + [f"R {i % 9}\n" for i in range(100)]
        source = service.ingest(iter(lines), name="up")
        assert source.requests == 100
        assert source.unique_pages == 9
        assert service.sources[source.digest] is source
        spec = service.spec_from_payload(
            {"source": source.digest, "policy": "proposed"})
        assert spec.workload == "up"


# ----------------------------------------------------------------------
# HTTP end to end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def endpoint(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    service = ReproService(jobs=1, cache=ResultCache(tmp / "cache"),
                           trace_root=tmp / "traces")
    server = ReproServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(port=server.server_address[1], timeout=300)
    yield client, service
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestServeHTTP:
    def test_health_and_catalog(self, endpoint):
        client, _ = endpoint
        assert client.healthz()
        assert "proposed" in client.policies()
        catalog = client.workloads()
        assert "dedup" in catalog["workloads"]
        assert "analytic" in catalog["engines"]

    def test_cold_then_warm_identical(self, endpoint):
        client, service = endpoint
        cold = client.run(RUN)
        simulated = service.executor.stats.simulated
        warm = client.run(RUN)
        assert warm["result"] == cold["result"]
        assert warm["digest"] == cold["digest"]
        # The warm query was answered from the cache, not recomputed.
        assert service.executor.stats.simulated == simulated

    def test_streamed_events_then_final(self, endpoint):
        client, _ = endpoint
        lines = list(client.run_stream(RUN))
        *events, final = lines
        assert "final" in final
        assert final["final"]["result"]["accounting"]["read_requests"] > 0
        assert events, "stream carried no simulation events"
        assert all("event" in line or "kind" in line or line
                   for line in events)
        # Warm re-query streams the identical lines from the cache.
        assert list(client.run_stream(RUN)) == lines

    def test_trace_upload_feeds_source_runs(self, endpoint):
        client, _ = endpoint
        text = "# name: uploaded\n# page_size: 4096\n" + "".join(
            f"{'W' if i % 3 == 0 else 'R'} {i % 40}\n" for i in range(2_000))
        source = client.upload_trace(text, name="uploaded")
        assert source["requests"] == 2_000
        assert source["unique_pages"] == 40
        by_digest = client.run({"source": source["digest"],
                                "policy": "proposed"})
        by_dict = client.run({"source": source, "policy": "proposed"})
        assert by_digest["result"] == by_dict["result"]
        assert by_digest["digest"] == by_dict["digest"]
        assert by_digest["label"].startswith("uploaded@")

    def test_fast_engines_same_endpoint(self, endpoint):
        client, _ = endpoint
        analytic = client.run({**RUN, "engine": "analytic"})
        sampled = client.run({**RUN, "engine": "sampled"})
        assert analytic["result"]["accounting"]["read_requests"] > 0
        assert sampled["result"]["accounting"]["read_requests"] > 0
        assert analytic["digest"] != sampled["digest"]

    def test_batch_preserves_order(self, endpoint):
        client, _ = endpoint
        results = client.batch([
            {**RUN, "policy": "proposed"},
            {**RUN, "policy": "clock-dwf"},
        ])
        assert [r["label"] for r in results] \
            == ["dedup:proposed", "dedup:clock-dwf"]

    def test_error_mapping(self, endpoint):
        client, _ = endpoint
        with pytest.raises(ServeError) as bad_payload:
            client.run({"workload": "quake"})
        assert bad_payload.value.status == 400
        with pytest.raises(ServeError) as bad_path:
            client._json("GET", "/nope")
        assert bad_path.value.status == 404

    def test_stats_counts_runs(self, endpoint):
        client, _ = endpoint
        stats = client.stats()
        assert stats["runs"] > 0
        assert stats["executor"]["submitted"] >= stats["runs"]
        assert stats["uptime_seconds"] >= 0

    def test_stats_reports_bounded_caches(self, endpoint):
        client, _ = endpoint
        client.run({**RUN, "engine": "analytic", "seed": 7})
        caches = client.stats()["caches"]
        assert set(caches) == {"workloads", "profiles"}
        for cache in caches.values():
            assert set(cache) == {"entries", "bytes", "budget", "evictions"}
            assert 0 <= cache["bytes"] <= cache["budget"]
        assert caches["workloads"]["entries"] >= 1
        assert caches["profiles"]["entries"] >= 1

    @pytest.mark.parametrize("path", ["/run", "/batch", "/traces"])
    @pytest.mark.parametrize("length", ["abc", "-5", "1_0", "+5"])
    def test_malformed_content_length_is_400(self, endpoint, path, length):
        client, _ = endpoint
        connection = HTTPConnection(client.host, client.port, timeout=60)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "Content-Length" in body["error"]

    @pytest.mark.parametrize("path", ["/run", "/batch"])
    def test_oversized_json_body_is_413_before_reading(self, endpoint,
                                                        path):
        # Only the headers are sent: the server must answer from the
        # declared length alone, without waiting for the body.
        client, _ = endpoint
        connection = HTTPConnection(client.host, client.port, timeout=60)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Length",
                                 str(MAX_JSON_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 413
        assert str(MAX_JSON_BODY_BYTES) in body["error"]
        assert client.healthz()

    def test_invalid_utf8_upload_is_400(self, endpoint):
        client, _ = endpoint
        status, _ = client._request("POST", "/traces",
                                    b"R 1\n# \xff\xfe\nW 2\n")
        assert status == 400

    @pytest.mark.parametrize("pad", [0, 1, 2])
    def test_streamed_upload_matches_in_process_ingest(self, endpoint,
                                                       tmp_path, pad):
        """A multibyte UTF-8 comment straddling every read-block
        boundary: the streamed upload digests and spills exactly what
        an in-process ingest of the same text does."""
        client, _ = endpoint
        text = ("# " + "x" * pad + "\n"
                + "".join(f"{'W' if i % 5 == 0 else 'R'} {i % 97}\n"
                          for i in range(3_000))
                + "# " + "\u20ac" * 20_000 + "\n"
                + "".join(f"R {i % 31}\n" for i in range(3_000)))
        uploaded = client.upload_trace(text, name=f"straddle-{pad}")
        local = ReproService(jobs=1, trace_root=tmp_path / "traces").ingest(
            io.StringIO(text), name=f"straddle-{pad}")
        assert uploaded == {**local.to_dict(), "path": uploaded["path"]}
        assert Path(uploaded["path"]).read_bytes() \
            == Path(local.path).read_bytes()


class TestServeShutdown:
    def test_shutdown_endpoint_stops_server(self, tmp_path):
        service = ReproService(jobs=1, trace_root=tmp_path / "traces")
        server = ReproServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(port=server.server_address[1], timeout=60)
        assert client.healthz()
        client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()


class TestEventPersistence:
    def test_events_dir_persists_streamed_runs(self, tmp_path):
        service = ReproService(jobs=1, trace_root=tmp_path / "traces",
                               events_dir=tmp_path / "events")
        spec, result = service.run(RUN, stream=True)
        target = (tmp_path / "events"
                  / f"dedup-proposed-{spec.digest()}.jsonl")
        assert target.is_file()
        lines = target.read_text("utf-8").splitlines()
        assert lines == list(result.events.trace_lines)
        for line in lines:
            json.loads(line)


# ----------------------------------------------------------------------
# Bounded per-process caches
# ----------------------------------------------------------------------
class TestBoundedCaches:
    SCALE = 0.0005

    def test_service_caches_stay_within_budget(self, tmp_path,
                                               monkeypatch):
        """Budgets of two workloads, four spec seeds, both cached
        engines: after every request each cache is within budget, and
        a cell re-run after its workload was evicted is identical."""
        first = RunSpec.core("dedup", "proposed",
                             request_scale=self.SCALE).render()
        instances = executor_module._INSTANCES
        profiles = estimator._PROFILES
        instances.clear()
        profiles.clear()
        monkeypatch.setattr(instances, "budget", 2 * first.nbytes)
        monkeypatch.setattr(profiles, "budget", 2 * profile_workload(
            first, warmup_fraction=first.warmup_fraction).nbytes)
        renders = []
        render = RunSpec.render

        def counting_render(spec):
            renders.append(spec.seed)
            return render(spec)

        monkeypatch.setattr(RunSpec, "render", counting_render)
        service = ReproService(jobs=1, trace_root=tmp_path / "traces")

        def run(seed: int, engine: str) -> dict:
            _, result = service.run({
                "workload": "dedup", "policy": "proposed", "seed": seed,
                "request_scale": self.SCALE, "engine": engine})
            for cache in service.stats()["caches"].values():
                assert cache["bytes"] <= cache["budget"]
                assert cache["entries"] <= 2
            return result.to_dict()

        seeds = (11, 12, 13, 14)
        before = {(seed, engine): run(seed, engine)
                  for seed in seeds for engine in ("simulate", "analytic")}
        assert renders == list(seeds)
        caches = service.stats()["caches"]
        assert caches["workloads"]["evictions"] >= 2
        assert caches["profiles"]["evictions"] >= 2
        for engine in ("simulate", "analytic"):
            assert run(seeds[0], engine) == before[seeds[0], engine]
        assert renders == [*seeds, seeds[0]]
