"""Chunk-boundary equivalence of the streaming drive path.

The tentpole contract of the chunk-first :class:`TraceSource` API is
*bit-identical replay across chunkings*: driving any policy through
``run_source`` with chunk size 1, a ragged prime, a mid-size chunk or
the whole trace at once must produce exactly the same ``RunResult`` —
metrics, accounting, wear, and the event stream line for line.  These
tests pin that contract for every registered policy, plus the memory
side of the bargain: chunked ingest of a long stream peaks at
one-chunk memory, independent of trace length.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import HybridMemorySimulator
from repro.obs.config import EventConfig
from repro.policies.registry import available_policies, policy_factory
from repro.trace.source import IterableTraceSource, scan_source
from repro.workloads.synthetic import zipf_workload

#: The chunkings every policy must agree across: pathological (1),
#: ragged prime (7), mid-size (64), and the whole trace (None).
CHUNK_SIZES = (1, 7, 64, None)


def _trace():
    return zipf_workload(pages=150, requests=3_000, alpha=1.2,
                         write_ratio=0.3, seed=13)


def _spec_for(policy: str, pages: int) -> HybridMemorySpec:
    spec = HybridMemorySpec.for_footprint(pages)
    if policy.startswith("dram-only"):
        return spec.as_dram_only()
    if policy.startswith("nvm-only"):
        return spec.as_nvm_only()
    return spec


def _run(trace, policy: str, chunk_size, **kwargs) -> str:
    """The run's serialised result: ``json.dumps`` keeps dict order
    (the wear histogram's insertion order feeds ``wear_cv`` and the
    cached bytes), which ``to_dict() ==`` would ignore."""
    simulator = HybridMemorySimulator(
        _spec_for(policy, 150), policy_factory(policy), sanitize=False,
        **kwargs,
    )
    return json.dumps(simulator.run_source(
        trace, chunk_size=chunk_size, warmup_fraction=0.25).to_dict())


class TestChunkedMetricsEquivalence:
    @pytest.mark.parametrize("policy", available_policies())
    def test_all_policies_bit_identical_across_chunkings(self, policy):
        trace = _trace()
        whole = _run(trace, policy, None)
        for chunk_size in CHUNK_SIZES[:-1]:
            assert _run(trace, policy, chunk_size) == whole, (
                f"{policy}: chunk_size={chunk_size} diverged from "
                "whole-trace replay"
            )


class TestChunkedEventStreamEquivalence:
    @pytest.mark.parametrize("policy", ["proposed", "clock-dwf",
                                        "eager-migration"])
    def test_event_streams_identical_line_for_line(self, policy):
        trace = _trace()
        events = EventConfig(buckets=6, trace=True, classify=True)
        whole = _run(trace, policy, None, events=events)
        for chunk_size in CHUNK_SIZES[:-1]:
            chunked = _run(trace, policy, chunk_size, events=events)
            assert json.loads(chunked)["events"]["trace_lines"] \
                == json.loads(whole)["events"]["trace_lines"]
            assert chunked == whole

    def test_generator_source_matches_materialised(self):
        trace = _trace()
        events = EventConfig(buckets=6, trace=True)
        whole = _run(trace, "proposed", None, events=events)
        source = IterableTraceSource(
            lambda: iter(trace.iter_pairs()),
            name=trace.name, page_size=trace.page_size,
            request_count=len(trace),
        )
        streamed = _run(source, "proposed", 77, events=events)
        assert streamed == whole


class TestBoundedIngestMemory:
    def test_chunked_scan_peaks_at_one_chunk(self):
        """Peak memory of chunked ingest is bounded by the chunk size,
        not the stream length (the constant-memory contract)."""
        requests = 600_000  # materialised: ~5.4 MB of arrays alone
        chunk = 2_048

        def pairs():
            for i in range(requests):
                yield (i * 2_654_435_761) % 4_096, i % 3 == 0

        source = IterableTraceSource(pairs, name="long-stream")
        tracemalloc.start()
        try:
            scan = scan_source(source, chunk_size=chunk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan.requests == requests
        assert scan.unique_pages == 4_096
        # One chunk of boxed pairs plus parse buffers is well under
        # 2 MB; a whole-trace materialisation could not fit.
        assert peak < 2 * 1024 * 1024

    def test_simulate_streams_at_constant_memory(self):
        requests = 200_000
        spec = HybridMemorySpec.for_footprint(512)

        def pairs():
            for i in range(requests):
                yield (i * 48_271) % 512, i % 4 == 0

        source = IterableTraceSource(pairs, name="drive-stream",
                                     request_count=requests)
        simulator = HybridMemorySimulator(
            spec, policy_factory("proposed"), sanitize=False)
        tracemalloc.start()
        try:
            result = simulator.run_source(source, chunk_size=4_096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.accounting.total_requests == requests
        assert peak < 4 * 1024 * 1024
