"""Differential test of the miss-driven LRU kernel of the baselines.

``SingleTierPolicy.access_batch`` replays a stock-LRU chunk by visiting
faults only: hits are totalled in bulk, victims come from a lazy heap
keyed by last access, and the queue is relinked once per touched page
at the end of the chunk.  Its contract is the per-request ``access``
loop's ``RunResult``, byte for byte.  These tests generate
phase-shifting traces and compare the two on degenerate and ordinary
machines (one frame, fewer frames than pages, room for every page),
with and without a warm-up boundary inside the trace, across chunkings
(one request per call, a ragged prime, mid-size spans, the whole
trace) and with the event stream on.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import HybridMemorySimulator
from repro.obs.config import EventConfig
from repro.policies.registry import policy_factory
from repro.trace.trace import Trace

POLICIES = ("dram-only", "nvm-only")

#: Chunkings every replay must agree across: one request per call,
#: a ragged prime, mid-size spans, and the whole trace in one call.
CHUNK_SIZES = (1, 7, 96, None)

phase = st.tuples(
    st.integers(min_value=0, max_value=40),    # first page of the phase
    st.integers(min_value=1, max_value=24),    # pages in the phase
    st.integers(min_value=1, max_value=150),   # requests in the phase
    st.sampled_from((0.0, 1.0, 3.0)),          # skew toward low pages
    st.sampled_from((0.0, 0.3, 1.0)),          # write ratio
)


def _trace(phases, seed: int, offset: int) -> Trace:
    """Concatenated phases, each skewed over its own page window."""
    rng = np.random.default_rng(seed)
    pages = []
    writes = []
    for first, span, length, skew, write_ratio in phases:
        draws = rng.random(length) ** (1.0 + skew)
        pages.append(first + (draws * span).astype(np.int64))
        writes.append(rng.random(length) < write_ratio)
    return Trace(np.concatenate(pages) + offset, np.concatenate(writes),
                 name="phases")


def _spec(policy: str, capacity: int) -> HybridMemorySpec:
    base = HybridMemorySpec.for_footprint(64)
    if policy == "dram-only":
        return replace(base, dram_pages=capacity, nvm_pages=0)
    return replace(base, dram_pages=0, nvm_pages=capacity)


def _result(trace: Trace, policy: str, capacity: int, *, batch: bool,
            chunk_size: int | None, warmup: float, events: bool) -> str:
    simulator = HybridMemorySimulator(
        _spec(policy, capacity), policy_factory(policy), sanitize=False,
        batch=batch,
        events=EventConfig(buckets=5, trace=True) if events else None,
    )
    result = simulator.run_source(trace, chunk_size=chunk_size,
                                  warmup_fraction=warmup)
    return json.dumps(result.to_dict())


@settings(max_examples=120, deadline=None)
@given(
    phases=st.lists(phase, min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(POLICIES),
    capacity_mode=st.sampled_from(("one", "below", "cover")),
    warmup=st.sampled_from((0.0, 0.4)),
    events=st.booleans(),
    # Page numbers too wide to pack beside the request index take the
    # dense-rank sort.
    offset=st.sampled_from((0, 2**58)),
)
def test_kernel_matches_per_request_loop(phases, seed, policy,
                                         capacity_mode, warmup, events,
                                         offset):
    trace = _trace(phases, seed, offset)
    footprint = len(np.unique(trace.pages))
    capacity = {
        "one": 1,
        "below": max(1, footprint * 2 // 3),
        "cover": footprint + 2,
    }[capacity_mode]
    reference = _result(trace, policy, capacity, batch=False,
                        chunk_size=None, warmup=warmup, events=events)
    for chunk_size in CHUNK_SIZES:
        assert _result(trace, policy, capacity, batch=True,
                       chunk_size=chunk_size, warmup=warmup,
                       events=events) == reference, (
            f"{policy} capacity={capacity} chunk_size={chunk_size} "
            "diverged from the per-request loop"
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_sanitized_kernel_matches_per_request_loop(policy):
    """The sanitizer drives the kernel one request per call and checks
    every bookkeeping invariant in between; the bytes still match."""
    trace = _trace([(0, 20, 300, 1.0, 0.3), (10, 30, 300, 0.0, 0.5)],
                   seed=5, offset=0)
    spec = _spec(policy, 16)
    sanitized = HybridMemorySimulator(spec, policy_factory(policy),
                                      sanitize=True)
    reference = _result(trace, policy, 16, batch=False, chunk_size=None,
                        warmup=0.0, events=False)
    assert json.dumps(sanitized.run(trace).to_dict()) == reference
