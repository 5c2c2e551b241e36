"""Golden equivalence of the batched kernels against the reference paths.

The batch API's contract is *bit-identical results*: driving a policy
through ``access_batch`` (the optimised kernels) must produce exactly
the ``RunResult`` the per-request ``access`` loop produces — compared
as serialised JSON, so the insertion order of the per-page wear
histogram (which feeds ``wear_cv`` and the cached bytes) is pinned
too, not just its contents — and
the vectorized cache filter must leave every cache set, statistic and
directory entry exactly as the per-access reference replay does.  These
tests pin that contract for every registered policy and across cache
geometries, so any future kernel optimisation that changes behaviour —
however slightly — fails loudly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cpu.cache import CacheGeometry
from repro.cpu.filter import filter_trace, filter_trace_vectorized
from repro.cpu.hierarchy import CacheHierarchy, cotson_hierarchy
from repro.cpu.multicore import synthesize_cpu_trace
from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import HybridMemorySimulator
from repro.policies.registry import available_policies, policy_factory
from repro.workloads.mix import mix_workloads
from repro.workloads.synthetic import zipf_workload

# ----------------------------------------------------------------------
# Policy kernels: batch vs per-request, bit-identical RunResults
# ----------------------------------------------------------------------
_ZIPF_PAGES = 400


def _zipf_trace():
    return zipf_workload(pages=_ZIPF_PAGES, requests=25_000, alpha=1.2,
                         write_ratio=0.3, seed=7)


def _mix_instance():
    return mix_workloads(("bodytrack", "streamcluster"),
                         request_scale=1 / 2000, footprint_scale=1 / 128)


def _spec_for(policy: str, footprint_pages: int) -> HybridMemorySpec:
    spec = HybridMemorySpec.for_footprint(footprint_pages)
    if policy.startswith("dram-only"):
        return spec.as_dram_only()
    if policy.startswith("nvm-only"):
        return spec.as_nvm_only()
    return spec


def _run(trace, spec, policy: str, batch: bool,
         warmup_fraction: float = 0.0) -> str:
    """The run's serialised result: ``json.dumps`` keeps dict order,
    which ``to_dict() ==`` would ignore."""
    simulator = HybridMemorySimulator(
        spec, policy_factory(policy), sanitize=False, batch=batch,
    )
    return json.dumps(
        simulator.run(trace, warmup_fraction=warmup_fraction).to_dict())


@pytest.mark.parametrize("policy", available_policies())
def test_zipf_batch_matches_per_request(policy):
    trace = _zipf_trace()
    spec = _spec_for(policy, _ZIPF_PAGES)
    assert _run(trace, spec, policy, batch=True) \
        == _run(trace, spec, policy, batch=False)


@pytest.mark.parametrize("policy", available_policies())
def test_parsec_mix_batch_matches_per_request(policy):
    mix = _mix_instance()
    spec = mix.spec
    if policy.startswith("dram-only"):
        spec = spec.as_dram_only()
    elif policy.startswith("nvm-only"):
        spec = spec.as_nvm_only()
    assert _run(mix.trace, spec, policy, batch=True) \
        == _run(mix.trace, spec, policy, batch=False)


@pytest.mark.parametrize("policy", available_policies())
def test_batch_matches_with_warmup_split(policy):
    # The simulator replays warm-up and ROI as two separate batches;
    # the split must not change anything either.
    trace = _zipf_trace()
    spec = _spec_for(policy, _ZIPF_PAGES)
    assert _run(trace, spec, policy, batch=True, warmup_fraction=0.3) \
        == _run(trace, spec, policy, batch=False, warmup_fraction=0.3)


# ----------------------------------------------------------------------
# Cache filter: vectorized vs reference, identical state and output
# ----------------------------------------------------------------------
GEOMETRIES = {
    "cotson": lambda: cotson_hierarchy(),
    "direct-mapped": lambda: CacheHierarchy(
        cores=4,
        l1_geometry=CacheGeometry(8192, 1),
        llc_geometry=CacheGeometry(65536, 1),
    ),
    "8-way": lambda: CacheHierarchy(
        cores=2,
        l1_geometry=CacheGeometry(16384, 8),
        llc_geometry=CacheGeometry(262144, 8),
    ),
    "single-set": lambda: CacheHierarchy(
        cores=3,
        l1_geometry=CacheGeometry(512, 8),
        llc_geometry=CacheGeometry(2048, 32),
    ),
}


def _hierarchy_snapshot(hierarchy: CacheHierarchy) -> dict:
    """Full observable state: sets (content *and* LRU order), stats,
    and the coherence directory (content and insertion order)."""
    return {
        "l1_sets": [
            [list(entries.items()) for entries in l1.sets_snapshot()]
            for l1 in hierarchy.l1d
        ],
        "llc_sets": [
            list(entries.items())
            for entries in hierarchy.llc.sets_snapshot()
        ],
        "l1_stats": [vars(l1.stats).copy() for l1 in hierarchy.l1d],
        "llc_stats": vars(hierarchy.llc.stats).copy(),
        "hierarchy_stats": vars(hierarchy.stats).copy(),
        "directory": {
            line: sorted(holders)
            for line, holders in hierarchy._directory.holders.items()
        },
        "directory_order": list(hierarchy._directory.holders.keys()),
    }


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("flush", [False, True])
def test_filter_equivalence(geometry, flush):
    make = GEOMETRIES[geometry]
    cores = make().cores
    trace = synthesize_cpu_trace(
        shared_pages=256, private_pages=64, requests=30_000,
        cores=cores, seed=11,
    )
    reference_hierarchy = make()
    reference = filter_trace(trace, reference_hierarchy,
                             flush_at_end=flush, vectorized=False)
    vectorized_hierarchy = make()
    vectorized = filter_trace_vectorized(trace, vectorized_hierarchy,
                                         flush_at_end=flush)

    assert np.array_equal(reference.pages, vectorized.pages)
    assert np.array_equal(reference.is_write, vectorized.is_write)
    assert reference.name == vectorized.name
    assert _hierarchy_snapshot(reference_hierarchy) \
        == _hierarchy_snapshot(vectorized_hierarchy)


def test_filter_trace_dispatches_to_vectorized_by_default():
    trace = synthesize_cpu_trace(requests=5_000, seed=3)
    default_hierarchy = cotson_hierarchy()
    default = filter_trace(trace, default_hierarchy)
    explicit_hierarchy = cotson_hierarchy()
    explicit = filter_trace_vectorized(trace, explicit_hierarchy)
    assert np.array_equal(default.pages, explicit.pages)
    assert _hierarchy_snapshot(default_hierarchy) \
        == _hierarchy_snapshot(explicit_hierarchy)
