"""Tests for the analytic engine: Markov solvers, workload profiling,
tier-membership propagation, the estimators and the RunSpec plumbing
(engine identity, digests, cache integration)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.executor import ParallelExecutor, ResultCache
from repro.experiments.runspec import ENGINES, RunSpec
from repro.mmu.simulator import RunResult
from repro.model import (
    ANALYTIC_POLICIES,
    UnsupportedPolicyError,
    characteristic_time,
    estimate_run,
    estimate_spec,
    profile_trace,
    profile_workload,
    promotion_probability,
    supports_policy,
    survival_probability,
)
from repro.model.estimator import _fill_residency
from repro.model.markov import occupancy, promotion_steps
from repro.trace.mrc import stack_distances
from repro.trace.trace import Trace
from repro.workloads.parsec import parsec_workload

SCALE = 0.0005  # fast grid scale shared with the validation suite


def _list_walk(pages, moves):
    """Reference recency-stack distances by an ``O(n * d)`` list walk.

    Each access reports how many pages sit above its page in the stack
    (-1 if absent); an access with ``moves[i]`` set then moves its page
    to the top.  Moving on every access gives Mattson stack distances;
    moving on writes only gives write-recency distances.
    """
    stack: list[int] = []          # most recent last
    distances = []
    for page, move in zip(pages, moves):
        if page in stack:
            location = stack.index(page)
            distances.append(len(stack) - 1 - location)
            if move:
                stack.pop(location)
        else:
            distances.append(-1)
        if move:
            stack.append(page)
    return distances


def _trace(pages, writes=None, name="t"):
    pages = list(pages)
    writes = [False] * len(pages) if writes is None else list(writes)
    return Trace(
        name=name,
        pages=np.asarray(pages, dtype=np.int64),
        is_write=np.asarray(writes, dtype=bool),
    )


# ---------------------------------------------------------------------------
# Markov-chain building blocks
# ---------------------------------------------------------------------------
class TestCharacteristicTime:
    def test_everything_fits_never_evicts(self):
        rates = np.array([0.1, 0.2, 0.3])
        assert characteristic_time(rates, 3) == np.inf
        assert characteristic_time(rates, 10) == np.inf

    def test_empty_or_zero_capacity(self):
        assert characteristic_time(np.array([]), 4) == 0.0
        assert characteristic_time(np.array([0.5]), 0) == 0.0

    def test_fixed_point_satisfies_che_equation(self):
        rng = np.random.default_rng(7)
        rates = rng.uniform(0.001, 0.2, size=64)
        for capacity in (4, 16, 48):
            t = characteristic_time(rates, capacity)
            assert occupancy(rates, t) == pytest.approx(capacity, rel=1e-6)

    def test_monotone_in_capacity(self):
        rates = np.linspace(0.01, 0.2, 32)
        times = [characteristic_time(rates, c) for c in (4, 8, 16)]
        assert times[0] < times[1] < times[2]


class TestSurvival:
    def test_edges(self):
        rates = np.array([0.0, 0.5])
        assert survival_probability(rates, 0.0).tolist() == [0.0, 0.0]
        assert survival_probability(rates, np.inf).tolist() == [0.0, 1.0]

    def test_matches_closed_form(self):
        rates = np.array([0.25])
        assert survival_probability(rates, 2.0)[0] == pytest.approx(
            1.0 - np.exp(-0.5)
        )


class TestPromotionChain:
    def test_threshold_zero_is_geometric_race(self):
        # Any same-direction access promotes; racing death at 1 - A.
        in_window = np.array([0.3])
        in_queue = np.array([0.6])
        fraction = np.array([1.0])
        win = 0.6 * 1.0  # tick + restart = A * f when f covers both
        expected = win / (win + (1.0 - 0.6))
        got = promotion_probability(in_window, in_queue, fraction, 0)
        assert got[0] == pytest.approx(expected)

    def test_immortal_resident_always_promotes(self):
        # in_queue == 1: the page never ages out, so promotion (at any
        # finite threshold) is certain as long as it ticks at all.
        p = promotion_probability(
            np.array([0.9]), np.array([1.0]), np.array([0.5]), 4
        )
        assert p[0] == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_threshold(self):
        in_window = np.array([0.5])
        in_queue = np.array([0.8])
        fraction = np.array([0.7])
        probs = [
            promotion_probability(in_window, in_queue, fraction, t)[0]
            for t in (0, 1, 4, 16)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_steps_lower_bound_and_monotone(self):
        in_window = np.array([0.5])
        in_queue = np.array([0.9])
        fraction = np.array([0.5])
        steps = [
            promotion_steps(in_window, in_queue, fraction, t)[0]
            for t in (0, 1, 4, 16)
        ]
        assert steps[0] >= 1.0
        assert all(a <= b for a, b in zip(steps, steps[1:]))

    def test_steps_threshold_zero_is_inverse_rate(self):
        s = promotion_steps(
            np.array([0.25]), np.array([0.5]), np.array([1.0]), 0
        )
        assert s[0] == pytest.approx(1.0 / 0.5)


# ---------------------------------------------------------------------------
# Workload profiling
# ---------------------------------------------------------------------------
class TestProfile:
    def test_write_distance_tracks_written_ordering(self):
        # Pages 0,1,2 written in order, then page 0 read: two distinct
        # pages (1, 2) written since 0's last write.
        trace = _trace([0, 1, 2, 0], writes=[True, True, True, False])
        profile = profile_trace(trace)
        assert profile.write_distances.tolist() == [-1, -1, -1, 2]

    def test_boundary_and_measured_slice(self):
        trace = _trace(range(10))
        profile = profile_trace(trace, warmup_fraction=0.3)
        assert profile.boundary == 3
        assert profile.requests == 7
        assert profile.measured == slice(3, 10)
        assert profile.warmup_distinct == 3

    def test_sample_cap_scales_weight(self):
        trace = _trace(list(range(5)) * 40)
        profile = profile_trace(trace, sample_cap=100)
        assert profile.sampled == 100
        assert profile.weight == pytest.approx(2.0)
        assert profile.requests == 200  # totals stay exact

    def test_profile_workload_uses_instance_warmup(self):
        instance = parsec_workload("dedup", request_scale=SCALE)
        profile = profile_workload(instance)
        total = len(instance.trace.pages)
        assert profile.boundary == int(total * instance.warmup_fraction)
        assert profile.requests == total - profile.boundary


_ACCESSES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), st.booleans()),
    max_size=200,
)
_REPEATED = [(5, True), (5, False)] * 6
_MIXED = [(page, page % 3 == 0) for page in (0, 1, 2, 0, 3, 1, 4, 0, 2, 5)]


@settings(max_examples=150, deadline=None)
@given(
    accesses=_ACCESSES,
    warmup=st.sampled_from([0.0, 0.5, 0.99]) | st.floats(0.0, 0.99),
    sample_cap=st.none() | st.integers(min_value=1, max_value=250),
)
@example(accesses=[], warmup=0.0, sample_cap=None)
@example(accesses=[(3, True)], warmup=0.0, sample_cap=None)
@example(accesses=_REPEATED, warmup=0.0, sample_cap=None)
@example(accesses=[(p, False) for p, _ in _MIXED], warmup=0.0,
         sample_cap=None)
@example(accesses=[(p, True) for p, _ in _MIXED], warmup=0.0,
         sample_cap=None)
@example(accesses=_MIXED, warmup=0.99, sample_cap=None)
@example(accesses=_MIXED, warmup=0.2, sample_cap=3)
def test_profile_distances_match_list_walk(accesses, warmup, sample_cap):
    pages = [page for page, _ in accesses]
    writes = [written for _, written in accesses]
    trace = _trace(pages, writes)
    profile = profile_trace(trace, warmup_fraction=warmup,
                            sample_cap=sample_cap)
    limit = profile.boundary + profile.sampled
    expected = _list_walk(pages, [True] * len(pages))
    expected_writes = _list_walk(pages, writes)
    assert profile.distances.dtype == np.int64
    assert profile.write_distances.dtype == np.int64
    assert profile.distances.tolist() == expected[:limit]
    assert profile.write_distances.tolist() == expected_writes[:limit]
    if not any(writes):
        assert (profile.write_distances == -1).all()
    capped = len(pages) if sample_cap is None else min(len(pages),
                                                       sample_cap)
    assert stack_distances(trace, sample_cap=sample_cap).tolist() == \
        expected[:capped]


# ---------------------------------------------------------------------------
# Tier-membership propagation
# ---------------------------------------------------------------------------
class TestFillResidency:
    def _inputs(self, pages, frames):
        trace = _trace(pages)
        profile = profile_trace(trace)
        fault = (profile.distances < 0) | (profile.distances >= 1 << 30)
        return profile.page_index, fault, profile.distances, frames

    def test_rehit_page_stays_resident(self):
        # Page 0 re-accessed every other slot: one distinct intervener
        # per gap, below frames=2, so it is never demoted.
        pages = [0, 1, 0, 2, 0, 3, 0, 4, 0]
        index, fault, distinct, frames = self._inputs(pages, 2)
        resident = _fill_residency(index, fault, distinct, frames)
        own = resident[np.asarray(pages) == 0]
        assert own.tolist() == [False] + [True] * 4  # fault then hits

    def test_wide_gap_demotes(self):
        # Page 0's second access comes after 4 distinct fills with
        # frames=2: sunk past the list end, so not resident (and no
        # later fault to re-admit it).
        pages = [0, 1, 2, 3, 4, 0]
        index, fault, distinct, frames = self._inputs(pages, 2)
        resident = _fill_residency(index, fault, distinct, frames)
        assert not resident[5]

    def test_refault_readmits(self):
        # Same wide gap, but capacity 4 < 5 distinct pages makes the
        # return access a fault at total capacity in the caller; here
        # model the fault mask directly: a faulting access re-enters.
        pages = [0, 1, 2, 3, 4, 0, 0]
        trace = _trace(pages)
        profile = profile_trace(trace)
        fault = (profile.distances < 0) | (profile.distances >= 4)
        resident = _fill_residency(
            profile.page_index, fault, profile.distances, 2
        )
        assert fault[5]  # the return access itself faults back in
        assert resident[6]  # and the follow-up hit is DRAM-resident

    def test_dram_hit_pressure_counts(self):
        # Without hit pressure page 1 survives its gap (only one fill);
        # page 0's two DRAM re-hits of a *single* distinct page add one
        # more distinct intervener and push page 1 out of 2 frames.
        pages = [0, 1, 0, 0, 5, 1]
        index, fault, distinct, frames = self._inputs(pages, 2)
        no_hits = _fill_residency(index, fault, distinct, frames)
        assert no_hits[5]
        with_hits = _fill_residency(index, fault, distinct, frames,
                                    dram_hits=no_hits)
        assert not with_hits[5]

    def test_empty_and_zero_frames(self):
        index, fault, distinct, _ = self._inputs([0, 1, 0], 2)
        assert _fill_residency(index, fault, distinct, 0).tolist() == [
            False, False, False,
        ]
        empty = np.array([], dtype=np.int64)
        assert _fill_residency(
            empty, empty.astype(bool), empty, 4
        ).shape == (0,)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------
class TestEstimators:
    @pytest.fixture(scope="class")
    def instance(self):
        return parsec_workload("dedup", request_scale=SCALE)

    @pytest.fixture(scope="class")
    def profile(self, instance):
        return profile_workload(instance)

    def test_single_tier_hit_ratio_is_exact(self, instance, profile):
        for policy in ("dram-only", "nvm-only"):
            spec = RunSpec.core("dedup", policy, request_scale=SCALE)
            sim = spec.execute(instance=instance)
            est = estimate_run(
                profile, spec.machine_spec(instance), policy=policy,
                inter_request_gap=instance.inter_request_gap,
            )
            assert est.accounting.hit_ratio == pytest.approx(
                sim.accounting.hit_ratio, abs=1e-9
            )
            assert est.accounting.total_requests == \
                sim.accounting.total_requests

    def test_estimates_validate_and_score(self, instance, profile):
        for policy in ("proposed", "clock-dwf"):
            spec = RunSpec.core("dedup", policy, request_scale=SCALE)
            result = estimate_run(
                profile, spec.machine_spec(instance), policy=policy,
                inter_request_gap=instance.inter_request_gap,
            )
            assert isinstance(result, RunResult)
            assert result.performance.amat > 0
            assert result.power.appr > 0
            result.accounting.validate()  # internally consistent

    def test_unsupported_policy_raises(self, instance, profile):
        with pytest.raises(UnsupportedPolicyError, match="pdram"):
            estimate_run(profile, instance.spec, policy="pdram")
        assert not supports_policy("pdram")
        assert supports_policy("proposed")
        assert supports_policy("dram-only-clock")
        assert "proposed" in ANALYTIC_POLICIES

    def test_overrides_only_for_proposed(self, instance, profile):
        with pytest.raises(UnsupportedPolicyError, match="overrides"):
            estimate_run(profile, instance.spec, policy="clock-dwf",
                         overrides={"read_threshold": 4})
        with pytest.raises(UnsupportedPolicyError, match="MigrationConfig"):
            estimate_run(profile, instance.spec, policy="proposed",
                         overrides={"bogus_knob": 1})

    def test_threshold_sensitivity_direction(self, instance, profile):
        promos = []
        for threshold in (1, 64):
            result = estimate_run(
                profile, instance.spec, policy="proposed",
                overrides={"read_threshold": threshold,
                           "write_threshold": threshold},
            )
            promos.append(result.accounting.migrations_to_dram)
        assert promos[0] > promos[1]  # lower threshold, more promotions


# ---------------------------------------------------------------------------
# RunSpec engine identity and digests
# ---------------------------------------------------------------------------
class TestEngineSpec:
    def test_engines_vocabulary(self):
        assert ENGINES == ("simulate", "analytic", "sampled")
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(workload="dedup", engine="quantum")

    def test_pre_engine_digests_unchanged(self):
        # Golden digests computed at the seed commit, before the engine
        # field existed: default-engine specs must keep them so warm
        # on-disk caches stay valid.
        golden = {
            RunSpec(workload="dedup"): "40b471fba25ce8a941b10cec",
            RunSpec.core("canneal", "dram-only", seed=7):
                "5f501987ffc8a0a96076d4bd",
            RunSpec(workload="x264", policy="proposed",
                    policy_overrides={"read_threshold": 8},
                    warmup_fraction=0.25):
                "e52033067415d6ec4c7fcff7",
        }
        for spec, digest in golden.items():
            assert spec.digest() == digest

    def test_analytic_digest_distinct_and_stable(self):
        simulate = RunSpec(workload="dedup")
        analytic = RunSpec(workload="dedup", engine="analytic")
        assert analytic.digest() != simulate.digest()
        assert analytic.digest() == "e021d6c06c8d079fe146f5b4"
        assert analytic != simulate
        assert analytic.key() != simulate.key()

    def test_round_trip_preserves_engine(self):
        spec = RunSpec(workload="vips", engine="analytic",
                       policy_overrides={"read_threshold": 4})
        back = RunSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.digest() == spec.digest()
        # Legacy payloads (no engine key) deserialise as simulations.
        legacy = spec.to_dict()
        del legacy["engine"]
        assert RunSpec.from_dict(legacy).engine == "simulate"

    def test_label_names_non_default_engine(self):
        assert "analytic" in RunSpec(workload="dedup",
                                     engine="analytic").label()
        assert "simulate" not in RunSpec(workload="dedup").label()

    def test_core_transform_independent_of_engine(self):
        # The single-module normalisation is derived from the policy
        # name alone: analytic baselines get the same transform.
        for policy, transform in (("dram-only", ("dram-only",)),
                                  ("nvm-only", ("nvm-only",)),
                                  ("nvm-only-clock", ("nvm-only",))):
            sim = RunSpec.core("dedup", policy)
            ana = RunSpec.core("dedup", policy, engine="analytic")
            assert sim.spec_transform == transform
            assert ana.spec_transform == transform

    def test_analytic_rejects_events_and_factory(self):
        from repro.obs.config import EventConfig

        with pytest.raises(ValueError, match="event stream"):
            RunSpec(workload="dedup", engine="analytic",
                    events=EventConfig(trace=True))
        spec = RunSpec(workload="dedup", engine="analytic",
                       request_scale=SCALE)
        with pytest.raises(ValueError, match="factory"):
            spec.execute(factory=lambda mm: None)


# ---------------------------------------------------------------------------
# Execution plumbing: estimate_spec, executor, cache
# ---------------------------------------------------------------------------
class TestEnginePlumbing:
    def test_execute_dispatches_to_estimator(self):
        spec = RunSpec.core("dedup", "proposed", request_scale=SCALE,
                            engine="analytic")
        direct = estimate_spec(spec)
        via_execute = spec.execute()
        assert via_execute.accounting.to_dict() == \
            direct.accounting.to_dict()
        assert via_execute.events is None

    def test_profile_cache_reuse(self):
        from repro.model import estimator

        estimator._PROFILES.clear()
        first = RunSpec.core("dedup", "proposed", request_scale=SCALE,
                             engine="analytic")
        second = RunSpec.core("dedup", "clock-dwf", request_scale=SCALE,
                              engine="analytic")
        estimate_spec(first)
        assert len(estimator._PROFILES) == 1
        profile = next(iter(estimator._PROFILES.values()))
        estimate_spec(second)
        assert len(estimator._PROFILES) == 1
        assert next(iter(estimator._PROFILES.values())) is profile

    def test_executor_and_cache_treat_analytic_as_ordinary(self, tmp_path):
        specs = [
            RunSpec.core("dedup", policy, request_scale=SCALE,
                         engine="analytic")
            for policy in ("proposed", "dram-only")
        ]
        cold = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        first = cold.submit(specs)
        assert cold.stats.cache_misses == 2
        warm = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        second = warm.submit(specs)
        assert warm.stats.cache_hits == 2
        assert warm.stats.simulated == 0
        for a, b in zip(first, second):
            assert a.accounting.to_dict() == b.accounting.to_dict()
            assert a.policy == b.policy

    def test_analytic_and_simulate_cache_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(jobs=1, cache=cache)
        sim = RunSpec.core("dedup", "dram-only", request_scale=SCALE)
        ana = RunSpec.core("dedup", "dram-only", request_scale=SCALE,
                           engine="analytic")
        executor.submit([sim, ana])
        assert executor.stats.cache_misses == 2  # distinct entries


#: sha256 of the canonical JSON ``RunResult.to_dict()`` of analytic
#: Fig. 4 cells at ``SCALE``, recorded with the Fenwick-tree profile
#: that the vectorised stack-distance kernel replaced: every estimate
#: must stay bit-identical.
_ANALYTIC_GOLDEN = {
    "dedup/clock-dwf":
        "af73c886ceaa78d6765af4622de6aa15c24a677dce4c87e66b7340eba949f007",
    "dedup/proposed":
        "1d6f83be9e2e3b65f3ae5a30e17a92c4da62dcbb7dfe285e35e14997f660834f",
    "streamcluster/clock-dwf":
        "f3fcae2596fa4ada246b26456a0dd400491d41eabfe47546809a37b36006c71d",
    "streamcluster/proposed":
        "c88bcb8ba2b9f5bd251236042cd077d2ca1fed6cb5247fa7619305201a5e3f15",
    "raytrace/clock-dwf":
        "e408efe6b016dbd16f16f9a233f8f62b1a70b45f38285c4ae43a0c03e36aa065",
    "raytrace/proposed":
        "1d7cbe187aa1ba7e87f506885a94e5e9e532283c3367e47614179905294afcff",
    "canneal/clock-dwf":
        "b097ae3dd157fc806e106382982f032164d667f2a451336d9dd8fba16440a5fa",
    "canneal/proposed":
        "66373685eff08f3e0412bf35c9e07eaa71b2804b192713734053588a280ed629",
}


@pytest.mark.parametrize("cell", sorted(_ANALYTIC_GOLDEN))
def test_analytic_cells_bit_identical(cell):
    workload, policy = cell.split("/")
    result = RunSpec.core(workload, policy, request_scale=SCALE,
                          engine="analytic").execute()
    text = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
        _ANALYTIC_GOLDEN[cell]
