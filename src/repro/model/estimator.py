"""Closed-form policy estimators: the ``engine="analytic"`` fast path.

Every estimator turns a :class:`~repro.model.profile.WorkloadProfile`
plus a :class:`~repro.memory.specs.HybridMemorySpec` into the same
:class:`~repro.mmu.simulator.RunResult` the simulator produces — an
integer :class:`AccessAccounting` scored through the *identical*
Eq. 1-3 model layer (``compute_performance`` / ``compute_power`` /
``compute_nvm_writes`` / ``endurance_report``) — without replaying a
single request.  Following the authors' analytical model
(arXiv:1903.10067), adapted to this repo's exact Algorithm 1:

``dram-only*`` / ``nvm-only*``
    A single LRU list is exact under Mattson stack analysis: an access
    hits iff its reuse distance is below the frame count.  The CLOCK /
    CLOCK-Pro / CAR variants are approximated by their LRU envelope
    (they are LRU approximations by design; the variant tests pin
    their hit ratios within a few percent of LRU).

``proposed``
    Faults are exact (reuse distance at combined capacity).  The
    DRAM/NVM hit split propagates tier membership along each page's
    access chain: a page enters DRAM on its faults and is demoted to
    NVM once enough DRAM-head events (fault fills plus DRAM hits of
    staler pages) accumulate between two of its accesses — which
    captures the post-warm-up regime where faults stop and membership
    freezes wherever warm-up left it, exactly where a steady-state
    occupancy model goes degenerate.  Promotions come from the
    windowed-counter Markov chain (:mod:`repro.model.markov`): Che
    characteristic times of the NVM queue and the two counter windows
    give the chain's transition probabilities, absorption gives the
    per-residency promotion probability, and the mean hitting time
    bounds the flow over a finite run.

``clock-dwf``
    DRAM holds (approximately) the ``C_d`` most recently *written*
    pages, so DRAM membership is a write-recency stack test; write
    hits are always served in DRAM (an NVM write swaps the page in
    first), read hits serve wherever the page sits, write faults fill
    DRAM and read faults fill NVM.

Estimates land within the bounds asserted in
``tests/test_model_validation.py`` on the Fig. 4 grid at orders of
magnitude more configurations per second than simulation once a
workload's profile is built.
"""

from __future__ import annotations

import weakref
from dataclasses import fields as _dataclass_fields
from dataclasses import replace as _replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.core.config import MigrationConfig
from repro.memo import ByteLRU
from repro.memory.accounting import AccessAccounting, WearAccounting
from repro.memory.endurance import compute_nvm_writes, endurance_report
from repro.memory.metrics import compute_performance
from repro.memory.power import compute_power
from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import RunResult
from repro.model.markov import (
    characteristic_time,
    promotion_probability,
    promotion_steps,
    survival_probability,
)
from repro.model.profile import WorkloadProfile, profile_workload

if TYPE_CHECKING:
    from repro.experiments.runspec import RunSpec

__all__ = [
    "ANALYTIC_POLICIES",
    "UnsupportedPolicyError",
    "analytic_reference",
    "estimate_run",
    "estimate_spec",
    "supports_policy",
]

#: Policy names (and prefixes, for the single-tier replacement
#: variants) the analytic engine can estimate.
ANALYTIC_POLICIES = ("proposed", "clock-dwf", "dram-only*", "nvm-only*")

_CONFIG_FIELDS = tuple(f.name for f in _dataclass_fields(MigrationConfig))

#: Byte budget of the profile cache.  A profile costs 25 B per request
#: (int64 distances, write distances and page index, bool write flag),
#: so one default-scale grid of profiles is about 19.7 MB; 32 MiB holds
#: a grid with room to spare, and an audit never re-profiles.
PROFILE_BUDGET_BYTES = 32 * 2**20

#: Profiles are expensive relative to estimates, so estimate_spec keeps
#: one per rendered workload while it stays within the budget.  Worker
#: processes each build their own.
_PROFILES: ByteLRU[WorkloadProfile] = ByteLRU(PROFILE_BUDGET_BYTES)  # repro: worker-local


class UnsupportedPolicyError(ValueError):
    """The analytic engine has no closed form for this policy."""


def supports_policy(policy: str) -> bool:
    """Whether the analytic engine can estimate ``policy``."""
    return (
        policy in ("proposed", "clock-dwf")
        or policy.startswith("dram-only")
        or policy.startswith("nvm-only")
    )


# ---------------------------------------------------------------------------
# Integerisation helpers
# ---------------------------------------------------------------------------
def _bounded(estimate: float, upper: int) -> int:
    """Round an expected count into ``[0, upper]``."""
    return min(upper, max(0, round(estimate)))


def _page_histogram(values: np.ndarray, page_ids: np.ndarray) -> dict[int, int]:
    """Per-page expected write counts as the wear histogram."""
    rounded = np.rint(values).astype(np.int64)
    mask = rounded > 0
    # tolist() materialises native ints in C; zipping numpy scalars
    # through int() is several times slower on wide histograms.
    return dict(zip(page_ids[mask].tolist(), rounded[mask].tolist()))


def _eviction_split(
    evictions: int, dirty_fraction: float
) -> tuple[int, int]:
    dirty = _bounded(evictions * dirty_fraction, evictions)
    return evictions - dirty, dirty


# ---------------------------------------------------------------------------
# Tier-membership propagation (proposed policy)
# ---------------------------------------------------------------------------
def _fill_residency(
    page_index: np.ndarray,
    fault: np.ndarray,
    distinct: np.ndarray,
    frames: int,
    dram_hits: np.ndarray | None = None,
) -> np.ndarray:
    """Per-access DRAM residency under fill-into-DRAM dynamics.

    A page enters DRAM on each of its faults.  Between two consecutive
    accesses of the same page it sinks one LRU position per *distinct*
    page that touches the DRAM head (a fault fill or a DRAM hit — an
    LRU position drops once per distinct intervener, however often
    that page is re-hit); once it sinks past the last of ``frames``
    positions it is demoted to NVM and stays there until its next
    fault (promotions are layered on separately).  The gap pressure is
    therefore the DRAM-touch event count capped by the gap's distinct
    page count — which is exactly the access's LRU stack distance
    (``distinct``).

    The DRAM-hit pressure itself depends on residency, so callers run
    two passes: fills-only first, then once more with the first pass's
    residency as the DRAM-hit indicator.
    """
    n = int(fault.shape[0])
    if n == 0 or frames <= 0:
        return np.zeros(n, dtype=bool)
    order = np.argsort(page_index, kind="stable")
    seg = page_index[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = seg[1:] != seg[:-1]
    position = order  # original positions, ascending within a segment

    fill_cumsum = np.cumsum(fault.astype(np.int64))
    fault_sorted = fault[order]
    # Events strictly inside the gap (previous access, this access):
    # inclusive prefix at this access minus its own event, minus the
    # inclusive prefix at the previous access of the same page.
    pressure = np.zeros(n, dtype=np.int64)
    pressure[1:] = (
        fill_cumsum[position[1:]] - fault[position[1:]]
        - fill_cumsum[position[:-1]]
    )
    if dram_hits is not None:
        hit_cumsum = np.cumsum(dram_hits.astype(np.int64))
        gap_hits = np.zeros(n, dtype=np.int64)
        gap_hits[1:] = (
            hit_cumsum[position[1:]] - dram_hits[position[1:]]
            - hit_cumsum[position[:-1]]
        )
        pressure += gap_hits
    demoted = np.minimum(pressure, distinct[position]) >= frames
    demoted[starts] = False  # a first access is a fault, not a gap
    # A gap-demotion superseded by a fault at the same access leaves no
    # net demote event: the fault refills the page into DRAM.
    demoted &= ~fault_sorted

    # Residency at an access = the page's most recent fault is more
    # recent than its most recent demotion.  Segmented "last event
    # position" via offset-shifted running maxima (offsets keep the
    # accumulate from leaking across page segments).
    rank = np.arange(n, dtype=np.int64)
    offset = (np.cumsum(starts) - 1) * np.int64(n + 1)
    last_fault = np.maximum.accumulate(
        offset + np.where(fault_sorted, rank + 1, 0)
    )
    last_demote = np.maximum.accumulate(
        offset + np.where(demoted, rank + 1, 0)
    )
    # Exclusive of the current access: shift one step inside segments.
    prior_fault = np.empty(n, dtype=np.int64)
    prior_fault[1:] = last_fault[:-1]
    prior_demote = np.empty(n, dtype=np.int64)
    prior_demote[1:] = last_demote[:-1]
    prior_fault[starts] = offset[starts]
    prior_demote[starts] = offset[starts]

    resident_sorted = ~fault_sorted & ~demoted & (prior_fault > prior_demote)
    resident = np.empty(n, dtype=bool)
    resident[order] = resident_sorted
    return resident


# ---------------------------------------------------------------------------
# Per-policy estimators (AccessAccounting + WearAccounting)
# ---------------------------------------------------------------------------
def _single_tier(
    profile: WorkloadProfile, spec: HybridMemorySpec, nvm: bool
) -> tuple[AccessAccounting, WearAccounting]:
    capacity = spec.nvm_pages if nvm else spec.dram_pages
    reads_total = profile.read_requests
    writes_total = profile.write_requests
    span = profile.measured
    distance = profile.distances[span]
    is_write = profile.is_write[span]
    hit = (distance >= 0) & (distance < capacity)
    read_faults = _bounded(
        profile.weighted(~hit & ~is_write), reads_total
    )
    write_faults = _bounded(
        profile.weighted(~hit & is_write), writes_total
    )
    read_hits = reads_total - read_faults
    write_hits = writes_total - write_faults
    faults = read_faults + write_faults
    free = max(0, capacity - min(profile.warmup_distinct, capacity))
    evictions = max(0, faults - free)
    written_pages = profile.page_write_counts > 0
    dirty_fraction = (
        float(np.count_nonzero(written_pages)) / profile.page_ids.size
        if profile.page_ids.size else 0.0
    )
    clean, dirty = _eviction_split(evictions, dirty_fraction)
    accounting = AccessAccounting(
        read_requests=reads_total,
        write_requests=writes_total,
        dram_read_hits=0 if nvm else read_hits,
        dram_write_hits=0 if nvm else write_hits,
        nvm_read_hits=read_hits if nvm else 0,
        nvm_write_hits=write_hits if nvm else 0,
        read_faults=read_faults,
        write_faults=write_faults,
        faults_filled_dram=0 if nvm else faults,
        faults_filled_nvm=faults if nvm else 0,
        clean_evictions=clean,
        dirty_evictions=dirty,
    )
    wear = WearAccounting(page_factor=spec.page_factor)
    if nvm:
        wear.request_writes = write_hits
        wear.fault_fill_writes = faults * spec.page_factor
        index = profile.page_index[span]
        npages = profile.page_ids.size
        hit_writes = np.bincount(
            index[hit & is_write], minlength=npages
        ) * profile.weight
        fills = np.bincount(index[~hit], minlength=npages) * profile.weight
        wear.page_writes = _page_histogram(
            hit_writes + fills * spec.page_factor, profile.page_ids
        )
    return accounting, wear


#: Config-independent stage of the proposed-policy estimate, cached
#: per (profile identity, memory geometry): membership propagation and
#: the per-page reductions cost ``O(n)`` over the access arrays, while
#: the config-dependent Markov stage is ``O(pages)`` — caching this
#: stage is what makes parameter sweeps orders of magnitude faster
#: than simulation.  Entries hold a weak reference to the profile: an
#: ``id()`` key is trusted only while its profile is alive, and the
#: cache never keeps a profile resident after ``_PROFILES`` evicts it.
#: Worker processes each build their own.
_MEMBERSHIP: dict[tuple, tuple] = {}  # repro: worker-local
_MEMBERSHIP_LIMIT = 16


def _proposed_membership(
    profile: WorkloadProfile, dram_frames: int, nvm_frames: int
) -> dict:
    key = (id(profile), dram_frames, nvm_frames)
    cached = _MEMBERSHIP.get(key)
    if cached is not None and cached[0]() is profile:
        return cached[1]
    total_frames = dram_frames + nvm_frames
    npages = profile.page_ids.size
    span = profile.measured
    index = profile.page_index
    span_index = index[span]
    is_write = profile.is_write[span]

    # Faults are exact: an access misses the combined memory iff more
    # than ``total_frames`` distinct pages intervened since its last
    # use.  Membership propagation covers warm-up too — residency at
    # the measurement boundary is set by warm-up fill pressure.
    fault_full = (profile.distances < 0) | (
        profile.distances >= total_frames
    )
    warm = _fill_residency(index, fault_full, profile.distances,
                           dram_frames)
    in_dram = _fill_residency(index, fault_full, profile.distances,
                              dram_frames, dram_hits=warm)

    fault = fault_full[span]
    dram_hit = in_dram[span]
    nvm_hit = ~fault & ~dram_hit

    def _count(mask: np.ndarray) -> np.ndarray:
        return np.bincount(
            span_index[mask], minlength=npages
        ) * profile.weight

    nvm_reads = _count(nvm_hit & ~is_write)
    nvm_writes = _count(nvm_hit & is_write)
    nvm_hits = nvm_reads + nvm_writes

    # Promotion statistics run over the *full* prefix (warm-up
    # included): a hot page demoted by the cold-fill scan promotes
    # back during warm-up and serves its whole measured region from
    # DRAM — the accounting never sees that promotion, only its
    # effect.  NVM-queue touch rates (hits plus fill/demotion
    # arrivals) set the Che characteristic times of the queue and of
    # both counter windows; survival across those times gives the
    # chain's transitions.
    prefix_n = int(fault_full.shape[0])
    nvm_full = ~fault_full & ~in_dram
    nvm_prefix = np.bincount(index[nvm_full], minlength=npages).astype(
        np.float64
    )
    fault_prefix = np.bincount(index[fault_full], minlength=npages)
    rates = (nvm_prefix + fault_prefix) / max(prefix_n, 1)
    nvm_full_reads = np.bincount(
        index[nvm_full & ~profile.is_write], minlength=npages
    ).astype(np.float64)
    data = {
        "read_faults": _bounded(
            profile.weighted(fault & ~is_write), profile.read_requests
        ),
        "write_faults": _bounded(
            profile.weighted(fault & is_write), profile.write_requests
        ),
        "fault_flow": _count(fault),
        "nvm_reads": nvm_reads,
        "nvm_writes": nvm_writes,
        "nvm_hits": nvm_hits,
        "nvm_warm": np.maximum(
            nvm_prefix - nvm_hits / profile.weight, 0.0
        ),
        "rates": rates,
        "in_queue": survival_probability(
            rates, characteristic_time(rates, nvm_frames)
        ),
        "read_fraction": np.where(
            nvm_prefix > 0,
            nvm_full_reads / np.maximum(nvm_prefix, 1e-12),
            0.0,
        ),
        "window_survival": {},  # per window-pages Che solve, on demand
    }
    if len(_MEMBERSHIP) >= _MEMBERSHIP_LIMIT:
        _MEMBERSHIP.clear()
    _MEMBERSHIP[key] = (weakref.ref(profile), data)
    return data


def _proposed(
    profile: WorkloadProfile,
    spec: HybridMemorySpec,
    config: MigrationConfig,
) -> tuple[AccessAccounting, WearAccounting]:
    reads_total = profile.read_requests
    writes_total = profile.write_requests
    requests = profile.requests
    dram_frames = spec.dram_pages
    nvm_frames = spec.nvm_pages
    total_frames = dram_frames + nvm_frames
    read_window = config.read_window_pages(nvm_frames)
    write_window = config.write_window_pages(nvm_frames)

    npages = profile.page_ids.size
    stage = _proposed_membership(profile, dram_frames, nvm_frames)
    read_faults = stage["read_faults"]
    write_faults = stage["write_faults"]
    faults = read_faults + write_faults
    fault_flow = stage["fault_flow"]
    nvm_reads = stage["nvm_reads"]
    nvm_writes = stage["nvm_writes"]
    nvm_hits = stage["nvm_hits"]
    nvm_warm = stage["nvm_warm"]
    rates = stage["rates"]
    in_queue = stage["in_queue"]
    read_fraction = stage["read_fraction"]

    # --- Promotion flow: the windowed-counter Markov chain ------------
    def _window_survival(window: int) -> np.ndarray:
        cached = stage["window_survival"].get(window)
        if cached is None:
            cached = survival_probability(
                rates, characteristic_time(rates, window)
            )
            stage["window_survival"][window] = cached
        return cached

    in_read_window = _window_survival(read_window)
    in_write_window = _window_survival(write_window)
    survive_read = promotion_probability(
        in_read_window, in_queue, read_fraction, config.read_threshold
    )
    survive_write = promotion_probability(
        in_write_window, in_queue, 1.0 - read_fraction,
        config.write_threshold,
    )
    promoted = 1.0 - (1.0 - survive_read) * (1.0 - survive_write)
    # Absorption is infinite-horizon (it saturates at one when the NVM
    # queue never evicts), so the per-NVM-access promotion hazard is
    # the absorption probability times the renewal rate (one over the
    # mean accesses-to-promote).
    renewal = np.clip(
        1.0 / promotion_steps(
            in_read_window, in_queue, read_fraction, config.read_threshold
        )
        + 1.0 / promotion_steps(
            in_write_window, in_queue, 1.0 - read_fraction,
            config.write_threshold,
        ),
        0.0, 1.0,
    )
    hazard = np.clip(promoted * renewal, 0.0, 1.0)

    # Measured-region effect of promotions, iterated to consistency:
    # a page promoted by the measurement boundary (probability
    # ``1 - (1-hazard)^warmup_nvm_accesses``) serves its measured NVM
    # accesses from DRAM; one promoted mid-measurement converts its
    # remaining accesses; and each promotion holds only as long as
    # fill/swap pressure lets the page keep its DRAM frame.
    measured_nvm = nvm_hits  # weighted measured NVM accesses per page
    lam = profile.page_counts * profile.weight / max(requests, 1)
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-np.minimum(hazard, 1.0 - 1e-15))
    promoted_by_boundary = -np.expm1(nvm_warm * log_miss)
    raw_measured = measured_nvm / profile.weight
    # E[accesses before promotion] truncated at the measured count.
    expect_wait = np.where(
        hazard > 0.0,
        -np.expm1(raw_measured * log_miss) / np.maximum(hazard, 1e-300),
        raw_measured,
    )
    frozen_converted = (
        promoted_by_boundary * raw_measured
        + (1.0 - promoted_by_boundary)
        * np.maximum(raw_measured - expect_wait, 0.0)
    ) * profile.weight
    converted = np.zeros(npages)
    promotions_measured = np.zeros(npages)
    previous_total = -1.0
    for _ in range(5):
        promotions_expected = float(np.sum(promotions_measured))
        if abs(promotions_expected - previous_total) < 0.25:
            break
        previous_total = promotions_expected
        pressure = (faults + promotions_expected) / max(requests, 1)
        if pressure > 0.0:
            keep = survival_probability(lam, dram_frames / pressure)
        else:
            keep = (lam > 0).astype(np.float64)
        streak = keep / np.maximum(1.0 - keep, 1e-12)
        events = (
            promoted_by_boundary + promotions_measured
            + (1.0 - promoted_by_boundary)
            * -np.expm1(raw_measured * log_miss)
        )
        converted = np.minimum(
            frozen_converted, events * streak * profile.weight
        )
        converted = np.minimum(converted, measured_nvm)
        promotions_measured = hazard * (measured_nvm - converted)
    promotions_expected = float(np.sum(promotions_measured))
    moved_reads = converted * read_fraction
    moved_writes = converted * (1.0 - read_fraction)

    # Integerise: faults are stack-exact per direction; membership plus
    # the promotion adjustment split the hits; complements absorb
    # rounding so validate() holds.
    nvm_read_hits = _bounded(
        float(np.sum(nvm_reads - moved_reads)), reads_total - read_faults
    )
    nvm_write_hits = _bounded(
        float(np.sum(nvm_writes - moved_writes)),
        writes_total - write_faults,
    )
    dram_read_hits = reads_total - read_faults - nvm_read_hits
    dram_write_hits = writes_total - write_faults - nvm_write_hits
    promotions = _bounded(promotions_expected, requests)

    free_dram = max(0, dram_frames - min(profile.warmup_distinct, dram_frames))
    free_total = max(
        0, total_frames - min(profile.warmup_distinct, total_frames)
    )
    demotions = max(0, faults + promotions - free_dram)
    evictions = max(0, faults - free_total)
    flow_total = float(np.sum(fault_flow))
    dirty_fraction = (
        float(np.sum(fault_flow * (profile.page_write_counts > 0)))
        / flow_total if flow_total > 0.0 else 0.0
    )
    clean, dirty = _eviction_split(evictions, dirty_fraction)

    accounting = AccessAccounting(
        read_requests=reads_total,
        write_requests=writes_total,
        dram_read_hits=dram_read_hits,
        dram_write_hits=dram_write_hits,
        nvm_read_hits=nvm_read_hits,
        nvm_write_hits=nvm_write_hits,
        read_faults=read_faults,
        write_faults=write_faults,
        faults_filled_dram=faults,
        migrations_to_dram=promotions,
        migrations_to_nvm=demotions,
        clean_evictions=clean,
        dirty_evictions=dirty,
    )
    wear = WearAccounting(page_factor=spec.page_factor)
    wear.request_writes = nvm_write_hits
    wear.migration_writes = demotions * spec.page_factor
    demote_per_page = fault_flow + promotions_measured
    wear.page_writes = _page_histogram(
        np.maximum(nvm_writes - moved_writes, 0.0)
        + demote_per_page * spec.page_factor,
        profile.page_ids,
    )
    return accounting, wear


def _clock_dwf(
    profile: WorkloadProfile, spec: HybridMemorySpec
) -> tuple[AccessAccounting, WearAccounting]:
    reads_total = profile.read_requests
    writes_total = profile.write_requests
    dram_frames = spec.dram_pages
    total_frames = spec.total_pages
    span = profile.measured
    distance = profile.distances[span]
    write_distance = profile.write_distances[span]
    is_write = profile.is_write[span]

    hit = (distance >= 0) & (distance < total_frames)
    # DRAM holds the most recently written pages: membership is a
    # write-recency stack test (never-written pages live in NVM).
    in_dram = (write_distance >= 0) & (write_distance < dram_frames)

    read_faults = _bounded(profile.weighted(~hit & ~is_write), reads_total)
    write_faults = _bounded(profile.weighted(~hit & is_write), writes_total)
    # Write hits always end up served in DRAM (an NVM write swaps the
    # page in first), so NVM write hits are structurally zero.
    dram_write_hits = writes_total - write_faults
    nvm_read_hits = _bounded(
        profile.weighted(hit & ~is_write & ~in_dram),
        reads_total - read_faults,
    )
    dram_read_hits = reads_total - read_faults - nvm_read_hits

    swaps = _bounded(
        profile.weighted(hit & is_write & ~in_dram), dram_write_hits
    )
    free_dram = max(0, dram_frames - min(profile.warmup_distinct, dram_frames))
    demotions = swaps + max(0, write_faults - free_dram)
    free_total = max(
        0, total_frames - min(profile.warmup_distinct, total_frames)
    )
    faults = read_faults + write_faults
    evictions = max(0, faults - free_total)
    written_pages = profile.page_write_counts > 0
    dirty_fraction = (
        float(np.count_nonzero(written_pages)) / profile.page_ids.size
        if profile.page_ids.size else 0.0
    )
    clean, dirty = _eviction_split(evictions, dirty_fraction)

    accounting = AccessAccounting(
        read_requests=reads_total,
        write_requests=writes_total,
        dram_read_hits=dram_read_hits,
        dram_write_hits=dram_write_hits,
        nvm_read_hits=nvm_read_hits,
        read_faults=read_faults,
        write_faults=write_faults,
        faults_filled_dram=write_faults,
        faults_filled_nvm=read_faults,
        migrations_to_dram=swaps,
        migrations_to_nvm=demotions,
        clean_evictions=clean,
        dirty_evictions=dirty,
    )
    wear = WearAccounting(page_factor=spec.page_factor)
    wear.fault_fill_writes = read_faults * spec.page_factor
    wear.migration_writes = demotions * spec.page_factor
    index = profile.page_index[span]
    npages = profile.page_ids.size
    read_fills = np.bincount(
        index[~hit & ~is_write], minlength=npages
    ) * profile.weight
    total_writes = float(profile.page_write_counts.sum())
    demote_share = (
        profile.page_write_counts / total_writes if total_writes else
        np.zeros(npages)
    )
    wear.page_writes = _page_histogram(
        (read_fills + demotions * demote_share) * spec.page_factor,
        profile.page_ids,
    )
    return accounting, wear


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def estimate_run(
    profile: WorkloadProfile,
    spec: HybridMemorySpec,
    policy: str = "proposed",
    overrides: Mapping[str, object] | None = None,
    inter_request_gap: float = 0.0,
    workload: str | None = None,
) -> RunResult:
    """Estimate one run analytically; same RunResult shape as a
    simulation, scored through the identical Eq. 1-3 model layer."""
    if not supports_policy(policy):
        supported = ", ".join(ANALYTIC_POLICIES)
        raise UnsupportedPolicyError(
            f"the analytic engine cannot estimate policy {policy!r} "
            f"(supported: {supported}); use engine=\"simulate\""
        )
    if overrides and policy != "proposed":
        raise UnsupportedPolicyError(
            f"the analytic engine takes no overrides for {policy!r} "
            "(only \"proposed\" accepts MigrationConfig fields)"
        )
    if policy == "proposed":
        config_overrides = dict(overrides or {})
        unknown = sorted(set(config_overrides) - set(_CONFIG_FIELDS))
        if unknown:
            known = ", ".join(_CONFIG_FIELDS)
            raise UnsupportedPolicyError(
                f"analytic \"proposed\" overrides must be MigrationConfig "
                f"fields ({known}); got {unknown}"
            )
        accounting, wear = _proposed(
            profile, spec, MigrationConfig(**config_overrides)  # type: ignore[arg-type]
        )
    elif policy == "clock-dwf":
        accounting, wear = _clock_dwf(profile, spec)
    else:
        accounting, wear = _single_tier(
            profile, spec, nvm=policy.startswith("nvm-only")
        )
    accounting.validate()
    performance = compute_performance(accounting, spec)
    power = compute_power(
        accounting, spec, performance, inter_request_gap=inter_request_gap
    )
    nvm_writes = compute_nvm_writes(accounting, spec)
    elapsed = (
        (performance.memory_time + inter_request_gap)
        * accounting.total_requests
    )
    endurance = endurance_report(wear, spec, elapsed_seconds=elapsed or None)
    return RunResult(
        workload=workload or profile.name,
        policy=policy,
        spec=spec,
        accounting=accounting,
        wear=wear,
        performance=performance,
        power=power,
        nvm_writes=nvm_writes,
        endurance=endurance,
    )


def estimate_spec(spec: "RunSpec", instance=None) -> RunResult:
    """Analytic counterpart of ``RunSpec.execute()``: render (or reuse)
    the workload profile, apply the machine transform, estimate."""
    if instance is None:
        instance = spec.render()
    warmup = (
        instance.warmup_fraction if spec.warmup_fraction is None
        else spec.warmup_fraction
    )
    cache_key = (
        # External sources key by content digest (names can collide).
        spec.source.digest if spec.source is not None else spec.workload,
        spec.request_scale, spec.footprint_scale,
        spec.seed, warmup,
    )
    profile = _PROFILES.get(cache_key)
    if profile is None:
        profile = profile_workload(instance, warmup_fraction=warmup)
        _PROFILES[cache_key] = profile
    return estimate_run(
        profile,
        spec.machine_spec(instance),
        policy=spec.policy,
        overrides=dict(spec.policy_overrides) or None,
        inter_request_gap=instance.inter_request_gap,
        workload=spec.workload,
    )


def analytic_reference(spec: "RunSpec") -> "RunSpec":
    """The analytic twin of ``spec``: same workload/policy/machine,
    ``engine="analytic"``.

    Cross-engine comparisons (accuracy benchmarks, sampled-engine
    error triangulation) want the closed-form estimate for exactly the
    cell a simulated or sampled spec describes.  Engine-specific
    fields that the analytic engine rejects (``events``, ``sampling``)
    are dropped in the same stroke.

    Raises :class:`UnsupportedPolicyError` when the spec's policy has
    no closed form (``ANALYTIC_POLICIES``).
    """
    if not supports_policy(spec.policy):
        raise UnsupportedPolicyError(
            f"no analytic reference for policy {spec.policy!r}; "
            f"supported: {', '.join(ANALYTIC_POLICIES)}"
        )
    return _replace(spec, engine="analytic", events=None, sampling=None)
