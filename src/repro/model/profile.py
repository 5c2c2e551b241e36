"""Workload statistics consumed by the analytic engine.

A :class:`WorkloadProfile` is the one-pass reduction of a rendered
trace that the policy estimators (:mod:`repro.model.estimator`) work
from.  It captures per-access:

* **LRU stack distances** — the classic Mattson reuse distance, so an
  access hits a ``C``-frame LRU memory iff its distance is below
  ``C``.  This makes the single-tier estimates exact and anchors every
  hybrid estimate's total hit/miss split.
* **Write-recency distances** — the page's position in the
  most-recently-*written* ordering, which decides DRAM membership
  under CLOCK-DWF (DRAM holds roughly the ``C_d`` most recently
  written pages).
* **Page identity** (``page_index``) — so the estimators can walk each
  page's access chain (tier-membership propagation for the proposed
  policy) and accumulate per-page reference rates for the Che/Markov
  occupancy model.

Arrays cover the warm-up prefix *and* the measured region — the
estimators need warm-up history because tier membership at the
measurement boundary is set by warm-up fill pressure — while the
request totals and per-page counts describe the measured region only,
exactly the region the simulator scores.

Both distance arrays come from
:func:`repro.trace.mrc.stack_distance_arrays`, the repository's one
stack-distance kernel: a stable argsort finds each access's previous
occurrence, and a vectorised wavelet-matrix dominance count turns
those into distinct-page counts in ``O(n log n)`` int32 numpy work.
Long measured regions are truncated at ``sample_cap`` accesses; counts
over the per-access arrays then carry a scale-up ``weight``, while the
totals stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.mrc import stack_distance_arrays
from repro.trace.trace import Trace
from repro.workloads.parsec import WorkloadInstance

__all__ = ["WorkloadProfile", "profile_trace", "profile_workload"]

#: Default bound on the measured span of the per-access arrays;
#: longer measured regions are profiled on a prefix and scaled up by
#: ``weight``.
DEFAULT_SAMPLE_CAP = 400_000


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-access and per-page statistics of one rendered workload.

    The per-access arrays (``distances`` / ``write_distances`` /
    ``is_write`` / ``page_index``) span ``[0, boundary + sampled)`` of
    the trace: the warm-up prefix followed by the (possibly truncated)
    measured region.  Counts taken over the measured span scale to the
    full measured region by ``weight``; the request totals and the
    per-page count arrays are exact over the measured span as stored.
    """

    name: str
    requests: int
    read_requests: int
    write_requests: int
    boundary: int
    sampled: int
    weight: float
    distances: np.ndarray = field(repr=False)
    write_distances: np.ndarray = field(repr=False)
    is_write: np.ndarray = field(repr=False)
    page_index: np.ndarray = field(repr=False)
    page_ids: np.ndarray = field(repr=False)
    page_counts: np.ndarray = field(repr=False)
    page_write_counts: np.ndarray = field(repr=False)
    warmup_distinct: int
    footprint: int

    @property
    def measured(self) -> slice:
        """Slice selecting the measured span of the per-access arrays."""
        return slice(self.boundary, self.boundary + self.sampled)

    @property
    def write_ratio(self) -> float:
        return self.write_requests / self.requests if self.requests else 0.0

    @property
    def nbytes(self) -> int:
        """Bytes held by the per-access and per-page arrays."""
        return sum(value.nbytes for value in vars(self).values()
                   if isinstance(value, np.ndarray))

    def weighted(self, mask: np.ndarray) -> float:
        """Scale a measured-span mask up to measured-region counts."""
        return float(np.count_nonzero(mask)) * self.weight


def profile_trace(
    trace: Trace,
    warmup_fraction: float = 0.0,
    sample_cap: int | None = DEFAULT_SAMPLE_CAP,
    name: str | None = None,
) -> WorkloadProfile:
    """Profile a trace around the simulator's warm-up boundary."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    pages = np.asarray(trace.pages)
    writes = np.asarray(trace.is_write)
    total = int(pages.shape[0])
    boundary = int(total * warmup_fraction) if warmup_fraction > 0.0 else 0
    measured = total - boundary
    sampled = measured if sample_cap is None else min(measured, sample_cap)
    limit = boundary + sampled

    distances, write_distances = stack_distance_arrays(
        pages[:limit], writes[:limit]
    )
    page_ids, inverse = np.unique(pages[:limit], return_inverse=True)
    inverse = inverse.astype(np.int64)
    measured_writes = writes[boundary:]
    span_index = inverse[boundary:limit]
    page_counts = np.bincount(span_index, minlength=page_ids.shape[0])
    page_write_counts = np.bincount(
        span_index,
        weights=writes[boundary:limit].astype(np.float64),
        minlength=page_ids.shape[0],
    ).astype(np.int64)
    warmup_distinct = (
        int(np.unique(pages[:boundary]).shape[0]) if boundary else 0
    )
    return WorkloadProfile(
        name=name or trace.name,
        requests=measured,
        read_requests=int(measured) - int(measured_writes.sum()),
        write_requests=int(measured_writes.sum()),
        boundary=boundary,
        sampled=sampled,
        weight=(measured / sampled) if sampled else 1.0,
        distances=distances,
        write_distances=write_distances,
        is_write=writes[:limit],
        page_index=inverse,
        page_ids=page_ids,
        page_counts=page_counts.astype(np.int64),
        page_write_counts=page_write_counts,
        warmup_distinct=warmup_distinct,
        footprint=int(np.unique(pages).shape[0]) if total else 0,
    )


def profile_workload(
    instance: WorkloadInstance,
    warmup_fraction: float | None = None,
    sample_cap: int | None = DEFAULT_SAMPLE_CAP,
) -> WorkloadProfile:
    """Profile a rendered workload at its own (or an overridden)
    warm-up boundary."""
    warmup = (instance.warmup_fraction if warmup_fraction is None
              else warmup_fraction)
    return profile_trace(
        instance.trace,
        warmup_fraction=warmup,
        sample_cap=sample_cap,
        name=instance.name,
    )
