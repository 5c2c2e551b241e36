"""Miss-ratio curves via Mattson's stack algorithm.

The paper sizes memory as 75 % of the workload's footprint (Section
V-A); a miss-ratio curve (MRC) shows what that rule buys: for an LRU
(stack) policy, one pass over the trace yields the miss ratio at
*every* capacity simultaneously, because LRU possesses the inclusion
property — the content of a size-C cache is a subset of a size-C+1
cache, so an access hits at capacity C iff its stack distance is
below C.

Used by the capacity ablation and available as library tooling for
sizing studies on user traces.  :func:`stack_distance_arrays` is the
repository's one stack-distance kernel; the analytic engine's workload
profile (:mod:`repro.model.profile`) is built on it too.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.trace.trace import Trace


@dataclass(frozen=True)
class MissRatioCurve:
    """Miss ratio as a function of LRU capacity (in pages)."""

    capacities: tuple[int, ...]
    miss_ratios: tuple[float, ...]
    total_accesses: int
    cold_misses: int

    def miss_ratio_at(self, capacity: int) -> float:
        """Miss ratio at a capacity (steps between computed points).

        The curve is exact at every integer capacity because the
        distance histogram is kept at full resolution; this accessor
        interpolates by step (LRU miss ratio is right-continuous and
        non-increasing in capacity).
        """
        if capacity <= 0:
            return 1.0
        index = bisect.bisect_right(self.capacities, capacity) - 1
        if index < 0:
            return 1.0
        return self.miss_ratios[index]

    def hit_ratio_at(self, capacity: int) -> float:
        return 1.0 - self.miss_ratio_at(capacity)

    def capacity_for(self, target_miss_ratio: float) -> int:
        """Smallest computed capacity whose miss ratio <= target."""
        for capacity, miss in zip(self.capacities, self.miss_ratios):
            if miss <= target_miss_ratio:
                return capacity
        return self.capacities[-1] if self.capacities else 0

    @property
    def compulsory_miss_ratio(self) -> float:
        """Cold misses / accesses: the floor no capacity removes."""
        if self.total_accesses == 0:
            return 0.0
        return self.cold_misses / self.total_accesses


def _count_greater(
    values: np.ndarray, prefix: np.ndarray, bound: np.ndarray
) -> np.ndarray:
    """``#{j < prefix[q] : values[j] > bound[q]}`` for every query ``q``.

    One top-down wavelet-matrix pass answers all queries together.
    Each level stably partitions ``values`` by one bit, zeros first,
    and maps every query's range onto the side its bound's bit
    selects; where that bit is zero, the range's one-bits are values
    strictly greater than the bound and are counted.  ``values`` and
    ``bound`` are non-negative int32, and ``values`` is overwritten.
    The pass runs ``log2(max)`` levels over a fixed set of buffers
    (about 13 bytes per value and 25 per query) and allocates nothing
    per level.
    """
    queries = int(bound.shape[0])
    counts = np.zeros(queries, dtype=np.int32)
    if not queries:
        return counts
    top = max(int(values.max()), int(bound.max()))
    current = values
    spare = np.empty_like(current)
    rank0 = np.zeros(current.shape[0] + 1, dtype=np.int32)
    zero = np.empty(current.shape[0], dtype=bool)
    lo = np.zeros(queries, dtype=np.int32)
    hi = prefix.astype(np.int32)
    lo0 = np.empty(queries, dtype=np.int32)
    hi0 = np.empty(queries, dtype=np.int32)
    low = np.empty(queries, dtype=bool)
    for shift in range(top.bit_length() - 1, -1, -1):
        np.right_shift(current, shift, out=spare)
        np.bitwise_and(spare, 1, out=spare)
        np.equal(spare, 0, out=zero)
        np.cumsum(zero, out=rank0[1:])
        zeros = int(rank0[-1])
        np.right_shift(bound, shift, out=lo0)
        np.bitwise_and(lo0, 1, out=lo0)
        np.equal(lo0, 0, out=low)
        # Unbuffered gathers: every range end lies inside rank0.
        np.take(rank0, lo, out=lo0, mode="clip")
        np.take(rank0, hi, out=hi0, mode="clip")
        # lo/hi become one-ranks; their difference counts the range's
        # one-bits, all greater than a bound whose bit is zero.
        lo -= lo0
        hi -= hi0
        np.add(counts, hi, out=counts, where=low)
        np.subtract(counts, lo, out=counts, where=low)
        lo += zeros
        hi += zeros
        np.copyto(lo, lo0, where=low)
        np.copyto(hi, hi0, where=low)
        np.compress(zero, current, out=spare[:zeros])
        np.logical_not(zero, out=zero)
        np.compress(zero, current, out=spare[zeros:])
        current, spare = spare, current
    return counts


def stack_distance_arrays(
    pages: np.ndarray, is_write: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Mattson stack distance and write-recency distance per access.

    ``distances[i]`` is the number of distinct pages accessed since
    access ``i``'s page was last accessed (-1 on first touch).
    ``write_distances[i]`` is the number of distinct pages *written*
    since the page was last *written* (-1 if not written before
    ``i``): its 0-based position in the most-recently-written order.
    It is ``None`` when ``is_write`` is not given.

    With ``prev[i]`` the previous occurrence of access ``i``'s page,
    found by one stable argsort::

        distance[i] = (i - prev[i] - 1) - #{j < i : prev[j] > prev[i]}

    The write distance is the same count over the write subsequence,
    queried at every access with its page's last write before it.
    Each count is its own :func:`_count_greater` pass, run one after
    the other so only one pass's buffers are alive: ``O(n log n)``
    int32 numpy work and ``O(n)`` memory.
    """
    pages = np.asarray(pages)
    total = int(pages.shape[0])
    if total >= np.iinfo(np.int32).max:
        raise ValueError("trace too long for int32 stack distances")
    order = np.argsort(pages, kind="stable").astype(np.int32)
    repeat = pages[order[1:]] == pages[order[:-1]]
    previous = np.full(total, -1, dtype=np.int32)
    previous[order[1:][repeat]] = order[:-1][repeat]
    if is_write is not None:
        writes = np.asarray(is_write, dtype=bool)
        position = np.arange(total, dtype=np.int32)
        # Last write of the same page strictly before each access: a
        # running maximum of write slots along the stable order, read
        # one slot late and kept only inside the page's own run.
        written_slot = np.where(writes[order], position, -1)
        np.maximum.accumulate(written_slot, out=written_slot)
        run_start = np.where(np.concatenate(([True], ~repeat)), position, 0)
        np.maximum.accumulate(run_start, out=run_start)
        inside = written_slot[:-1] >= run_start[1:]
        last_write = np.full(total, -1, dtype=np.int32)
        last_write[order[1:][inside]] = order[written_slot[:-1][inside]]
        del position, written_slot, run_start, inside
    # Release the sort before counting: the passes then hold a few
    # int32 arrays per access at peak.
    del order, repeat

    reused = np.flatnonzero(previous >= 0).astype(np.int32)
    bound = previous[reused]
    # First touches (-1) clip to 0, which exceeds no bound (>= 0).
    repeats = _count_greater(np.maximum(previous, 0), reused, bound)
    distances = np.full(total, -1, dtype=np.int64)
    distances[reused] = reused - bound - 1 - repeats
    if is_write is None:
        return distances, None
    del previous, reused, bound, repeats
    # Writes strictly before each position: the prefix of the write
    # subsequence that each access queries.
    before = np.zeros(total, dtype=np.int32)
    np.cumsum(writes[:-1], out=before[1:])
    rewritten = np.flatnonzero(last_write >= 0).astype(np.int32)
    bound = last_write[rewritten]
    prefix = before[rewritten]
    repeats = _count_greater(np.maximum(last_write[writes], 0), prefix, bound)
    write_distances = np.full(total, -1, dtype=np.int64)
    write_distances[rewritten] = prefix - before[bound] - 1 - repeats
    return distances, write_distances


def stack_distances(trace: Trace, sample_cap: int | None = None) -> np.ndarray:
    """LRU stack distance per access; -1 marks first touches.

    Computed by :func:`stack_distance_arrays` in ``O(n log n)``;
    ``sample_cap`` bounds the analysis to the first ``sample_cap``
    accesses.
    """
    pages = np.asarray(trace.pages)
    limit = len(pages) if sample_cap is None else min(len(pages), sample_cap)
    distances, _ = stack_distance_arrays(pages[:limit])
    return distances


def miss_ratio_curve(
    trace: Trace,
    capacities: Sequence[int] | None = None,
    sample_cap: int | None = None,
) -> MissRatioCurve:
    """Compute the LRU miss-ratio curve of a trace in one stack pass.

    Parameters
    ----------
    trace:
        The memory trace.
    capacities:
        Capacities (pages) to report; defaults to a footprint-relative
        ladder (5 %, 10 %, ... 100 % of distinct pages).
    sample_cap:
        Bound on the number of accesses analysed.
    """
    distances = stack_distances(trace, sample_cap=sample_cap)
    total = int(distances.shape[0])
    if total == 0:
        return MissRatioCurve((), (), 0, 0)
    cold = int((distances == -1).sum())
    footprint = trace.unique_pages
    if capacities is None:
        ladder = sorted({
            max(1, round(footprint * fraction))
            for fraction in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75,
                             0.9, 1.0)
        })
        capacities = ladder
    reuse = distances[distances >= 0]
    # histogram of stack distances; hits at capacity C = distances < C
    histogram = np.bincount(reuse, minlength=1) if reuse.size else \
        np.zeros(1, dtype=np.int64)
    cumulative = np.cumsum(histogram)

    def hits_at(capacity: int) -> int:
        if capacity <= 0:
            return 0
        index = min(capacity - 1, cumulative.shape[0] - 1)
        return int(cumulative[index])

    miss_ratios = tuple(
        1.0 - hits_at(capacity) / total for capacity in capacities
    )
    return MissRatioCurve(
        capacities=tuple(int(c) for c in capacities),
        miss_ratios=miss_ratios,
        total_accesses=total,
        cold_misses=cold,
    )
