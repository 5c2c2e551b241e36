"""Homogeneous-memory policies: the DRAM-only and NVM-only baselines.

The paper normalises every figure against one of these: power against a
DRAM-only memory of the same total capacity (Fig. 1/2a/4a), NVM writes
against an NVM-only memory (Fig. 2c/4b).  Both run a conventional
replacement algorithm (LRU by default, CLOCK/CLOCK-Pro/CAR pluggable)
over a single module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import accumulate
from typing import Callable, Sequence, cast

import numpy as np

from repro.core.lru import LRUNode
from repro.mmu.dma import channel as _dma_channel
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation, PageTableEntry
from repro.obs.events import EvictionEvent, PageFaultEvent
from repro.policies.base import HybridMemoryPolicy
from repro.policies.replacement import LRUReplacement, ReplacementAlgorithm

AlgorithmFactory = Callable[[int], ReplacementAlgorithm]


class SingleTierPolicy(HybridMemoryPolicy):
    """All pages live in one module, managed by one replacement algorithm."""

    def __init__(
        self,
        mm: MemoryManager,
        location: PageLocation,
        algorithm_factory: AlgorithmFactory = LRUReplacement,
    ) -> None:
        super().__init__(mm)
        if location is PageLocation.DRAM:
            capacity = mm.spec.dram_pages
        elif location is PageLocation.NVM:
            capacity = mm.spec.nvm_pages
        else:
            raise ValueError("single tier must be DRAM or NVM")
        if capacity < 1:
            raise ValueError(
                f"spec allocates no {location} frames; use "
                "spec.as_dram_only()/as_nvm_only() to build the baseline"
            )
        self.location = location
        self.algorithm = algorithm_factory(capacity)

    def access(self, page: int, is_write: bool) -> None:
        self.mm.record_request(is_write)
        if page in self.algorithm:
            self.algorithm.hit(page, is_write)
            self.mm.serve_hit(page, is_write)
            return
        if self.algorithm.full:
            victim = self.algorithm.evict()
            self.mm.evict_to_disk(victim)
        self.mm.fault_fill(page, self.location, is_write)
        self.algorithm.insert(page, is_write)

    def access_batch(self, pages: np.ndarray, writes: np.ndarray) -> None:
        """Batched kernel over a chunk's ``pages``/``writes`` arrays.

        Bit-identical to looping over :meth:`access` (asserted by the
        golden-equivalence tests).  With the stock window-less
        :class:`LRUReplacement` the chunk replays through the
        miss-driven kernel (:meth:`_lru_batch`): Python runs only at
        page faults.  Other algorithms (CLOCK, CLOCK-Pro, CAR, custom)
        walk the chunk once, with the manager's ``record_request`` +
        ``serve_hit`` accounting inlined for resident hits and the
        commutative counters flushed once per call in a ``finally``
        block.  Subclasses that override ``access`` fall back to the
        per-request loop.
        """
        cls = type(self)
        if cls.access is not SingleTierPolicy.access:
            super().access_batch(pages, writes)
            return
        algorithm = self.algorithm
        if type(algorithm) is LRUReplacement \
                and not algorithm._queue._windows:
            self._lru_batch(pages, writes)
            return

        mm = self.mm
        record_request = mm.record_request
        accounting = mm.accounting
        wear = mm.wear
        page_writes = wear.page_writes
        entries = mm.page_table._entries
        evict_to_disk = mm.evict_to_disk
        fault_fill = mm.fault_fill
        alg_contains = algorithm.__contains__
        alg_hit = algorithm.hit
        alg_evict = algorithm.evict
        alg_insert = algorithm.insert
        location = self.location
        dram_location = PageLocation.DRAM

        bus = mm.events
        # Requests already folded into the bus clock; the deferred
        # request counters minus this are the kernel's clock debt.
        synced = 0

        # Deferred (commutative) event counters, flushed after the loop.
        read_requests = 0
        write_requests = 0
        dram_read_hits = 0
        dram_write_hits = 0
        nvm_read_hits = 0
        nvm_write_hits = 0
        request_writes = 0

        try:
            for page, is_write in zip(pages.tolist(), writes.tolist()):
                if not alg_contains(page):
                    if bus is not None:
                        bus.clock += read_requests + write_requests - synced
                        synced = read_requests + write_requests
                    record_request(is_write)
                    if algorithm.full:
                        evict_to_disk(alg_evict())
                    fault_fill(page, location, is_write)
                    alg_insert(page, is_write)
                    continue
                alg_hit(page, is_write)
                # --- record_request + serve_hit, inlined ---
                entry = entries[page]
                if (
                    entry.location is dram_location
                    or entry.copy_frame is not None
                ):
                    if is_write:
                        write_requests += 1
                        dram_write_hits += 1
                        if entry.copy_frame is not None:
                            entry.copy_dirty = True
                        entry.write_count += 1
                        entry.dirty = True
                    else:
                        read_requests += 1
                        dram_read_hits += 1
                elif is_write:
                    write_requests += 1
                    nvm_write_hits += 1
                    request_writes += 1
                    page_writes[page] = page_writes.get(page, 0) + 1
                    entry.write_count += 1
                    entry.dirty = True
                else:
                    read_requests += 1
                    nvm_read_hits += 1
                entry.referenced = True
                entry.access_count += 1
        finally:
            if bus is not None:
                bus.clock += read_requests + write_requests - synced
            accounting.read_requests += read_requests
            accounting.write_requests += write_requests
            accounting.dram_read_hits += dram_read_hits
            accounting.dram_write_hits += dram_write_hits
            accounting.nvm_read_hits += nvm_read_hits
            accounting.nvm_write_hits += nvm_write_hits
            wear.request_writes += request_writes

    def _lru_batch(self, pages: np.ndarray, writes: np.ndarray) -> None:
        """Miss-driven LRU replay: numpy for the hits, Python per fault.

        Between two faults the resident set of an LRU memory does not
        change, so every request up to the next fault is a hit whose
        only effects are counter ticks and a move to the MRU end.  One
        sort of packed ``(page, index, write)`` keys lays each page's
        requests out contiguously in time order (``order``) with a
        running write count beside it (``cw``), so a page's access
        and write counts between two of its requests are two
        subtractions of sorted positions.

        The loop visits faults only.  Two heaps hold requests as
        ``index << bits | sorted position``.  One holds the next
        access of every non-resident page: its minimum is the next
        fault.  The victim is the resident page with the oldest last
        access:

        * pages resident before the chunk and not yet touched in it
          are older than anything touched, and among themselves keep
          the queue's order, so a walk up from the queue tail finds
          them; touched pages it passes join the second heap;
        * otherwise the second heap, which holds one request per
          resident page, keyed by its last access as known when it
          was pushed, yields the victim.  A popped key is stale when
          its page was requested again before the fault; ``bisect``
          over the page's sorted requests then re-keys it to its last
          access before the fault.  Keys only grow, so the first
          current key popped is the oldest last access: LRU evicts
          residencies in the order of their final access.

        Counters of pages faulted in the chunk start offset by the
        fault's sorted position, so adding the position just past the
        residency's final access (at eviction, or at the end of the
        chunk for survivors) yields the counts the per-request path
        would have.  The queue is then brought up to date with one
        relink per touched page: a call costs O(touched pages +
        faults · log) Python steps beside the numpy sort, never
        O(capacity).
        """
        n = len(pages)
        if not n:
            return
        mm = self.mm
        algorithm = self.algorithm
        queue = algorithm._queue
        nodes = queue._nodes
        nodes_get = nodes.get
        capacity = algorithm.capacity
        entries = mm.page_table._entries
        entries_get = entries.get
        location = self.location
        in_dram = location is PageLocation.DRAM
        allocator = mm.dram if in_dram else mm.nvm
        allocated = allocator._allocated
        freelist = allocator._free
        make_entry = PageTableEntry
        bus = mm.events

        # ---- bulk pass: the chunk's requests sorted by (page, time) ----
        page_at, write_at, order_at, cw_at, starts, ends = _page_index(
            pages, writes)
        bits = n.bit_length()
        mask = (1 << bits) - 1
        group_pages = [page_at[order_at[start]] for start in starts]
        start_of = dict(zip(group_pages, starts))
        end_of = dict(zip(group_pages, ends))
        heap = [
            order_at[start] << bits | start
            for page, start in zip(group_pages, starts)
            if page not in entries
        ]
        heap.sort()

        # ---- the fault loop --------------------------------------------
        clock = bus.clock + 1 if bus is not None else 0
        resident = len(entries)
        walk = queue._tail
        lru: list[int] = []
        read_faults = 0
        write_faults = 0
        clean_evictions = 0
        dirty_evictions = 0
        fault_positions: list[int] = []
        while heap:
            key = heappop(heap)
            t = key >> bits
            page = page_at[t]
            is_write = write_at[t]
            if resident >= capacity:
                # Untouched pre-chunk pages go first, in queue order.
                while walk is not None:
                    victim_page = walk.page
                    start = start_of.get(victim_page)
                    if start is None:
                        break
                    later = order_at[start]
                    if later > t:
                        heappush(heap, later << bits | start)
                        break
                    heappush(lru, later << bits | start)
                    walk = walk.prev
                victim: LRUNode | None
                if walk is not None:
                    victim = walk
                    walk = walk.prev
                    del nodes[victim_page]
                    entry = entries.pop(victim_page)
                else:
                    while True:
                        last = heappop(lru)
                        since = (last & mask) + 1
                        victim_page = page_at[last >> bits]
                        end = end_of[victim_page]
                        if since == end:
                            break
                        later = order_at[since]
                        if later > t:
                            heappush(heap, later << bits | since)
                            break
                        since = bisect_left(order_at, t, since, end) - 1
                        heappush(lru, order_at[since] << bits | since)
                    entry = entries.pop(victim_page)
                    entry.access_count += since
                    entry.write_count += cw_at[since]
                    victim = nodes.pop(victim_page, None)
                    if victim is not None:
                        # Resident since before the chunk.
                        start = start_of[victim_page]
                        entry.access_count -= start
                        entry.write_count -= cw_at[start]
                    if entry.write_count:
                        entry.dirty = True
                if victim is not None:
                    # LRUQueue._unlink, inlined.
                    prev = victim.prev
                    after = victim.next
                    if prev is not None:
                        prev.next = after
                    else:
                        queue._head = after
                    if after is not None:
                        after.prev = prev
                    else:
                        queue._tail = prev
                    victim.prev = victim.next = None
                # mm.evict_to_disk(victim_page), inlined.
                allocated.remove(entry.frame)
                freelist.append(entry.frame)
                if entry.dirty:
                    dirty_evictions += 1
                else:
                    clean_evictions += 1
                if bus is not None:
                    bus._pending.append(EvictionEvent(
                        index=clock + t,
                        page=victim_page,
                        from_dram=in_dram,
                        dirty=entry.dirty,
                        access_count=entry.access_count,
                        write_count=entry.write_count,
                    ))
                resident -= 1
            # mm.fault_fill(page, location, is_write), inlined; the
            # counters start offset by the fault's sorted position.
            if freelist:
                frame = freelist.pop()
            else:
                frame = allocator._next_fresh
                allocator._next_fresh = frame + 1
            allocated.add(frame)
            start = key & mask
            entries[page] = make_entry(
                page, location, frame, is_write, True, -start, -cw_at[start],
            )
            resident += 1
            heappush(lru, key)
            if is_write:
                write_faults += 1
            else:
                read_faults += 1
            fault_positions.append(start)
            if bus is not None:
                bus._pending.append(PageFaultEvent(
                    index=clock + t, page=page, to_dram=in_dram,
                    is_write=is_write,
                ))
        del lru

        # ---- settle survivors: counters and queue order -----------------
        for key in sorted([
            order_at[end - 1] << bits | group
            for group, end in enumerate(ends)
        ]):
            group = key & mask
            page = group_pages[group]
            survivor = entries_get(page)
            if survivor is None:
                continue
            node = nodes_get(page)
            end = ends[group]
            if node is None:
                # Faulted in this chunk: the offsets are already in.
                survivor.access_count += end
                survivor.write_count += cw_at[end]
            else:
                start = starts[group]
                survivor.access_count += end - start
                survivor.write_count += cw_at[end] - cw_at[start]
            survivor.referenced = True
            if survivor.write_count:
                survivor.dirty = True
            if node is None:
                node = nodes[page] = LRUNode(page)
            elif node is queue._head:
                continue
            else:
                # Not the head, so ``prev`` is set.
                prev = node.prev
                after = node.next
                if prev is not None:
                    prev.next = after
                if after is not None:
                    after.prev = prev
                else:
                    queue._tail = prev
                node.prev = None
            head = queue._head
            node.next = head
            if head is not None:
                head.prev = node
            queue._head = node
            if queue._tail is None:
                queue._tail = node
        # ---- flush the commutative counters -----------------------------
        faults = read_faults + write_faults
        evictions = clean_evictions + dirty_evictions
        write_requests = cw_at[n]
        read_requests = n - write_requests
        write_hits = write_requests - write_faults
        read_hits = read_requests - read_faults
        accounting = mm.accounting
        accounting.read_requests += read_requests
        accounting.write_requests += write_requests
        accounting.read_faults += read_faults
        accounting.write_faults += write_faults
        accounting.clean_evictions += clean_evictions
        accounting.dirty_evictions += dirty_evictions
        if in_dram:
            accounting.dram_read_hits += read_hits
            accounting.dram_write_hits += write_hits
            accounting.faults_filled_dram += faults
        else:
            accounting.nvm_read_hits += read_hits
            accounting.nvm_write_hits += write_hits
            accounting.faults_filled_nvm += faults
            wear = mm.wear
            wear.request_writes += write_hits
            wear.fault_fill_writes += wear.page_factor * faults
            if write_hits or faults:
                self._charge_page_writes(
                    order_at, cw_at, starts, ends, group_pages,
                    fault_positions,
                )
        transfers = mm.dma.transfers
        if faults:
            channel = _dma_channel(PageLocation.DISK, location)
            transfers[channel] = transfers.get(channel, 0) + faults
        if evictions:
            channel = _dma_channel(location, PageLocation.DISK)
            transfers[channel] = transfers.get(channel, 0) + evictions
        if bus is not None:
            bus.clock += n

    def _charge_page_writes(
        self,
        order_at: Sequence[int],
        cw_at: Sequence[int],
        starts: list[int],
        ends: list[int],
        group_pages: list[int],
        fault_positions: list[int],
    ) -> None:
        """Add one chunk's NVM writes to the per-page wear histogram.

        Works on the kernel's sorted order: a fault fill writes
        ``page_factor`` lines, a write hit one.  Pages new to the
        histogram are inserted in the order of their first NVM write
        in the chunk (a fault or a write request, whichever comes
        first), as the per-request path inserts them: the histogram's
        order feeds order-sensitive float sums (``wear_cv``) and the
        serialised result.
        """
        wear = self.mm.wear
        factor = wear.page_factor
        charged: dict[int, int] = {}
        first: dict[int, int] = {}
        # Faults arrive in time order, so a group's first is earliest.
        for position in fault_positions:
            group = bisect_right(starts, position) - 1
            # A write fault fills the page; it is not also a write hit.
            charged[group] = charged.get(group, 0) + factor - (
                cw_at[position + 1] - cw_at[position])
            if group not in first:
                first[group] = order_at[position]
        for group, (start, end) in enumerate(zip(starts, ends)):
            before = cw_at[start]
            if cw_at[end] == before:
                continue
            charged[group] = charged.get(group, 0) + cw_at[end] - before
            position = bisect_right(cw_at, before, start + 1, end + 1) - 1
            written = order_at[position]
            if group not in first or written < first[group]:
                first[group] = written
        page_writes = wear.page_writes
        for group in sorted(first, key=first.__getitem__):
            page = group_pages[group]
            page_writes[page] = page_writes.get(page, 0) + charged[group]

    def validate(self) -> None:  # repro: cold
        super().validate()
        self.algorithm.validate()
        resident = set(self.mm.page_table.pages_in(self.location))
        tracked = {page for page in resident if page in self.algorithm}
        if tracked != resident or len(self.algorithm) != len(resident):
            raise AssertionError("replacement state out of sync with page table")


class DramOnlyPolicy(SingleTierPolicy):
    """Conventional DRAM main memory (the paper's power baseline)."""

    name = "dram-only"

    def __init__(
        self,
        mm: MemoryManager,
        algorithm_factory: AlgorithmFactory = LRUReplacement,
    ) -> None:
        super().__init__(mm, PageLocation.DRAM, algorithm_factory)


class NvmOnlyPolicy(SingleTierPolicy):
    """All-NVM main memory (the paper's endurance baseline)."""

    name = "nvm-only"

    def __init__(
        self,
        mm: MemoryManager,
        algorithm_factory: AlgorithmFactory = LRUReplacement,
    ) -> None:
        super().__init__(mm, PageLocation.NVM, algorithm_factory)


#: Spans up to this many requests sort their page index as Python
#: lists: numpy's fixed cost per call (about 30 us over the dozen
#: array operations) outweighs its speed below roughly 100 requests,
#: and the sanitizer replays one request per call.  Both builds yield
#: the same index.
_LIST_INDEX_MAX = 64


def _page_index(
    pages: np.ndarray, writes: np.ndarray
) -> tuple[Sequence[int], Sequence[bool], Sequence[int], Sequence[int],
           list[int], list[int]]:
    """Index a span's requests by (page, time) for the LRU kernel.

    Returns ``(page_at, write_at, order, cw, starts, ends)``:
    ``order[s]`` is the request at sorted position ``s`` (stable, so
    each page's requests stay in time order), ``cw[s]`` counts the
    writes among sorted positions ``[0, s)`` (length ``n + 1``), and
    page ``g`` occupies sorted positions ``[starts[g], ends[g])``.
    ``page_at``/``write_at`` read the span itself.

    Long spans sort packed ``page << shift | index << 1 | write``
    keys in one numpy call, as int32 when they fit.  Trace pages are
    non-negative, so a leading ``-2`` sentinel key sorts first and
    turns the running write count into ``cw`` directly.
    """
    n = len(pages)
    if n <= _LIST_INDEX_MAX:
        page_list = pages.tolist()
        write_list = writes.tolist()
        order = sorted(range(n), key=page_list.__getitem__)
        cw = list(accumulate(map(write_list.__getitem__, order), initial=0))
        starts = [
            position for position in range(n)
            if not position or page_list[order[position]]
            != page_list[order[position - 1]]
        ]
        ends = starts[1:]
        ends.append(n)
        return page_list, write_list, order, cw, starts, ends
    shift = n.bit_length() + 1
    ranks = pages
    if int(ranks.max()).bit_length() + shift > 63:
        # Page numbers too large to pack: sort dense page ranks.
        ranks = np.unique(pages, return_inverse=True)[1].reshape(n)
    dtype = (np.int32 if int(ranks.max()).bit_length() + shift <= 31
             else np.int64)
    keys = np.arange(-2, 2 * n, 2, dtype=dtype)
    spare = np.empty(n + 1, dtype=dtype)
    np.left_shift(ranks, shift, out=spare[1:])
    keys[1:] |= spare[1:]
    keys[1:] |= writes
    keys.sort()
    np.bitwise_and(keys, 1, out=spare)
    running = spare.cumsum(dtype=np.int32)
    np.right_shift(keys, 1, out=spare)
    spare &= (1 << (shift - 1)) - 1
    sorted_requests = spare[1:].astype(np.int32)
    np.bitwise_xor(keys[2:], keys[1:-1], out=spare[2:])
    spare[2:] >>= shift
    bounds = spare[2:].nonzero()[0].tolist()
    del keys, spare, ranks
    starts = [0]
    starts += [bound + 1 for bound in bounds]
    ends = starts[1:]
    ends.append(n)
    # A bool array's memoryview reads back Python bools.
    return (memoryview(pages), cast("Sequence[bool]", memoryview(writes)),
            memoryview(sorted_requests), memoryview(running), starts, ends)
