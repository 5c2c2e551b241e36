"""CLOCK-DWF (Lee, Bahn & Noh, IEEE TC 2013) — the paper's main rival.

Reimplemented from the published algorithm description:

* Two clock algorithms, one per module.
* **NVM never serves a write**: a write request for an NVM-resident
  page immediately migrates the page to DRAM and the write is served
  there (the behaviour whose hidden migration cost Section III of the
  DATE paper exposes).
* **Page faults** fill DRAM when caused by a write and NVM when caused
  by a read — except that while DRAM still has free frames, every fault
  fills DRAM (the detail the DATE paper uses to explain blackscholes).
* The **DRAM clock is write-history aware**: each page carries a write
  frequency; the eviction hand gives written pages second chances and
  decays their frequency, so the victim is the most read-dominant page.
  DRAM victims are demoted (migrated) to NVM.
* The **NVM clock** is a plain second-chance clock; NVM victims are
  evicted to disk.
"""

from __future__ import annotations

import numpy as np

from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.policies.base import HybridMemoryPolicy
from repro.policies.replacement import ClockReplacement


class _DWFNode:
    __slots__ = ("page", "prev", "next", "write_freq")

    def __init__(self, page: int, write_freq: int) -> None:
        self.page = page
        self.prev: "_DWFNode | None" = None
        self.next: "_DWFNode | None" = None
        self.write_freq = write_freq


class WriteHistoryClock:
    """The DRAM-side clock of CLOCK-DWF.

    Each resident page carries a write frequency; a write hit increments
    it (saturating at ``max_write_freq``).  The eviction hand decrements
    positive frequencies and grants a second chance, so pages with deep
    write history survive several sweeps and the victim is the page
    longest unwritten.
    """

    def __init__(self, capacity: int, max_write_freq: int = 4) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if max_write_freq < 1:
            raise ValueError("max_write_freq must be at least 1")
        self.capacity = capacity
        self.max_write_freq = max_write_freq
        self._nodes: dict[int, _DWFNode] = {}
        self._hand: _DWFNode | None = None

    def __contains__(self, page: int) -> bool:
        return page in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def full(self) -> bool:
        return len(self._nodes) >= self.capacity

    def hit(self, page: int, is_write: bool) -> None:
        if is_write:
            node = self._nodes[page]
            node.write_freq = min(node.write_freq + 1, self.max_write_freq)

    def insert(self, page: int, written: bool) -> None:
        """Add a page; ``written`` seeds the write history (pages arrive
        in DRAM either through a write fault or a write-triggered
        migration, both of which imply an immediate write)."""
        if self.full:
            raise MemoryError("insert into full clock; evict first")
        if page in self._nodes:
            raise KeyError(f"page {page} already resident")
        node = _DWFNode(page, 1 if written else 0)
        self._nodes[page] = node
        if self._hand is None:
            node.prev = node
            node.next = node
            self._hand = node
        else:
            tail = self._hand.prev
            assert tail is not None
            tail.next = node
            node.prev = tail
            node.next = self._hand
            self._hand.prev = node

    def evict(self) -> int:
        """Choose and remove the most read-dominant victim."""
        if self._hand is None:
            raise IndexError("evict from empty clock")
        while True:
            node = self._hand
            if node.write_freq > 0:
                node.write_freq -= 1
                self._hand = node.next
            else:
                self._hand = node.next
                self._unlink(node)
                del self._nodes[node.page]
                return node.page

    def _unlink(self, node: _DWFNode) -> None:
        if node.next is node:
            self._hand = None
        else:
            assert node.prev is not None and node.next is not None
            node.prev.next = node.next
            node.next.prev = node.prev
            if self._hand is node:
                self._hand = node.next
        node.prev = None
        node.next = None

    def pages(self) -> list[int]:
        result: list[int] = []
        node = self._hand
        if node is None:
            return result
        while True:
            result.append(node.page)
            assert node.next is not None
            node = node.next
            if node is self._hand:
                break
        return result


class ClockDWFPolicy(HybridMemoryPolicy):
    """CLOCK-DWF over the shared memory-manager mechanics."""

    name = "clock-dwf"

    def __init__(self, mm: MemoryManager, max_write_freq: int = 4) -> None:
        super().__init__(mm)
        if mm.spec.dram_pages < 1 or mm.spec.nvm_pages < 1:
            raise ValueError("CLOCK-DWF needs both DRAM and NVM frames")
        self.dram_clock = WriteHistoryClock(
            mm.spec.dram_pages, max_write_freq=max_write_freq
        )
        self.nvm_clock = ClockReplacement(mm.spec.nvm_pages)

    # ------------------------------------------------------------------
    def access(self, page: int, is_write: bool) -> None:
        self.mm.record_request(is_write)
        location = self.mm.location_of(page)
        if location is PageLocation.DRAM:
            self.dram_clock.hit(page, is_write)
            self.mm.serve_hit(page, is_write)
        elif location is PageLocation.NVM:
            if is_write:
                # NVM never answers writes: promote, then serve in DRAM.
                self._promote(page)
                self.mm.serve_hit(page, True)
                self.dram_clock.hit(page, True)
            else:
                self.nvm_clock.hit(page)
                self.mm.serve_hit(page, False)
        else:
            self._page_fault(page, is_write)

    def access_batch(self, pages: np.ndarray, writes: np.ndarray) -> None:
        """Batched kernel: hit fast paths inlined, page dispatch fused.

        Bit-identical to looping over :meth:`access` (the golden
        equivalence tests assert it).  The per-request ``location_of``
        lookup, the clock-hit bookkeeping and the manager's
        ``record_request`` + ``serve_hit`` accounting are inlined for
        the two hit paths; write-triggered promotions and page faults
        keep going through the methods (they cascade through multi-step
        manager bookkeeping and are comparatively rare).  Commutative
        event counters accumulate in locals and flush once per batch in
        a ``finally`` block.  Subclasses that override ``access`` or
        replace the NVM clock fall back to the per-request loop.

        With an event bus attached, every call-out (fault, promotion,
        copy-served read) folds the deferred request counters into
        ``bus.clock`` first and the ``finally`` block folds the
        remainder, keeping the event stream byte-identical to the
        per-request path's (the inlined hit paths never emit).
        """
        cls = type(self)
        if (
            cls.access is not ClockDWFPolicy.access
            or type(self.nvm_clock) is not ClockReplacement
        ):
            super().access_batch(pages, writes)
            return

        mm = self.mm
        record_request = mm.record_request
        serve_hit = mm.serve_hit
        accounting = mm.accounting
        entries_get = mm.page_table._entries.get
        dram_nodes = self.dram_clock._nodes
        max_write_freq = self.dram_clock.max_write_freq
        nvm_nodes = self.nvm_clock._nodes
        dram_hit = self.dram_clock.hit
        promote = self._promote
        page_fault = self._page_fault
        dram_location = PageLocation.DRAM
        nvm_location = PageLocation.NVM
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

        try:
            for page, is_write in zip(pages.tolist(), writes.tolist()):
                entry = entries_get(page)
                if entry is None:
                    if bus is not None:
                        bus.clock += read_requests + write_requests - synced
                        synced = read_requests + write_requests
                    record_request(is_write)
                    page_fault(page, is_write)
                    continue
                location = entry.location
                if location is dram_location:
                    # --- DRAM hit: clock hit + serve_hit inlined ---
                    if is_write:
                        node = dram_nodes[page]
                        freq = node.write_freq + 1
                        node.write_freq = (
                            freq if freq < max_write_freq else max_write_freq
                        )
                        write_requests += 1
                        dram_write_hits += 1
                        if entry.copy_frame is not None:
                            entry.copy_dirty = True
                        entry.write_count += 1
                        entry.dirty = True
                    else:
                        read_requests += 1
                        dram_read_hits += 1
                    entry.referenced = True
                    entry.access_count += 1
                elif location is nvm_location:
                    if is_write:
                        # NVM never answers writes: promote, then serve
                        # in DRAM (multi-step; keep the method calls).
                        if bus is not None:
                            bus.clock += (
                                read_requests + write_requests - synced
                            )
                            synced = read_requests + write_requests
                        record_request(True)
                        promote(page)
                        serve_hit(page, True)
                        dram_hit(page, True)
                    else:
                        # --- NVM read hit: clock + serve_hit inlined ---
                        nvm_nodes[page].referenced = True
                        if entry.copy_frame is not None:
                            if bus is not None:
                                bus.clock += (
                                    read_requests + write_requests - synced
                                )
                                synced = read_requests + write_requests
                            record_request(False)
                            serve_hit(page, False)
                        else:
                            read_requests += 1
                            nvm_read_hits += 1
                            entry.referenced = True
                            entry.access_count += 1
                else:
                    if bus is not None:
                        bus.clock += read_requests + write_requests - synced
                        synced = read_requests + write_requests
                    record_request(is_write)
                    page_fault(page, is_write)
        finally:
            if bus is not None:
                bus.clock += read_requests + write_requests - synced
            accounting.read_requests += read_requests
            accounting.write_requests += write_requests
            accounting.dram_read_hits += dram_read_hits
            accounting.dram_write_hits += dram_write_hits
            accounting.nvm_read_hits += nvm_read_hits

    # ------------------------------------------------------------------
    def _promote(self, page: int) -> None:
        """Migrate an NVM page to DRAM on a write request."""
        events = self.mm.events
        if events is not None:
            # CLOCK-DWF's trigger is unconditional: the first NVM write
            # promotes (threshold of one write, no counter history).
            events.annotate("nvm-write", 1, 1)
        self.nvm_clock.remove(page)
        if self.mm.has_free(PageLocation.DRAM):
            self.mm.migrate(page, PageLocation.DRAM)
        else:
            victim = self.dram_clock.evict()
            self.mm.swap(page, victim)
            self.nvm_clock.insert(victim)
        self.dram_clock.insert(page, written=True)

    def _page_fault(self, page: int, is_write: bool) -> None:
        if self.mm.has_free(PageLocation.DRAM):
            # Free DRAM absorbs every fault regardless of direction.
            self.mm.fault_fill(page, PageLocation.DRAM, is_write)
            self.dram_clock.insert(page, written=is_write)
        elif is_write:
            self._demote_dram_victim()
            self.mm.fault_fill(page, PageLocation.DRAM, True)
            self.dram_clock.insert(page, written=True)
        else:
            if not self.mm.has_free(PageLocation.NVM):
                victim = self.nvm_clock.evict()
                self.mm.evict_to_disk(victim)
            self.mm.fault_fill(page, PageLocation.NVM, False)
            self.nvm_clock.insert(page)

    def _demote_dram_victim(self) -> None:
        if not self.mm.has_free(PageLocation.NVM):
            nvm_victim = self.nvm_clock.evict()
            self.mm.evict_to_disk(nvm_victim)
        victim = self.dram_clock.evict()
        self.mm.migrate(victim, PageLocation.NVM)
        self.nvm_clock.insert(victim)

    # ------------------------------------------------------------------
    def validate(self) -> None:  # repro: cold
        super().validate()
        dram_pages = set(self.mm.page_table.pages_in(PageLocation.DRAM))
        nvm_pages = set(self.mm.page_table.pages_in(PageLocation.NVM))
        if dram_pages != set(self.dram_clock.pages()):
            raise AssertionError("DRAM clock out of sync with page table")
        if nvm_pages != set(self.nvm_clock.pages()):
            raise AssertionError("NVM clock out of sync with page table")
