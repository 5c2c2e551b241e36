"""Event accounting: the bridge between simulation and the paper's models.

Every policy run fills one :class:`AccessAccounting` with raw event
counts (hits per memory and direction, page faults, migrations in both
directions, evictions).  The model layer (:mod:`repro.memory.metrics`,
:mod:`repro.memory.power`) then evaluates the paper's Eq. 1-3 directly
on these counts: the ``P*`` probabilities of Table I are the event
counts divided by the total number of requests, which makes the models
exact bookkeeping identities over a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.units import Count, Ratio


@dataclass(slots=True)
class AccessAccounting:
    """Raw event counters for one simulation run."""

    # Request stream -----------------------------------------------------
    read_requests: Count = 0
    write_requests: Count = 0

    # Hits (request served in place) --------------------------------------
    dram_read_hits: Count = 0
    dram_write_hits: Count = 0
    nvm_read_hits: Count = 0
    nvm_write_hits: Count = 0

    # Page faults ----------------------------------------------------------
    read_faults: Count = 0
    write_faults: Count = 0
    faults_filled_dram: Count = 0
    faults_filled_nvm: Count = 0

    # Migrations between the two memories ----------------------------------
    migrations_to_dram: Count = 0
    migrations_to_nvm: Count = 0

    # Evictions from memory to disk ----------------------------------------
    clean_evictions: Count = 0
    dirty_evictions: Count = 0

    # ----------------------------------------------------------------------
    # Totals
    # ----------------------------------------------------------------------
    @property
    def total_requests(self) -> Count:
        return self.read_requests + self.write_requests

    @property
    def hits(self) -> Count:
        return self.dram_hits + self.nvm_hits

    @property
    def dram_hits(self) -> Count:
        return self.dram_read_hits + self.dram_write_hits

    @property
    def nvm_hits(self) -> Count:
        return self.nvm_read_hits + self.nvm_write_hits

    @property
    def page_faults(self) -> Count:
        return self.read_faults + self.write_faults

    @property
    def migrations(self) -> Count:
        return self.migrations_to_dram + self.migrations_to_nvm

    @property
    def evictions_to_disk(self) -> Count:
        return self.clean_evictions + self.dirty_evictions

    # ----------------------------------------------------------------------
    # Table I probabilities (per total requests)
    # ----------------------------------------------------------------------
    def _ratio(self, count: Count) -> Ratio:
        total = self.total_requests
        return count / total if total else 0.0

    @property
    def p_hit_dram(self) -> Ratio:
        """``PHitDRAM``: fraction of requests served by DRAM."""
        return self._ratio(self.dram_hits)

    @property
    def p_hit_nvm(self) -> Ratio:
        """``PHitNVM``: fraction of requests served by NVM."""
        return self._ratio(self.nvm_hits)

    @property
    def p_miss(self) -> Ratio:
        """``PMiss``: fraction of requests that page-faulted."""
        return self._ratio(self.page_faults)

    @property
    def p_read_dram(self) -> Ratio:
        """``PRDRAM``: read share *within* DRAM hits."""
        return self.dram_read_hits / self.dram_hits if self.dram_hits else 0.0

    @property
    def p_write_dram(self) -> Ratio:
        """``PWDRAM``: write share within DRAM hits."""
        return self.dram_write_hits / self.dram_hits if self.dram_hits else 0.0

    @property
    def p_read_nvm(self) -> Ratio:
        """``PRNVM``: read share within NVM hits."""
        return self.nvm_read_hits / self.nvm_hits if self.nvm_hits else 0.0

    @property
    def p_write_nvm(self) -> Ratio:
        """``PWNVM``: write share within NVM hits."""
        return self.nvm_write_hits / self.nvm_hits if self.nvm_hits else 0.0

    @property
    def p_mig_d(self) -> Ratio:
        """``PMigD``: NVM->DRAM migrations per request."""
        return self._ratio(self.migrations_to_dram)

    @property
    def p_mig_n(self) -> Ratio:
        """``PMigN``: DRAM->NVM migrations per request."""
        return self._ratio(self.migrations_to_nvm)

    @property
    def p_disk_to_dram(self) -> Ratio:
        """``PDiskToD``: of the faults, the fraction filled into DRAM."""
        faults = self.page_faults
        return self.faults_filled_dram / faults if faults else 0.0

    @property
    def p_disk_to_nvm(self) -> Ratio:
        """``PDiskToN``: of the faults, the fraction filled into NVM."""
        faults = self.page_faults
        return self.faults_filled_nvm / faults if faults else 0.0

    @property
    def hit_ratio(self) -> Ratio:
        return self._ratio(self.hits)

    # ----------------------------------------------------------------------
    # Maintenance
    # ----------------------------------------------------------------------
    def validate(self) -> None:  # repro: cold
        """Raise :class:`ValueError` on internally inconsistent counts."""
        for name in _COUNTER_NAMES:
            if getattr(self, name) < 0:
                raise ValueError(f"negative counter: {name}")
        if self.hits + self.page_faults != self.total_requests:
            raise ValueError(
                "hits + faults != requests "
                f"({self.hits} + {self.page_faults} != {self.total_requests})"
            )
        read_events = self.dram_read_hits + self.nvm_read_hits + self.read_faults
        if read_events != self.read_requests:
            raise ValueError(
                f"read events ({read_events}) != read requests "
                f"({self.read_requests})"
            )
        write_events = (
            self.dram_write_hits + self.nvm_write_hits + self.write_faults
        )
        if write_events != self.write_requests:
            raise ValueError(
                f"write events ({write_events}) != write requests "
                f"({self.write_requests})"
            )
        if self.faults_filled_dram + self.faults_filled_nvm != self.page_faults:
            raise ValueError(
                "fault fills do not partition the faults: "
                f"{self.faults_filled_dram} + {self.faults_filled_nvm} "
                f"!= {self.page_faults}"
            )

    def merge(self, other: "AccessAccounting") -> "AccessAccounting":
        """Element-wise sum (combining shards of a partitioned run)."""
        merged = AccessAccounting()
        for field_info in fields(self):
            setattr(
                merged,
                field_info.name,
                getattr(self, field_info.name) + getattr(other, field_info.name),
            )
        return merged

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy of the raw counters (for reports and tests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form; inverse of :meth:`from_dict`."""
        return self.snapshot()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AccessAccounting":
        return cls(**data)


#: The counter names in declaration order.  ``validate`` runs after
#: every request under the sanitizer, and ``fields()`` rebuilds its
#: tuple on each call.
_COUNTER_NAMES: tuple[str, ...] = tuple(
    field_info.name for field_info in fields(AccessAccounting))


@dataclass(slots=True)
class WearAccounting:
    """Per-page NVM write tracking for the endurance analysis (Fig. 2c/4b).

    Counts *physical line writes* into NVM split by source, and keeps a
    per-page histogram for wear-levelling / lifetime estimates.  The
    per-source totals are in line-access units: one migrated or faulted
    page contributes ``PageFactor`` line writes, one served write
    request contributes a single line write.
    """

    page_factor: Count = 64
    fault_fill_writes: Count = 0
    migration_writes: Count = 0
    request_writes: Count = 0
    page_writes: dict[int, int] = field(default_factory=dict)

    def record_fault_fill(self, page: int) -> None:
        self.fault_fill_writes += self.page_factor
        self.page_writes[page] = (
            self.page_writes.get(page, 0) + self.page_factor
        )

    def record_migration_in(self, page: int) -> None:
        self.migration_writes += self.page_factor
        self.page_writes[page] = (
            self.page_writes.get(page, 0) + self.page_factor
        )

    def record_request_write(self, page: int) -> None:
        self.request_writes += 1
        self.page_writes[page] = self.page_writes.get(page, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form; inverse of :meth:`from_dict`.

        The per-page histogram's integer page numbers become string
        keys (JSON objects only key on strings); :meth:`from_dict`
        restores them.
        """
        return {
            "page_factor": self.page_factor,
            "fault_fill_writes": self.fault_fill_writes,
            "migration_writes": self.migration_writes,
            "request_writes": self.request_writes,
            "page_writes": {
                str(page): count for page, count in self.page_writes.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WearAccounting":
        return cls(
            page_factor=data["page_factor"],
            fault_fill_writes=data["fault_fill_writes"],
            migration_writes=data["migration_writes"],
            request_writes=data["request_writes"],
            page_writes={
                int(page): count
                for page, count in data["page_writes"].items()
            },
        )

    @property
    def total_writes(self) -> Count:
        return self.fault_fill_writes + self.migration_writes + self.request_writes

    @property
    def max_page_writes(self) -> Count:
        return max(self.page_writes.values(), default=0)

    @property
    def touched_pages(self) -> Count:
        return len(self.page_writes)
