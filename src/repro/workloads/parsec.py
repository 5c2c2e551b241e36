"""The twelve PARSEC-3.0 workload profiles of paper Table III.

The paper captures main-memory traces from PARSEC under the COTSon
full-system simulator.  Without PARSEC binaries, each workload is
regenerated synthetically from (a) its Table III statistics — working
set size, read/write counts — and (b) the qualitative traits the paper
uses to explain its results:

* *blackscholes*: read-only, tiny footprint, compute-bound.
* most workloads: a skewed hot set whose *write working set* is compact
  and aligned with the hottest pages (the regime CLOCK-DWF is designed
  for — its DRAM roughly holds the write-dominant pages).
* *canneal* / *fluidanimate*: writes scattered over low-locality or
  periodically swept pages, which bounces pages between the modules
  under CLOCK-DWF ("migrate a data page to NVM and after a short
  time ... back to DRAM", Section III-A).
* *raytrace*: long read bursts that straddle the proposed scheme's
  read threshold, baiting non-beneficial promotions (Section V-B).
* *vips*: write bursts near the write threshold — CLOCK-DWF's
  migrate-on-first-write handles them slightly better (Section V-B).
* *streamcluster*: "a large burst of accesses and a small memory
  footprint" — repeated sweeps, 99.8 % reads, dynamic-power dominated.

Scaling: request counts and footprints are scaled down so a trace
simulates in seconds (ratios preserved); the devices' *static power per
GB* is scaled **up** by the footprint reduction so the modelled static
power still corresponds to the paper-scale capacity — Fig. 1/2a/4a's
static-vs-dynamic split survives scaling.  Each profile also carries a
``compute_gap_ns``: the mean CPU/cache time between main-memory
requests, which controls how much wall-time static power is prorated
onto each request (Section III's LLC-hit-ratio effect).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import (
    DEFAULT_DRAM_FRACTION,
    DEFAULT_MEMORY_FRACTION,
    HybridMemorySpec,
)
from repro.trace.trace import Trace
from repro.workloads.base import (
    AlignedWrites,
    BernoulliWrites,
    BurstPattern,
    ComponentPhase,
    LoopPattern,
    MixturePattern,
    Phase,
    PhasedWorkload,
    ReadOnly,
    SequentialScan,
    UniformPattern,
    WorkingSetPattern,
    ZipfPattern,
    solve_cold_ratio,
)


@dataclass(frozen=True)
class ParsecProfile:
    """One Table III row plus the traits used to resynthesise it."""

    name: str
    working_set_kb: int
    read_requests: int
    write_requests: int
    compute_gap_ns: float
    description: str

    @property
    def total_requests(self) -> int:
        return self.read_requests + self.write_requests

    @property
    def write_ratio(self) -> float:
        return self.write_requests / self.total_requests

    @property
    def footprint_pages(self) -> int:
        """Paper-scale distinct 4 KB pages."""
        return max(1, self.working_set_kb // 4)


#: Paper Table III, verbatim.  ``compute_gap_ns`` is our calibration of
#: each workload's memory-request rate (bigger gap = more LLC-friendly).
PROFILES: dict[str, ParsecProfile] = {
    profile.name: profile
    for profile in (
        ParsecProfile("blackscholes", 5_188, 26_242, 0, 4_000.0,
                      "option pricing; read-only, compute-bound"),
        ParsecProfile("bodytrack", 25_304, 658_606, 403_835, 1_300.0,
                      "body tracking; write-rich hot set"),
        ParsecProfile("canneal", 164_768, 24_432_900, 653_623, 100.0,
                      "simulated annealing; scattered low-locality access"),
        ParsecProfile("dedup", 512_460, 17_187_130, 6_998_314, 80.0,
                      "stream dedup; streaming plus hash-table locality"),
        ParsecProfile("facesim", 210_368, 11_730_278, 6_137_519, 90.0,
                      "physics simulation; drifting phase working sets"),
        ParsecProfile("ferret", 68_904, 54_538_546, 7_033_936, 320.0,
                      "similarity search; read-mostly hot index"),
        ParsecProfile("fluidanimate", 266_120, 9_951_202, 4_492_775, 75.0,
                      "fluid dynamics; periodic grid sweeps"),
        ParsecProfile("freqmine", 156_108, 8_427_181, 3_947_122, 160.0,
                      "frequent itemset mining; skewed FP-tree reuse"),
        ParsecProfile("raytrace", 57_116, 1_807_142, 370_573, 450.0,
                      "ray tracing; threshold-length access bursts"),
        ParsecProfile("streamcluster", 15_452, 168_666_464, 448_612, 8.0,
                      "online clustering; burst sweeps over a small set"),
        ParsecProfile("vips", 115_380, 5_802_657, 4_117_660, 180.0,
                      "image processing; scans with short write bursts"),
        ParsecProfile("x264", 80_232, 14_669_353, 5_220_400, 280.0,
                      "video encoding; hot reference frames plus scans"),
    )
}

#: Paper order (Table III / all figures).
WORKLOAD_NAMES: tuple[str, ...] = tuple(PROFILES)


@dataclass(frozen=True)
class WorkloadInstance:
    """A rendered workload: trace, sized machine, measurement settings."""

    profile: ParsecProfile
    trace: Trace
    spec: HybridMemorySpec
    warmup_fraction: float
    inter_request_gap: float

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def nbytes(self) -> int:
        """Bytes held by the rendered trace arrays."""
        return self.trace.pages.nbytes + self.trace.is_write.nbytes


# ----------------------------------------------------------------------
# Per-workload phase builders
# ----------------------------------------------------------------------
_PhaseBuilder = Callable[[int, int, ParsecProfile, int], list[Phase]]

#: Write-hot pages as a fraction of the footprint.  Set just above the
#: DRAM share (10 % of 75 % = 7.5 %): the write working set *almost*
#: fits in DRAM, so CLOCK-DWF keeps shuttling the overflow between the
#: modules (one migration per NVM write) while the proposed scheme
#: serves those writes in place and promotes only the pages that prove
#: durably hot — the paper's central effect.
WRITE_SET_FRACTION = 0.085


def _init_scan(pages: int, write_ratio: float) -> Phase:
    """First-touch initialisation pass over the whole footprint."""
    return Phase(SequentialScan(pages), BernoulliWrites(write_ratio), pages)


def _aligned_writes(
    zipf: ZipfPattern,
    zipf_weight: float,
    pages: int,
    target_ratio: float,
    max_hot_ratio: float = 0.9,
    write_set_fraction: float | None = None,
) -> AlignedWrites:
    """Writes concentrated on the zipf pattern's hottest pages.

    The hot-write probability is capped so that the *overall* write
    ratio matches Table III; when the hot pages' traffic share exceeds
    the target, all writes are concentrated and the cold ratio is 0.
    """
    fraction = (WRITE_SET_FRACTION if write_set_fraction is None
                else write_set_fraction)
    top = max(1, int(pages * fraction))
    share = zipf_weight * zipf.traffic_share(top)
    hot_ratio = min(max_hot_ratio, target_ratio / max(share, 1e-9))
    cold_ratio = solve_cold_ratio(target_ratio, share, hot_ratio)
    return AlignedWrites(zipf.top_pages(top), hot_ratio, cold_ratio)


def _blackscholes(pages: int, requests: int, profile: ParsecProfile,
                  seed: int) -> list[Phase]:
    hot = max(2, int(pages * 0.6))
    return [
        Phase(SequentialScan(pages), ReadOnly(), pages),
        Phase(ZipfPattern(hot, alpha=1.2, permute_seed=seed), ReadOnly(),
              requests),
    ]


def _hotset(pages: int, requests: int, profile: ParsecProfile, seed: int,
            hot_fraction: float, alpha: float,
            tail_weight: float = 0.005,
            write_set_fraction: float | None = None) -> list[Phase]:
    """Generic hot-set workload with a near-DRAM-sized write working set."""
    ratio = profile.write_ratio
    hot = max(2, int(pages * hot_fraction))
    zipf = ZipfPattern(hot, alpha=alpha, permute_seed=seed)
    zipf_weight = 1.0 - tail_weight
    pattern = MixturePattern([
        (zipf, zipf_weight),
        (UniformPattern(pages), tail_weight),
    ])
    writes = _aligned_writes(zipf, zipf_weight, pages, ratio,
                             write_set_fraction=write_set_fraction)
    return [_init_scan(pages, ratio), Phase(pattern, writes, requests)]


def _bodytrack(pages, requests, profile, seed):
    # The write set overflows DRAM a little more than for the other
    # hot-set workloads (bodytrack's footprint is tiny, so its write
    # pages are comparatively hot).
    return _hotset(pages, requests, profile, seed,
                   hot_fraction=0.45, alpha=1.1, write_set_fraction=0.09)


def _canneal(pages, requests, profile, seed):
    # Low locality: annealing pokes elements all over the netlist, and
    # the rare writes land on arbitrary pages — most of them NVM
    # residents, which is what thrashes CLOCK-DWF.
    ratio = profile.write_ratio
    netlist = max(2, int(pages * 0.70))
    pattern = MixturePattern([
        (ZipfPattern(netlist, alpha=0.95, permute_seed=seed), 0.985),
        (UniformPattern(pages), 0.015),
    ])
    return [_init_scan(pages, ratio),
            Phase(pattern, BernoulliWrites(ratio), requests)]


def _dedup(pages, requests, profile, seed):
    # Streaming passes stay inside a chunk window that fits in memory
    # (real dedup streams from buffers the OS keeps resident); the hash
    # table adds skewed reuse with write-heavy bucket pages.
    ratio = profile.write_ratio
    table = max(2, int(pages * 0.4))
    stream_window = max(2, int(pages * 0.55))
    zipf = ZipfPattern(table, alpha=1.2, permute_seed=seed)
    pattern = MixturePattern([
        (zipf, 0.62),
        (LoopPattern(pages, window=stream_window, jitter=0.004), 0.38),
    ])
    writes = _aligned_writes(zipf, 0.62, pages, ratio)
    return [_init_scan(pages, ratio), Phase(pattern, writes, requests)]


def _facesim(pages, requests, profile, seed):
    ratio = profile.write_ratio
    zipf = ZipfPattern(max(2, int(pages * 0.35)), alpha=1.15,
                       permute_seed=seed)
    drift = WorkingSetPattern(
        pages,
        hot_pages=max(2, int(pages * 0.35)),
        hot_probability=0.997,
        phase_length=max(1000, requests // 5),
        drift=max(1, int(pages * 0.05)),
    )
    pattern = MixturePattern([(zipf, 0.6), (drift, 0.4)])
    writes = _aligned_writes(zipf, 0.6, pages, ratio)
    return [_init_scan(pages, ratio), Phase(pattern, writes, requests)]


def _ferret(pages, requests, profile, seed):
    return _hotset(pages, requests, profile, seed,
                   hot_fraction=0.5, alpha=1.15)


def _fluidanimate(pages, requests, profile, seed):
    # Periodic sweeps over the particle grid: every page comes around
    # once per timestep, gets a read-modify-write, and cools until the
    # next sweep — the back-and-forth CLOCK-DWF migrates on every time.
    ratio = profile.write_ratio
    grid = max(2, int(pages * 0.6))
    zipf = ZipfPattern(max(2, int(pages * 0.2)), alpha=1.1,
                       permute_seed=seed)
    pattern = MixturePattern([
        (LoopPattern(pages, window=grid, jitter=0.005), 0.65),
        (zipf, 0.35),
    ])
    # Some writes concentrate on the hot cell pages, but a substantial
    # share sweeps the grid (the read-modify-write update), landing on
    # NVM residents — deliberately *not* a DRAM-sized write set.
    top = max(1, int(pages * WRITE_SET_FRACTION))
    share = 0.35 * zipf.traffic_share(top)
    sweep_ratio = 0.006
    hot_ratio = min(
        0.9,
        max(0.0, (ratio - (1.0 - share) * sweep_ratio) / max(share, 1e-9)),
    )
    writes = AlignedWrites(zipf.top_pages(top), hot_ratio, sweep_ratio)
    return [_init_scan(pages, ratio), Phase(pattern, writes, requests)]


def _freqmine(pages, requests, profile, seed):
    return _hotset(pages, requests, profile, seed,
                   hot_fraction=0.4, alpha=1.3)


def _raytrace(pages, requests, profile, seed):
    # Rays visit BVH/geometry pages in long read bursts, then move on.
    # Burst lengths straddle the scheme's default read threshold, so a
    # fixed threshold promotes pages that are already done being hot.
    ratio = profile.write_ratio
    geometry = max(2, int(pages * 0.62))
    zipf = ZipfPattern(max(2, int(pages * 0.25)), alpha=1.2,
                       permute_seed=seed)
    pattern = MixturePattern([
        (BurstPattern(geometry, burst_low=12, burst_high=22), 0.12),
        (zipf, 0.88),
    ])
    writes = _aligned_writes(zipf, 0.88, pages, ratio)
    return [_init_scan(pages, ratio), Phase(pattern, writes, requests)]


def _streamcluster(pages, requests, profile, seed):
    # The whole (tiny) point set is swept over and over — one long
    # burst of reads — while the few centroid pages absorb the updates.
    ratio = profile.write_ratio
    zipf = ZipfPattern(max(2, int(pages * 0.08)), alpha=1.0,
                       permute_seed=seed)
    pattern = MixturePattern([
        (LoopPattern(pages, window=max(2, int(pages * 0.70)),
                     jitter=0.002), 0.9),
        (zipf, 0.1),
    ])
    writes = _aligned_writes(zipf, 0.1, pages, ratio)
    return [_init_scan(pages, ratio), Phase(pattern, writes, requests)]


def _vips(pages, requests, profile, seed):
    # Image rows stream through while tile buffers take write bursts
    # whose write count hovers at the proposed scheme's threshold:
    # CLOCK-DWF's migrate-on-first-write serves the rest of the burst
    # from DRAM, while the proposed scheme pays NVM writes *and* then
    # promotes — the Section V-B case where CLOCK-DWF edges ahead.
    ratio = profile.write_ratio
    rows = max(2, int(pages * 0.55))
    tiles = max(2, int(pages * 0.62))
    zipf = ZipfPattern(max(2, int(pages * 0.3)), alpha=1.1,
                       permute_seed=seed)
    row_weight, burst_weight, zipf_weight = 0.28, 0.10, 0.62
    row_writes, burst_writes = 0.005, 0.60
    # Balance the zipf component's write ratio so the overall mix
    # matches Table III (41.5 % writes).
    zipf_ratio = min(1.0, max(0.0, (
        ratio - row_weight * row_writes - burst_weight * burst_writes
    ) / zipf_weight))
    phase = ComponentPhase([
        (LoopPattern(pages, window=rows, jitter=0.003), row_weight,
         BernoulliWrites(row_writes)),
        (BurstPattern(tiles, burst_low=20, burst_high=30), burst_weight,
         BernoulliWrites(burst_writes)),
        (zipf, zipf_weight,
         _aligned_writes(zipf, 1.0, pages, zipf_ratio,
                         write_set_fraction=0.07)),
    ], requests)
    return [_init_scan(pages, ratio), phase]


def _x264(pages, requests, profile, seed):
    ratio = profile.write_ratio
    refs = max(2, int(pages * 0.35))
    frame = max(2, int(pages * 0.5))
    zipf = ZipfPattern(refs, alpha=1.4, permute_seed=seed)
    pattern = MixturePattern([
        (zipf, 0.7),
        (LoopPattern(pages, window=frame, jitter=0.003), 0.3),
    ])
    writes = _aligned_writes(zipf, 0.7, pages, ratio)
    return [_init_scan(pages, ratio), Phase(pattern, writes, requests)]


_BUILDERS: dict[str, _PhaseBuilder] = {
    "blackscholes": _blackscholes,
    "bodytrack": _bodytrack,
    "canneal": _canneal,
    "dedup": _dedup,
    "facesim": _facesim,
    "ferret": _ferret,
    "fluidanimate": _fluidanimate,
    "freqmine": _freqmine,
    "raytrace": _raytrace,
    "streamcluster": _streamcluster,
    "vips": _vips,
    "x264": _x264,
}


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
DEFAULT_REQUEST_SCALE = 1.0 / 400.0
DEFAULT_FOOTPRINT_SCALE = 1.0 / 64.0
MIN_REQUESTS = 20_000
MAX_REQUESTS = 250_000
MIN_PAGES = 128


def scaled_pages(profile: ParsecProfile,
                 footprint_scale: float = DEFAULT_FOOTPRINT_SCALE) -> int:
    """Scaled footprint (distinct pages) for a profile."""
    return max(MIN_PAGES, round(profile.footprint_pages * footprint_scale))


def scaled_requests(profile: ParsecProfile,
                    request_scale: float = DEFAULT_REQUEST_SCALE) -> int:
    """Scaled measured-request count for a profile."""
    scaled = round(profile.total_requests * request_scale)
    return max(MIN_REQUESTS, min(MAX_REQUESTS, scaled))


def parsec_workload(
    name: str,
    request_scale: float = DEFAULT_REQUEST_SCALE,
    footprint_scale: float = DEFAULT_FOOTPRINT_SCALE,
    memory_fraction: float = DEFAULT_MEMORY_FRACTION,
    dram_fraction: float = DEFAULT_DRAM_FRACTION,
    seed: int = 2016,
) -> WorkloadInstance:
    """Render one PARSEC workload: trace + machine spec + settings.

    The machine follows the paper's sizing rule over the *scaled*
    footprint, with the devices' static power rescaled so background
    power corresponds to the unscaled capacity (see module docstring).
    """
    try:
        profile = PROFILES[name]
    except KeyError:
        known = ", ".join(WORKLOAD_NAMES)
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
    pages = scaled_pages(profile, footprint_scale)
    requests = scaled_requests(profile, request_scale)
    builder = _BUILDERS[profile.name]
    phases = builder(pages, requests, profile, seed)
    workload = PhasedWorkload(profile.name, phases)
    trace = workload.build(seed=seed)

    static_compensation = profile.footprint_pages / pages
    spec = HybridMemorySpec.for_footprint(
        pages,
        memory_fraction=memory_fraction,
        dram_fraction=dram_fraction,
        dram=dram_spec().scaled(static=static_compensation),
        nvm=pcm_spec().scaled(static=static_compensation),
        disk=hdd_spec(),
    )
    # Warm-up covers the initialisation scan plus a stabilisation slice
    # of the measured phases.
    warmup_requests = pages + max(1, requests // 5)
    warmup_fraction = min(0.9, warmup_requests / len(trace))
    return WorkloadInstance(
        profile=profile,
        trace=trace,
        spec=spec,
        warmup_fraction=warmup_fraction,
        inter_request_gap=profile.compute_gap_ns * 1e-9,
    )


def all_workloads(
    request_scale: float = DEFAULT_REQUEST_SCALE,
    footprint_scale: float = DEFAULT_FOOTPRINT_SCALE,
    seed: int = 2016,
    names: tuple[str, ...] | None = None,
) -> list[WorkloadInstance]:
    """Render every (or a subset of) Table III workload."""
    return [
        parsec_workload(
            name,
            request_scale=request_scale,
            footprint_scale=footprint_scale,
            seed=seed,
        )
        for name in (names or WORKLOAD_NAMES)
    ]
