"""Shared pieces of the end-to-end benchmark: paths, seeds, digests,
generated inputs and statistics.

Everything the benchmark feeds the program is derived here from the
workload seed, so the same seed always gives the same inputs, and the
reference file (``reference.json``, written by ``make_reference.py``)
holds the expected exact outputs for every input the seeds can select.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
#: Per-run scratch space inside the checkout (caches, trace stores);
#: removed when a run ends.
SCRATCH = ROOT / ".perfbench"
#: Where a run writes its full report (every metric, spans included).
OUT_DIR = ROOT / ".perfbench-out"

#: Spec seeds the audits and the serve load draw from.  The reference
#: file holds the exact result of every core cell at each of them.
SPEC_SEEDS = tuple(range(2016, 2032))
CORE_POLICIES = ("dram-only", "nvm-only", "clock-dwf", "proposed")
#: Policies of the streamed cold runs (the two migrating schemes).
STREAM_POLICIES = ("clock-dwf", "proposed")

#: Generated ``.trc`` uploads: pool size and shape.
UPLOAD_POOL = 64
UPLOAD_REQUESTS = 12_000
UPLOAD_PAGES = 2_048


def use_source() -> None:
    """Make the checkout's ``src/`` importable, or exit 2 without a
    result when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def canonical_digest(data) -> str:
    """Short sha256 of the canonical JSON form of ``data``."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def result_digest(result_dict: dict) -> str:
    """Digest of a ``RunResult.to_dict()`` with its event stream left
    out (event collection is observation-only; streams are checked by
    their own digest)."""
    return canonical_digest({**result_dict, "events": None})


def events_digest(events: list[dict]) -> str:
    """Digest of a parsed event stream (one dict per JSONL line)."""
    return canonical_digest(events)


def cell_key(workload: str, policy: str) -> str:
    return f"{workload}/{policy}"


def spec_seed(seed: int, offset: int = 0) -> int:
    """The pool spec seed a workload seed (plus an offset) selects."""
    return SPEC_SEEDS[(seed + offset) % len(SPEC_SEEDS)]


def core_payload(workload: str, policy: str, seed: int) -> dict:
    """A ``/run`` payload equal to ``RunSpec.core(workload, policy,
    seed=seed)``."""
    payload = {"workload": workload, "policy": policy, "seed": seed}
    if policy.startswith(("dram-only", "nvm-only")):
        payload["spec_transform"] = [policy]
    return payload


def upload_policy(index: int) -> str:
    return STREAM_POLICIES[index % len(STREAM_POLICIES)]


def upload_text(index: int) -> str:
    """Generated ``.trc`` text number ``index``: a phase-shifting
    hot/cold page stream (four phases, each with its own hot set)."""
    rng = random.Random(7919 * index + 1)
    hot_size = 96 + index % 5 * 32
    lines = [f"# generated upload {index}"]
    phase_length = UPLOAD_REQUESTS // 4
    for phase in range(4):
        base = int(rng.random() * (UPLOAD_PAGES - hot_size))
        write_share = 0.15 + 0.1 * (phase % 2)
        for _ in range(phase_length):
            if rng.random() < 0.8:
                page = base + int(rng.random() * hot_size)
            else:
                page = int(rng.random() * UPLOAD_PAGES)
            kind = "W" if rng.random() < write_share else "R"
            lines.append(f"{kind} {page}")
    return "\n".join(lines) + "\n"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values)
