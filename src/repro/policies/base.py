"""Policy interface: the decision layer over the memory manager.

A policy receives the request stream and decides placement — where
faults fill, what migrates, what gets evicted — by invoking
:class:`~repro.mmu.manager.MemoryManager` primitives.  All bookkeeping
(hits, faults, migrations, wear) happens inside the manager, so every
policy is scored identically.
"""

from __future__ import annotations

import abc
from typing import Callable

import numpy as np

from repro.mmu.manager import MemoryManager

#: Factory signature used by the simulator and the registry.
PolicyFactory = Callable[[MemoryManager], "HybridMemoryPolicy"]


class HybridMemoryPolicy(abc.ABC):
    """Base class for page-placement policies over a hybrid memory."""

    #: Short identifier used in reports and the policy registry.
    name: str = "abstract"

    #: Audit flag for the sampled engine (:mod:`repro.sampling`): a
    #: policy is sampling-safe when its decisions derive only from
    #: per-page state (recency/frequency counters of the accessed page,
    #: queue positions) and window sizes expressed as fractions of the
    #: frame budget — both of which spatial page sampling preserves.
    #: Every registered policy qualifies (per-page counters count that
    #: page's own accesses; ``MigrationConfig`` windows scale with the
    #: sampled NVM frame count).  A policy keyed on *global*
    #: request-stream state (e.g. absolute request ordinals feeding a
    #: threshold) must set this ``False``; ``engine="sampled"`` then
    #: refuses it instead of silently distorting its dynamics.
    sampling_safe: bool = True

    def __init__(self, mm: MemoryManager) -> None:
        self.mm = mm

    @abc.abstractmethod
    def access(self, page: int, is_write: bool) -> None:
        """Handle one memory request end-to-end.

        Implementations must call ``self.mm.record_request(is_write)``
        exactly once *on every control-flow path*, then service the
        request through the manager (``serve_hit`` / ``fault_fill``
        plus any migrations/evictions the policy decides on).

        This contract is machine-checked: statically by lint rule R010
        (``python -m repro lint``) and at runtime by the simulation
        sanitizer (:mod:`repro.analysis.sanitizer`), which asserts that
        the request counter advanced exactly once per ``access`` call.
        """

    def access_batch(self, pages: np.ndarray, writes: np.ndarray) -> None:
        """Handle a span of requests (the batched kernel).

        ``pages`` (int64) and ``writes`` (bool) are the equal-length
        numpy arrays of one trace chunk, exactly as the simulator holds
        them.  Kernels that walk the span request by request convert
        them once at entry with ``.tolist()``; vectorised kernels work
        on the arrays directly.  The default implementation simply
        loops over :meth:`access`, so every policy is batch-drivable;
        hot policies override it with a kernel that hoists bound
        methods out of the loop and serves resident hits inline.

        Overrides are bound by the same contract as :meth:`access` —
        every request routes through ``self.mm.record_request``
        exactly once — checked statically by lint rule R012 and at
        runtime by the sanitizer, and proven behaviourally by the
        golden-equivalence tests (``tests/test_batch_equivalence.py``):
        a batch replay must produce *bit-identical* results to the
        per-request replay.
        """
        access = self.access
        for page, is_write in zip(pages.tolist(), writes.tolist()):
            access(page, is_write)

    def validate(self) -> None:  # repro: cold
        """Check policy-internal state against the manager's.

        Subclasses extend this with their own structure checks; the
        default validates the shared mechanical layer.  The simulator
        enforces it at end-of-run, and the sanitizer re-runs it on its
        periodic deep-check cadence.
        """
        self.mm.validate()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} policy={self.name!r}>"
