"""Static analysis and runtime sanitizing for the reproduction.

The paper's comparisons are only meaningful while every policy charges
its events through the same accounting path and every simulation is
deterministic.  This package machine-checks those contracts:

* :mod:`repro.analysis.lint` — a project-specific AST lint pass
  (``python -m repro lint``) enforcing the bookkeeping and determinism
  rules R002-R012 (see :mod:`repro.analysis.rules`).  Rules R006-R010
  are flow-sensitive dataflow analyses — units-of-measure inference,
  page life-cycle typestate and the accounting contract — built on the
  CFG/fixpoint framework of :mod:`repro.analysis.flow`.  The opt-in
  ``--deep`` tier (:mod:`repro.analysis.interproc`) adds the
  interprocedural rules R013-R015 — worker purity, sync-before-emit
  and digest stability — over a project call graph with per-function
  side-effect summaries; ``--fix`` applies the mechanical R003/R005
  rewrites (:mod:`repro.analysis.autofix`).
* :mod:`repro.analysis.sanitizer` — an opt-in runtime wrapper that
  re-validates the memory manager's invariants after every simulated
  request (``HybridMemorySimulator(..., sanitize=True)`` or the
  ``REPRO_SANITIZE=1`` environment default).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

#: Public name -> defining submodule.  Imported on first attribute
#: access (PEP 562): the simulator only needs :mod:`.sanitizer`, and
#: loading the lint tiers (rules, flow CFGs, call graph) with it would
#: cost every run's start-up.
_EXPORTS = {
    "DEEP_RULES": "repro.analysis.interproc",
    "DEFAULT_RULES": "repro.analysis.rules",
    "Finding": "repro.analysis.findings",
    "LintRule": "repro.analysis.rules",
    "SANITIZE_ENV": "repro.analysis.sanitizer",
    "SanitizedPolicy": "repro.analysis.sanitizer",
    "SanitizerError": "repro.analysis.sanitizer",
    "fix_paths": "repro.analysis.autofix",
    "lint_paths": "repro.analysis.lint",
    "sanitize_default": "repro.analysis.sanitizer",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:
    from repro.analysis.autofix import fix_paths
    from repro.analysis.findings import Finding
    from repro.analysis.interproc import DEEP_RULES
    from repro.analysis.lint import lint_paths
    from repro.analysis.rules import DEFAULT_RULES, LintRule
    from repro.analysis.sanitizer import (
        SANITIZE_ENV,
        SanitizedPolicy,
        SanitizerError,
        sanitize_default,
    )


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
