"""Tests for the deep lint tier (R013-R015): snippets and seeded bugs.

The golden-mutant tests copy real source files into a fixture tree,
seed one bug of the kind each rule exists to catch, and assert the
rule fires at the expected location — and that the unmodified copies
lint to zero.
"""

from __future__ import annotations

import shutil
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import lint_paths

SRC_ROOT = Path(repro.__file__).parent


def _lint_snippet(tmp_path: Path, source: str,
                  filename: str = "mod.py", select=None, deep=False):
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path], select=select, deep=deep)


# ----------------------------------------------------------------------
# R013 — worker purity
# ----------------------------------------------------------------------
class TestR013:
    def test_pool_submitted_global_mutation_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            _CACHE = {}

            def work(item):
                _CACHE[item] = item
                return item

            def main(pool, items):
                return pool.submit(work, items[0])
        """, select=["R013"])
        assert len(findings) == 1
        assert findings[0].rule_id == "R013"
        assert "_CACHE" in findings[0].message
        assert "submitted to a worker pool" in findings[0].message
        assert findings[0].line == 5

    def test_worker_local_marker_opts_out(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            _CACHE = {}  # repro: worker-local

            def work(item):
                _CACHE[item] = item
                return item

            def main(pool, items):
                return pool.submit(work, items[0])
        """, select=["R013"])
        assert findings == []

    def test_policy_access_reaches_helper(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            SEEN = []

            def note(page):
                SEEN.append(page)

            class DemoPolicy(HybridMemoryPolicy):
                name = "demo"

                def access(self, page, is_write):
                    note(page)
        """, select=["R013"])
        assert len(findings) == 1
        assert "SEEN" in findings[0].message
        assert "policy access" in findings[0].message
        assert "access -> note" in findings[0].message

    def test_worker_created_closure_is_fine(self, tmp_path):
        # The cell lives in a frame that itself runs inside the worker,
        # so mutating it is worker-local, not a cross-process hazard.
        findings = _lint_snippet(tmp_path, """
            class DemoPolicy(HybridMemoryPolicy):
                name = "demo"

                def access(self, page, is_write):
                    total = 0

                    def bump():
                        nonlocal total
                        total += 1

                    bump()
                    return total
        """, select=["R013"])
        assert findings == []

    def test_local_mutation_is_fine(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def work(item):
                box = []
                box.append(item)
                return box

            def main(pool, items):
                return pool.submit(work, items[0])
        """, select=["R013"])
        assert findings == []

    def test_seeded_bug_unmarked_executor_cache(self, tmp_path):
        """Golden mutant: strip the worker-local marker from the
        executor's per-process instance cache; the pool-submission seed
        must reach the mutating line."""
        original = (SRC_ROOT / "experiments" / "executor.py") \
            .read_text(encoding="utf-8")
        mutated = original.replace(
            "_INSTANCES: ByteLRU[WorkloadInstance] = "
            "ByteLRU(INSTANCE_BUDGET_BYTES)  # repro: worker-local",
            "_INSTANCES: ByteLRU[WorkloadInstance] = "
            "ByteLRU(INSTANCE_BUDGET_BYTES)",
        )
        assert mutated != original, "marker line moved; update the test"
        target = tmp_path / "executor.py"
        target.write_text(mutated, encoding="utf-8")
        findings = [
            f for f in lint_paths([tmp_path], select=["R013"])
            if f.rule_id == "R013"
        ]
        assert findings, "seeded bug not detected"
        expected_line = next(
            i for i, line in enumerate(mutated.splitlines(), start=1)
            if "_INSTANCES[key] =" in line
        )
        assert any(f.line == expected_line for f in findings), \
            "\n".join(f.render() for f in findings)
        # The unmodified copy is clean.
        target.write_text(original, encoding="utf-8")
        assert lint_paths([tmp_path], select=["R013"]) == []


# ----------------------------------------------------------------------
# R014 — sync-before-emit
# ----------------------------------------------------------------------
_KERNEL_PROLOGUE = textwrap.dedent("""
    class DemoPolicy(HybridMemoryPolicy):
        name = "demo"

        def access(self, page, is_write):
            self.mm.record_request(is_write)

""")


class TestR014:
    def _lint(self, tmp_path, body):
        source = _KERNEL_PROLOGUE + textwrap.indent(
            textwrap.dedent(body).strip("\n") + "\n", "    ")
        (tmp_path / "mod.py").write_text(source, encoding="utf-8")
        return lint_paths([tmp_path], select=["R014"])

    def test_callout_with_debt_flagged(self, tmp_path):
        findings = self._lint(tmp_path, """
            def access_batch(self, mm, pages, writes):
                bus = mm.events
                read_requests = 0
                synced = 0
                for page in pages:
                    read_requests += 1
                if bus is not None:
                    bus.page_fault(page=0)
                if bus is not None:
                    bus.clock += read_requests - synced
                    synced = read_requests
                return read_requests
        """)
        assert len(findings) == 1
        assert findings[0].rule_id == "R014"
        assert "event-emitting code with unflushed request debt" \
            in findings[0].message

    def test_flush_before_callout_clean(self, tmp_path):
        findings = self._lint(tmp_path, """
            def access_batch(self, mm, pages, writes):
                bus = mm.events
                read_requests = 0
                synced = 0
                for page in pages:
                    read_requests += 1
                if bus is not None:
                    bus.clock += read_requests - synced
                    synced = read_requests
                if bus is not None:
                    bus.page_fault(page=0)
                return read_requests
        """)
        assert findings == []

    def test_early_return_with_debt_flagged(self, tmp_path):
        findings = self._lint(tmp_path, """
            def access_batch(self, mm, pages, writes):
                bus = mm.events
                read_requests = 0
                synced = 0
                for page in pages:
                    read_requests += 1
                    if page < 0:
                        return read_requests
                if bus is not None:
                    bus.clock += read_requests - synced
                    synced = read_requests
                return read_requests
        """)
        assert any("may return with unflushed request debt"
                   in f.message for f in findings)

    def test_flushing_finally_covers_exits(self, tmp_path):
        findings = self._lint(tmp_path, """
            def access_batch(self, mm, pages, writes):
                bus = mm.events
                read_requests = 0
                synced = 0
                try:
                    for page in pages:
                        read_requests += 1
                        if page < 0:
                            return read_requests
                finally:
                    if bus is not None:
                        bus.clock += read_requests - synced
                        synced = read_requests
                return read_requests
        """)
        assert findings == []

    def test_kernel_without_deferred_accounting_exempt(self, tmp_path):
        findings = self._lint(tmp_path, """
            def access_batch(self, mm, pages, writes):
                bus = mm.events
                for page in pages:
                    mm.record_request(False)
                    if bus is not None:
                        bus.page_fault(page=page)
        """)
        assert findings == []

    def test_seeded_bug_dropped_fold_in_migration_kernel(self, tmp_path):
        """Golden mutant: delete one guarded debt-flush block from the
        shipped migration kernel; the following callout must be
        flagged."""
        shutil.copy(SRC_ROOT / "core" / "migration.py",
                    tmp_path / "migration.py")
        shutil.copy(SRC_ROOT / "mmu" / "manager.py",
                    tmp_path / "manager.py")
        kernel = tmp_path / "migration.py"
        lines = kernel.read_text(encoding="utf-8").splitlines(
            keepends=True)
        start = next(
            i for i, line in enumerate(lines)
            if line.strip() == "if bus is not None:"
            and "bus.clock +=" in lines[i + 1]
            and "synced =" in lines[i + 2]
        )
        del lines[start:start + 3]
        kernel.write_text("".join(lines), encoding="utf-8")
        findings = [
            f for f in lint_paths([tmp_path], select=["R014"])
            if f.rule_id == "R014"
        ]
        assert findings, "seeded bug not detected"
        assert all(f.path.endswith("migration.py") for f in findings)
        # The unmodified copies are clean.
        shutil.copy(SRC_ROOT / "core" / "migration.py", kernel)
        assert lint_paths([tmp_path], select=["R014"]) == []


# ----------------------------------------------------------------------
# R015 — digest stability
# ----------------------------------------------------------------------
_STABLE_RUNSPEC = """
    import json
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class RunSpec:
        workload: str = "w"
        seed: int = 2016

        def to_dict(self):
            return {"workload": self.workload, "seed": self.seed}

        def digest(self):
            return json.dumps(self.to_dict(), sort_keys=True)
"""


class TestR015:
    def test_stable_runspec_clean(self, tmp_path):
        assert _lint_snippet(
            tmp_path, _STABLE_RUNSPEC, select=["R015"]) == []

    def test_unfrozen_runspec_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            _STABLE_RUNSPEC.replace("@dataclass(frozen=True)",
                                    "@dataclass"),
            select=["R015"])
        assert any("frozen dataclass" in f.message for f in findings)

    def test_mutable_identity_field_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            _STABLE_RUNSPEC.replace('workload: str = "w"',
                                    "workload: dict = None"),
            select=["R015"])
        assert any("mutable/unordered type `dict`" in f.message
                   for f in findings)

    def test_unsorted_digest_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            _STABLE_RUNSPEC.replace(
                "json.dumps(self.to_dict(), sort_keys=True)",
                "json.dumps(self.to_dict())"),
            select=["R015"])
        assert any("sort_keys=True" in f.message for f in findings)

    def test_nondeterministic_to_dict_flagged(self, tmp_path):
        findings = _lint_snippet(
            tmp_path,
            _STABLE_RUNSPEC.replace(
                'return {"workload": self.workload, "seed": self.seed}',
                "return vars(self)"),
            select=["R015"])
        assert any("constant-keyed dict literal" in f.message
                   for f in findings)

    def test_reachable_identity_type_checked(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            import json
            from dataclasses import dataclass

            @dataclass
            class EventConfig:
                interval: int = 0

                def to_dict(self):
                    return {"interval": self.interval}

            @dataclass(frozen=True)
            class RunSpec:
                events: EventConfig | None = None

                def to_dict(self):
                    return {"events": self.events}

                def digest(self):
                    return json.dumps(self.to_dict(), sort_keys=True)
        """, select=["R015"])
        assert any("`EventConfig`" in f.message
                   and "frozen dataclass" in f.message for f in findings)

    def test_seeded_bug_unfrozen_shipped_runspec(self, tmp_path):
        """Golden mutant: unfreeze the shipped RunSpec dataclass."""
        for rel in (("experiments", "runspec.py"), ("obs", "config.py")):
            target = tmp_path / rel[-1]
            shutil.copy(SRC_ROOT.joinpath(*rel), target)
        spec = tmp_path / "runspec.py"
        text = spec.read_text(encoding="utf-8")
        lines = text.splitlines()
        class_line = next(
            i for i, line in enumerate(lines)
            if line.startswith("class RunSpec")
        )
        frozen_line = next(
            i for i in range(class_line - 1, -1, -1)
            if "@dataclass(frozen=True)" in lines[i]
        )
        lines[frozen_line] = lines[frozen_line].replace(
            "@dataclass(frozen=True)", "@dataclass")
        spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
        findings = [
            f for f in lint_paths([tmp_path], select=["R015"])
            if f.rule_id == "R015"
        ]
        assert findings, "seeded bug not detected"
        assert any(
            f.line == class_line + 1 or f.line == frozen_line + 1
            for f in findings
        ), "\n".join(f.render() for f in findings)
        # The unmodified copies are clean.
        spec.write_text(text, encoding="utf-8")
        assert lint_paths([tmp_path], select=["R015"]) == []


# ----------------------------------------------------------------------
# The shipped tree and the time budget
# ----------------------------------------------------------------------
class TestDeepTier:
    def test_repo_source_tree_is_deep_clean(self):
        findings = lint_paths([SRC_ROOT], deep=True)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_deep_run_stays_under_budget(self):
        start = time.perf_counter()
        lint_paths([SRC_ROOT], deep=True)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"deep lint took {elapsed:.1f}s"

    def test_deep_rules_not_selected_by_default(self, tmp_path):
        (tmp_path / "mod.py").write_text(textwrap.dedent("""
            _CACHE = {}

            def work(item):
                _CACHE[item] = item
                return item

            def main(pool, items):
                return pool.submit(work, items[0])
        """), encoding="utf-8")
        assert lint_paths([tmp_path]) == []
        assert lint_paths([tmp_path], deep=True) != []
