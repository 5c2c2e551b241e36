"""The byte-budgeted LRU behind the per-process render/profile caches."""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memo import ByteLRU


def _array(nbytes: int) -> np.ndarray:
    return np.zeros(nbytes, dtype=np.uint8)


class TestByteLRU:
    def test_evicts_least_recently_used_first(self):
        memo: ByteLRU[np.ndarray] = ByteLRU(30)
        memo["a"] = _array(10)
        memo["b"] = _array(10)
        memo["c"] = _array(10)
        assert memo.get("a") is not None  # refresh: "b" is now oldest
        memo["d"] = _array(10)
        assert memo.get("b") is None
        assert [memo.get(key) is not None for key in "acd"] == [True] * 3
        assert memo.stats() == {"entries": 3, "bytes": 30, "budget": 30,
                                "evictions": 1}

    def test_large_entry_evicts_several(self):
        memo: ByteLRU[np.ndarray] = ByteLRU(30)
        for key in "abc":
            memo[key] = _array(10)
        memo["big"] = _array(25)
        assert len(memo) == 1
        assert memo.stats()["evictions"] == 3

    def test_value_over_budget_is_not_kept(self):
        memo: ByteLRU[np.ndarray] = ByteLRU(30)
        memo["a"] = _array(10)
        memo["huge"] = _array(31)
        assert memo.get("huge") is None
        assert memo.get("a") is not None
        assert memo.stats()["bytes"] == 10

    def test_replacing_a_key_recounts_its_bytes(self):
        memo: ByteLRU[np.ndarray] = ByteLRU(30)
        memo["a"] = _array(20)
        memo["a"] = _array(5)
        assert memo.stats()["bytes"] == 5
        assert len(memo) == 1

    def test_clear_keeps_the_eviction_total(self):
        memo: ByteLRU[np.ndarray] = ByteLRU(10)
        memo["a"] = _array(10)
        memo["b"] = _array(10)
        memo.clear()
        assert memo.stats() == {"entries": 0, "bytes": 0, "budget": 10,
                                "evictions": 1}
        assert memo.values() == []

    def test_concurrent_use_keeps_the_byte_count(self):
        """Threads storing and looking up at once (switching every few
        bytecodes): the byte total always equals what is held."""
        memo: ByteLRU[np.ndarray] = ByteLRU(100)
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            try:
                for step in range(2_000):
                    key = (seed * 7 + step) % 13
                    if step % 3:
                        memo.get(key)
                    else:
                        memo[key] = _array(1 + key % 5 * 10)
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        held = memo.values()
        assert memo.stats()["bytes"] == sum(v.nbytes for v in held) <= 100
        assert memo.stats()["entries"] == len(held)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ByteLRU(-1)

    @settings(max_examples=200, deadline=None)
    @given(
        budget=st.integers(0, 64),
        ops=st.lists(st.tuples(st.sampled_from("gs"), st.integers(0, 7),
                               st.integers(0, 40)), max_size=60),
    )
    def test_matches_reference_lru(self, budget, ops):
        """Against a plain ordered-dict LRU: same contents in the same
        recency order, and the byte total never exceeds the budget."""
        memo: ByteLRU[np.ndarray] = ByteLRU(budget)
        model: OrderedDict[int, int] = OrderedDict()
        for op, key, size in ops:
            if op == "g":
                got = memo.get(key)
                if key in model:
                    model.move_to_end(key)
                    assert got is not None and got.nbytes == model[key]
                else:
                    assert got is None
                continue
            memo[key] = _array(size)
            model.pop(key, None)
            if size <= budget:
                while sum(model.values()) + size > budget:
                    model.popitem(last=False)
                model[key] = size
            assert memo.stats()["bytes"] == sum(model.values()) <= budget
            assert [value.nbytes for value in memo.values()] \
                == list(model.values())
