"""Tests for the one bounded LRU every cache in the package is built on."""

import threading

from repro.lru import LRU


def test_count_budget_evicts_least_recent():
    lru = LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # "b" is now the least recent
    assert lru.put("c", 3) == 1
    assert "b" not in lru
    assert [k for k, _ in lru.items()] == ["a", "c"]
    assert lru.weight == len(lru) == 2


def test_weight_budget_with_mixed_weights():
    lru = LRU(10, weigh=len)
    assert lru.put("a", b"xxxx") == 0
    assert lru.put("b", b"xxx") == 0
    assert lru.put("c", b"xx") == 0
    assert lru.weight == 9
    # 9 + 5 = 14 > 10: dropping "a" (4) is enough.
    assert lru.put("d", b"xxxxx") == 1
    assert [k for k, _ in lru.items()] == ["b", "c", "d"]
    assert lru.weight == 10
    # Replacing a key re-weighs it and makes it the most recent.
    assert lru.put("b", b"x") == 0
    assert lru.weight == 8
    assert [k for k, _ in lru.items()] == ["c", "d", "b"]
    assert lru.evictions == 1


def test_newest_entry_is_kept_when_heavier_than_the_budget():
    lru = LRU(4, weigh=len)
    lru.put("a", b"xx")
    lru.put("b", b"xx")
    assert lru.put("big", b"x" * 9) == 2
    assert [k for k, _ in lru.items()] == ["big"]
    assert lru.weight == 9
    # The next insert evicts it like any other entry.
    assert lru.put("c", b"x") == 1
    assert [k for k, _ in lru.items()] == ["c"]
    assert lru.weight == 1
    assert lru.evictions == 3


def test_peek_and_in_leave_recency_and_counters_alone():
    lru = LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert "a" in lru
    assert lru.peek("a") == 1
    assert lru.peek("missing") is None
    assert (lru.hits, lru.misses) == (0, 0)
    lru.put("c", 3)  # "a" is still the least recent
    assert "a" not in lru and "b" in lru


def test_get_counts_hits_and_misses_unless_told_not_to():
    lru = LRU(4)
    lru.put("a", 1)
    assert lru.get("a") == 1
    assert lru.get("x") is None
    assert (lru.hits, lru.misses) == (1, 1)
    assert lru.get("x", miss=False) is None
    assert lru.get("a", hit=False) == 1
    assert (lru.hits, lru.misses) == (1, 1)


def test_pop_and_clear_reset_weight_but_not_counters():
    lru = LRU(10, weigh=len)
    lru.put("a", b"xxx")
    lru.put("b", b"xxxx")
    assert lru.pop("a") == b"xxx"
    assert lru.pop("a", "gone") == "gone"
    assert lru.weight == 4 and len(lru) == 1
    lru.get("b")
    lru.put("c", b"x" * 9)
    assert lru.evictions == 1
    lru.clear()
    assert lru.weight == 0 and len(lru) == 0 and lru.items() == []
    assert (lru.hits, lru.evictions, lru.insertions) == (1, 1, 3)


def test_threaded_hammer_keeps_weight_and_counts_exact():
    lru = LRU(64, weigh=len)
    threads = 4
    rounds = 2000
    keys = [f"k{i}" for i in range(40)]
    found = [0] * threads
    missed = [0] * threads
    start = threading.Barrier(threads)

    def work(t):
        start.wait()
        for i in range(rounds):
            key = keys[(i * 7 + t) % len(keys)]
            if i % 3 == 0:
                lru.put(key, b"x" * (1 + (i + t) % 5))
            elif lru.get(key) is None:
                missed[t] += 1
            else:
                found[t] += 1

    pool = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    items = lru.items()
    assert lru.weight == sum(len(v) for _, v in items) <= lru.budget
    assert len(items) == len(lru)
    assert lru.hits == sum(found)
    assert lru.misses == sum(missed)
    assert lru.hits + lru.misses == threads * (rounds - (rounds + 2) // 3)
