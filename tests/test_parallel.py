import concurrent.futures
import os
from concurrent.futures import Future

import pytest

from fsz_lab import parallel
from fsz_lab.parallel import (
    BudgetExceeded,
    check_budget,
    count_text,
    default_threads,
    run_partitioned,
    split_range,
)


def test_split_range_covers_exactly():
    for start, stop, parts in ((0, 10, 3), (5, 5, 4), (0, 2, 8), (3, 100, 7)):
        ranges = split_range(start, stop, parts)
        flat = [i for lo, hi in ranges for i in range(lo, hi)]
        assert flat == list(range(start, stop))


def test_run_partitioned_is_order_preserving():
    out = run_partitioned(lambda lo, hi: (lo, hi), 0, 100, threads=4)
    assert out == split_range(0, 100, 4)
    total = sum(hi - lo for lo, hi in out)
    assert total == 100


def test_run_partitioned_single_thread_equivalence():
    worker = lambda lo, hi: sum(range(lo, hi))
    assert sum(run_partitioned(worker, 0, 1000, threads=1)) == sum(
        run_partitioned(worker, 0, 1000, threads=5)
    )


def test_check_budget():
    check_budget(10, 10)
    with pytest.raises(BudgetExceeded) as info:
        check_budget(11, 10)
    assert info.value.required == 11
    assert "11" in str(info.value)


def test_count_text_cuts_by_size_whatever_the_str_limit():
    # the CLI lifts str()'s digit limit while a command runs; a refusal's text
    # must read the same with the limit lifted
    from fsz_lab import cli

    with cli._ints_of_any_length():
        assert count_text(10 ** 4300 - 1) == "9" * 4300
        assert count_text(10 ** 4300) == "about 10^4300"
        assert count_text(3 ** 40000) == "about 10^19085"


def test_default_threads_is_cpu_count_capped_at_8(monkeypatch):
    monkeypatch.setenv("FSZ_LAB_THREADS", "3")  # an old override, no longer read
    for cpus, expected in ((None, 1), (1, 1), (2, 2), (8, 8), (64, 8)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert default_threads() == expected



def test_pool_is_capped_at_cpu_count(monkeypatch):
    # (3, 27, 1) has 27^3 = 19683 L-partitions; the pool below starts no thread
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    # run_partitioned imports the pool class when it first needs one
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
    for cpus, want in ((2, 2), (None, 1)):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        out = run_partitioned(lambda lo, hi: hi - lo, 0, 19_683, threads=20_000)
        assert out == [1] * 19_683
        assert sizes[-1] == want
