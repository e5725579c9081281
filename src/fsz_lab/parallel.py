"""Budgets and a small deterministic worker pool.

Budgets are element counts, never seconds, so refusals are reproducible
across machines.  Partitioned work is reduced in partition order, which keeps
results byte-identical for any thread count; a pool has one worker per CPU at most.
"""

from __future__ import annotations

import math
import os
from typing import Callable, TypeVar

T = TypeVar("T")

DEFAULT_BUDGET = 4_000_000
COUNT_DIGITS = 4300  # longer counts read "about 10^k"; str()'s default digit limit


def about_text(log10_count: float) -> str:
    """The text of a count known by its decimal logarithm."""
    return f"about 10^{round(log10_count)}"


def count_text(count: int | str) -> str:
    """count in decimal, or "about 10^k" when it has more than COUNT_DIGITS digits.

    A str is the text of a count too large to form, and is returned as it is.
    The cut is by size alone, so the text does not depend on str()'s digit
    limit, which differs between Python versions and may be lifted.
    """
    if isinstance(count, str):
        return count
    if count < 10 ** COUNT_DIGITS:
        return str(count)
    return about_text(math.log10(count))


class BudgetExceeded(Exception):
    """Raised when an enumeration would exceed its element budget.

    required is the count, or its "about 10^k" text when it is too large to form.
    """

    def __init__(self, required: int | str, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration requires {count_text(required)} elements, "
            f"over the budget of {count_text(budget)}"
        )


def check_budget(required: int, budget: int) -> None:
    if required > budget:
        raise BudgetExceeded(required, budget)


def default_threads() -> int:
    """Worker count: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def split_range(start: int, stop: int, parts: int) -> list[tuple[int, int]]:
    """Split [start, stop) into at most `parts` contiguous non-empty chunks."""
    total = stop - start
    parts = max(1, min(parts, total)) if total else 1
    chunk, extra = divmod(total, parts)
    out = []
    lo = start
    for i in range(parts):
        hi = lo + chunk + (1 if i < extra else 0)
        if hi > lo:
            out.append((lo, hi))
        lo = hi
    return out or [(start, stop)]


def run_partitioned(
    worker: Callable[[int, int], T],
    start: int,
    stop: int,
    threads: int | None = None,
) -> list[T]:
    """Run worker(lo, hi) over a split of [start, stop); results in range order."""
    threads = default_threads() if threads is None else max(1, threads)
    ranges = split_range(start, stop, threads)
    if threads == 1 or len(ranges) == 1:
        return [worker(lo, hi) for lo, hi in ranges]
    from concurrent.futures import ThreadPoolExecutor  # loads logging, queue, traceback
    with ThreadPoolExecutor(max_workers=min(threads, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(worker, lo, hi) for lo, hi in ranges]
        return [f.result() for f in futures]
