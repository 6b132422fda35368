"""One function run on several threads, the calling thread being one of them.

The leapfrog and the Monte Carlo, the two numeric kernels that thread, split
their work into contiguous parts with split(), one per worker, so that each
element goes through the same arithmetic whatever the worker count; each
kernel decides by its own threshold whether to split at all.  Worker
functions must call only numpy and private dfra functions: perfbench's
tracer wraps dfra's public functions and keeps a single span stack, which a
call from a second thread would corrupt.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Callable, Sequence, TypeVar

import numpy as np

P = TypeVar("P")
T = TypeVar("T")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def split(n: int, threaded: bool) -> list[slice]:
    """range(n) as contiguous slices, one per usable CPU (at most n); a single one unless threaded."""
    workers = min(n, usable_cpus()) if threaded else 1
    return [slice(n * w // workers, n * (w + 1) // workers) for w in range(workers)]


def run(fn: Callable[[P], T], parts: Sequence[P]) -> list[T]:
    """[fn(part) for part in parts], one thread per part, fn(parts[0]) on the calling thread.

    Each helper thread runs under the caller's numpy error state (a new
    thread starts from numpy's default one).  An exception of any worker is
    raised here, and every helper has finished before this returns or raises.
    """
    if len(parts) == 1:
        return [fn(parts[0])]
    errstate = np.geterr()

    def helper(part: P) -> T:
        with np.errstate(**errstate):
            return fn(part)

    with concurrent.futures.ThreadPoolExecutor(len(parts) - 1) as pool:
        helpers = [pool.submit(helper, part) for part in parts[1:]]
        first = fn(parts[0])
        return [first] + [h.result() for h in helpers]
