"""Thread budget control and the one block-parallel map.

``map_blocks`` serves level sampling and the polar passes on at most
``WULFFSYM_THREADS`` worker threads (default: the cores this process may
run on). Results never depend on the thread count: the callers cut their
work into blocks of a fixed size, and the block results come back in
block order.
"""

import os
from concurrent.futures import ThreadPoolExecutor

ENV_VAR = "WULFFSYM_THREADS"


def thread_count() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    if value < 1:
        raise ValueError(f"{ENV_VAR} must be >= 1, got {value}")
    return value


def map_blocks(fn, blocks) -> list:
    """[fn(b) for b in blocks] on up to thread_count() worker threads; a
    single block or a single thread runs without a pool."""
    blocks = list(blocks)
    workers = min(thread_count(), len(blocks))
    if workers <= 1:
        return [fn(b) for b in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))
