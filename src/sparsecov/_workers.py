"""The map behind CV cells and simulation replicates.

The items run in order in the calling thread.  A thread pool made the
replicate study slower, not faster: the fits are short enough that the
threads contend for the interpreter lock, and pools nested in pools
oversubscribe the CPUs.  The name stays because the benchmark's tracer
(benchmark/tracer.py) wraps ``parallel_map`` in every module that binds it.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Map ``fn`` over ``items`` in order."""
    return [fn(item) for item in items]
