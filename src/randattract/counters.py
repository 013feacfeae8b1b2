"""Work counters of one run, bumped where the work is done.

A run binds one ``Counters`` in a ContextVar (``counting``), beside the
workers that ``evolution.workers`` binds.  Chain blocks and ``ordered_map``
items run in a copy of the queuing thread's context, so a count made on a
worker lands in its own run, and one lock makes counts from several threads
add up exactly.  Each counter is bumped once per block or per call, never per
step, and nothing is counted outside a ``counting`` scope.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass


@dataclass
class Counters:
    """What a run did, counted as the perfbench tracer counts it."""

    # step matrices built (a chain at amp = 0 builds all of them from one)
    steps_built: int = 0
    # step matrices eigendecomposed while building chains
    eigh_matrices: int = 0
    # driver path points read: each driver value reads its whole window
    driver_points: int = 0
    # steps recorded by integrate_semilinear, summed over its calls
    member_steps: int = 0
    # nemytskii calls made by the marches
    nemytskii_calls: int = 0
    # history steps of construct_initial
    history_steps: int = 0


_current: ContextVar[Counters | None] = ContextVar("counters", default=None)
# held while a count is added: a bump is a read and a write
_lock = threading.Lock()


@contextmanager
def counting() -> Iterator[Counters]:
    """Bind a fresh ``Counters`` for the scope and yield it."""
    counters = Counters()
    token = _current.set(counters)
    try:
        yield counters
    finally:
        _current.reset(token)


def count(**amounts: int) -> None:
    """Add each amount to its counter of the bound run, if one is bound."""
    counters = _current.get()
    if counters is None:
        return
    with _lock:
        for name, amount in amounts.items():
            setattr(counters, name, getattr(counters, name) + amount)
