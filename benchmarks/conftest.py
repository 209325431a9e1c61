"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation (Section 5) or design discussion (Table 1).  Measurements come
from *simulated* time on the calibrated cost models, so they are exactly
reproducible run to run; pytest-benchmark additionally times the wall-clock
cost of running each simulation.

Each benchmark prints a paper-versus-measured comparison and asserts the
paper's *shape*: orderings, ratios and crossovers -- not absolute values.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, List, Sequence

import pytest


def report(title: str, headers: Sequence[str], rows: List[Sequence]) -> str:
    """Format a paper-vs-measured table and print it."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)
    print("\n" + text + "\n")
    return text


def timed_without_gc(func: Callable[[], object]) -> float:
    """Time one call, in seconds, with the garbage collector out of the
    way.

    A full collection runs first, so garbage left by earlier work is
    freed before the timer starts and cannot be reused by the timed
    call; the collector then stays disabled for the call, so no
    collection lands inside it."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        func()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def interleaved_medians(
    arms: Sequence[Callable[[], Callable[[], object]]], repeats: int = 5
) -> List[float]:
    """The median seconds of each arm's timed call over ``repeats``
    rounds, the arms alternating within every round.

    An arm is a set-up: called untimed, it returns the call to time (a
    cold ingest needs a fresh receiver each time).  Alternating spreads
    host noise that drifts during the run over every arm alike, the
    median discards a round that a noise burst hit, and each call is
    timed by :func:`timed_without_gc`, so the previous call's garbage is
    freed before it starts."""
    samples: List[List[float]] = [[] for _ in arms]
    for _round in range(repeats):
        for arm, seconds in zip(arms, samples):
            seconds.append(timed_without_gc(arm()))
    return [statistics.median(seconds) for seconds in samples]


@pytest.fixture
def compare():
    return report
