"""Measurement primitives shared by every workload.

Nothing here imports :mod:`repro`: percentiles, the order-independent
match digest, the in-memory span recorder, and ``/proc`` readers are
pure functions over plain data, which is what ``test_harness.py``
exercises.
"""

from __future__ import annotations

import math
import os
import statistics
import time
import zlib
from array import array
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "percentile",
    "position_medians",
    "quartiles",
    "spread",
    "digest",
    "Tracer",
    "self_times",
    "proc_status_kb",
    "proc_cpu_seconds",
]


def percentile(samples: Sequence[float], q: float, repeats: int = 1) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of ``samples``.

    Refuses a percentile that leaves fewer than ten measurements beyond
    it (the median is exempt): a p95 over 100 samples is five numbers'
    worth of tail, and reporting it would invite reading noise.  When
    each sample is itself the median of ``repeats`` measurements (see
    :func:`position_medians`), every sample beyond counts that often.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError(f"percentile {q} outside (0, 1]")
    rank = math.ceil(q * n)
    if q > 0.5 and (n - rank) * repeats < 10:
        raise ValueError(
            f"p{round(q * 100)} over {n} samples x {repeats} keeps "
            f"{(n - rank) * repeats} beyond it; need at least 10"
        )
    return sorted(samples)[rank - 1]


def position_medians(passes: Sequence[Sequence[float]]) -> list[float]:
    """Per position, the median over ``passes`` of that position's duration.

    Every pass feeds the same chunks in the same order, and on the seed
    commit a chunk's cost repeats within 2-5% from pass to pass while
    differing threefold between chunks: the distribution of chunk times
    is a property of the input.  What does not repeat is the shared
    host: bursts that slow a run of 10-30 chunks by 15-40% in one pass
    and not the next.  Taking each position's median across passes
    drops a burst unless it hits the same chunk in half the passes: over
    ten seeds of ``snort2k_clean`` the pass time's run-to-run spread
    was 0.047 this way and 0.063 as the median of whole-pass sums.
    """
    if not passes or len({len(p) for p in passes}) != 1:
        raise ValueError("passes must be non-empty and of equal length")
    return [statistics.median(column) for column in zip(*passes)]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` the way the acceptance rule computes them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def digest(matches: Iterable[tuple[str, str, int]]) -> tuple[int, int]:
    """``(count, crc32)`` over the sorted ``(stream, rule, end)`` triples.

    Sorting first makes the digest a property of the match *multiset*:
    two passes that deliver the same matches in different orders
    (shards racing, a re-ordered merge) digest alike, and anything else
    does not.  Ends are grouped per ``(stream, rule)`` in packed arrays
    so half a million matches cost megabytes, not a list of tuples.
    """
    groups: dict[tuple[str, str], array] = {}
    count = 0
    for stream, rule, end in matches:
        groups.setdefault((stream, rule), array("q")).append(end)
        count += 1
    crc = 0
    for stream, rule in sorted(groups):
        lines = "".join(f"{stream}\t{rule}\t{end}\n"
                        for end in sorted(groups[stream, rule]))
        crc = zlib.crc32(lines.encode("utf-8", "surrogateescape"), crc)
    return count, crc


class Tracer:
    """In-memory span recorder.

    A span is ``{"id", "name", "start", "end", "parent", **attrs}``
    with times from :func:`time.perf_counter`.  Synchronous code nests
    spans with :meth:`span` (parent = innermost open span); concurrent
    code passes ``parent`` explicitly to :meth:`begin`/:meth:`end`,
    because a shared stack means nothing across interleaved tasks.
    A disabled tracer records nothing, so the same call sites serve the
    untraced passes.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str, parent: Optional[int] = None, **attrs) -> int:
        if not self.enabled:
            return -1
        span_id = len(self.spans)
        self.spans.append(
            {"id": span_id, "name": name, "start": time.perf_counter(),
             "end": None, "parent": parent, **attrs}
        )
        return span_id

    def end(self, span_id: int) -> None:
        if span_id >= 0:
            self.spans[span_id]["end"] = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[int]:
        parent = self._stack[-1] if self._stack else None
        span_id = self.begin(name, parent, **attrs)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.end(span_id)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a child of the open span."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def self_total(self, name: str) -> float:
        own = self_times(self.spans)
        return sum(own[s["id"]] for s in self.spans if s["name"] == name)


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to the parent and overlapping children are
    merged first, so concurrent child spans are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None and span["end"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    own: dict[int, float] = {}
    for span in spans:
        if span["end"] is None:
            continue
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span["id"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own[span["id"]] = (end - start) - covered
    return own


def proc_status_kb(pid: int, field: str) -> Optional[int]:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


def proc_cpu_seconds(pid: int) -> Optional[float]:
    """User + system CPU seconds of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            # the command name may hold spaces; fields resume after ')'
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
