"""Pure helpers of the benchmark: percentiles, stats diffs, peak RSS, spans.

Everything here is free of ``repro`` imports so the helpers can be unit
tested on their own (``python3 -m pytest perfbench -q``).
"""

from __future__ import annotations

import hashlib
import math
import statistics
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

#: A tail percentile should keep at least this many samples beyond it, so a
#: single scheduler hiccup cannot move it.
MIN_TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default definition)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(values: Sequence[float], pct: float) -> int:
    """How many samples lie strictly above the ``pct`` percentile."""
    cut = percentile(values, pct)
    return sum(1 for value in values if value > cut)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, first/third quartile and the IQR as a share of the median.

    Uses ``statistics.quantiles(values, n=4)``, the same definition the
    steadiness check applies to ten runs of a metric.
    """
    if len(values) < 2:
        only = float(values[0]) if values else float("nan")
        return {"median": only, "q1": only, "q3": only, "spread": 0.0, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


# ----------------------------------------------------------------------
# /v1/stats diffs
# ----------------------------------------------------------------------
def dig(stats: Mapping[str, object], path: str) -> object:
    """``stats["a"]["b"]`` for ``path="a.b"``."""
    node: object = stats
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            raise KeyError(f"stats have no field {path!r} (missing {part!r})")
        node = node[part]
    return node


def stats_delta(before: Mapping[str, object], after: Mapping[str, object], path: str) -> float:
    """Counter growth between two ``/v1/stats`` snapshots."""
    grown = float(dig(after, path)) - float(dig(before, path))  # type: ignore[arg-type]
    if grown < 0:
        raise ValueError(f"counter {path!r} went backwards ({grown}); was the server restarted?")
    return grown


# ----------------------------------------------------------------------
# Peak RSS of the timed phase
# ----------------------------------------------------------------------
def _status_kb(field: str, status_path: str) -> float:
    with open(status_path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise KeyError(f"{status_path} has no {field} line")


class PeakRss:
    """Peak resident set size over a window, in MB.

    ``start()`` writes ``5`` to ``clear_refs``, which resets the kernel's
    ``VmHWM`` high-water mark to the current RSS, so the mark read by
    ``stop()`` covers only the window and not set-up.  When ``clear_refs``
    is not writable (old kernels, restricted containers) it falls back to
    sampling ``VmRSS`` from a background thread every ``interval`` seconds.
    """

    def __init__(
        self,
        clear_refs: str = "/proc/self/clear_refs",
        status: str = "/proc/self/status",
        interval: float = 0.02,
    ) -> None:
        self.clear_refs = clear_refs
        self.status = status
        self.interval = interval
        self.method: Optional[str] = None
        self._peak_kb = 0.0
        self._stop = threading.Event()
        self._sampler: Optional[threading.Thread] = None

    def start(self) -> "PeakRss":
        try:
            with open(self.clear_refs, "w", encoding="ascii") as handle:
                handle.write("5")
            self.method = "vmhwm"
        except OSError:
            self.method = "sampled"
            self._peak_kb = _status_kb("VmRSS", self.status)
            self._sampler = threading.Thread(target=self._sample, name="peak-rss", daemon=True)
            self._sampler.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            self._peak_kb = max(self._peak_kb, _status_kb("VmRSS", self.status))

    def stop(self) -> float:
        if self.method == "vmhwm":
            return _status_kb("VmHWM", self.status) / 1024.0
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join()
        self._peak_kb = max(self._peak_kb, _status_kb("VmRSS", self.status))
        return self._peak_kb / 1024.0


# ----------------------------------------------------------------------
# Span arithmetic (records are repro.obs.trace.SpanRecord-like objects)
# ----------------------------------------------------------------------
def self_times_us(records: Sequence[object]) -> Dict[int, float]:
    """Self time of every span: its duration minus its direct children's.

    Parent links only exist between spans on the same thread (the tracer
    keeps one span stack per thread), so subtracting children never
    subtracts time that ran in parallel elsewhere.  Work fanned out to pool
    threads appears as separate root spans, which callers sum instead.
    """
    child_time: Dict[int, float] = {}
    for record in records:
        parent = getattr(record, "parent_id")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + getattr(record, "duration_us")
    return {
        getattr(record, "span_id"): getattr(record, "duration_us")
        - child_time.get(getattr(record, "span_id"), 0.0)
        for record in records
    }


def outermost(records: Sequence[object], name: str, by_id: Mapping[int, object]) -> List[object]:
    """Spans called ``name`` that are not nested in another span of that name.

    A wrapped function that calls itself through another binding (for
    example a method delegating to the module function of the same layer)
    must count once, not twice.  ``by_id`` maps span ids to records.
    """
    found = []
    for record in records:
        if getattr(record, "name") != name:
            continue
        parent = by_id.get(getattr(record, "parent_id"))
        while parent is not None and getattr(parent, "name") != name:
            parent = by_id.get(getattr(parent, "parent_id"))
        if parent is None:
            found.append(record)
    return found


def layer_totals(records: Sequence[object], names: Iterable[str]) -> Dict[str, Dict[str, float]]:
    """Call count, total and self milliseconds of each named layer's spans."""
    by_id = {getattr(record, "span_id"): record for record in records}
    selfs = self_times_us(records)
    totals = {}
    for name in names:
        spans = outermost(records, name, by_id)
        totals[name] = {
            "calls": float(len(spans)),
            "ms": sum(getattr(r, "duration_us") for r in spans) / 1000.0,
            "self_ms": sum(selfs[getattr(r, "span_id")] for r in spans) / 1000.0,
        }
    return totals


class CoverageError(RuntimeError):
    """A boundary the workload must cross recorded no calls."""


def check_coverage(calls: Mapping[str, float], required: Iterable[str], workload: str) -> None:
    """Fail loudly when a required boundary recorded zero calls.

    Without this an import refactor (a caller switching to another binding
    of a wrapped function) would silently report 0 ms for a whole layer.
    """
    missing = sorted(name for name in required if not calls.get(name))
    if missing:
        raise CoverageError(
            f"{workload}: no calls recorded at {', '.join(missing)}; "
            "the wrapper no longer sits on the binding the program calls"
        )


# ----------------------------------------------------------------------
# Host calibration
# ----------------------------------------------------------------------
def calib_ms(repeats: int = 15, rounds: int = 24) -> float:
    """Median time of a fixed single-thread blake2b loop (ms).

    Flags noisy hosts (CPU steal); it is reported, never compared.
    """
    block = bytes(range(256)) * 1024
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        digest = b""
        for _ in range(rounds):
            digest = hashlib.blake2b(block + digest).digest()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)
