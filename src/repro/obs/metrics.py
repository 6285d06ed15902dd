"""Structured metrics: counters, gauges, and fixed-bucket latency histograms.

This module is the accounting backbone for every layer of the serving
stack.  A :class:`MetricsRegistry` hands out named instruments keyed by a
metric name plus a set of label dimensions (``tenant``, ``document``,
``kind`` ...).  Instruments are cheap: a counter is one integer behind a
lock, a histogram is a fixed array of bucket counts.  Nothing allocates
on the hot path after the first call for a given label set.

Design constraints inherited from the rest of the repository:

* Exact reconciliation.  The serving layer asserts accounting
  invariants (``admitted == completed + shed + failed``), so counters
  must not drop increments under concurrency.  Each instrument guards
  its state with its own small lock rather than relying on GIL
  scheduling accidents.
* Deterministic snapshots.  ``snapshot()`` and ``render_text()`` emit
  label sets in sorted order so benchmark payloads and scrape output
  are stable across runs.
* Histogram percentiles are bucket-quantised (the upper bound of the
  bucket containing the requested rank) but clamped to the observed
  ``[min, max]`` range, so a single-sample histogram reports the exact
  sample and the overflow bucket reports the true maximum.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "labels_key",
]

LabelKey = Tuple[Tuple[str, str], ...]


def labels_key(labels: Mapping[str, str]) -> LabelKey:
    """Canonicalise a label mapping into a hashable, sorted tuple."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _default_latency_buckets() -> Tuple[float, ...]:
    """Exponential upper bounds from 100us to ~10s (4 per decade)."""
    bounds: List[float] = []
    bound = 1e-4
    while bound <= 10.0:
        bounds.append(bound)
        bound *= 1.7782794100389228  # 10 ** 0.25
    return tuple(bounds)


DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = _default_latency_buckets()


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str = "", labels: Optional[Mapping[str, str]] = None) -> None:
        """Create a counter, optionally bound to a name and label set."""
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero the counter."""
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.labels!r}, value={self.value})"


class Gauge:
    """A value that can go up and down (queue depth, inflight requests)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str = "", labels: Optional[Mapping[str, str]] = None) -> None:
        """Create a gauge, optionally bound to a name and label set."""
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount`` (default 1) from the gauge."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """Current gauge value."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Zero the gauge."""
        self.set(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.labels!r}, value={self.value})"


class Histogram:
    """Fixed-bucket histogram with quantised percentile snapshots.

    Buckets are defined by a sorted tuple of upper bounds; observations
    above the last bound land in an implicit overflow bucket.  The
    histogram additionally tracks count, sum, min, and max so snapshots
    can clamp quantised percentiles to the observed range.
    """

    __slots__ = ("name", "labels", "bounds", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(
        self,
        name: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        """Create a histogram with the given bucket upper bounds."""
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        bounds = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bucket bounds must be sorted ascending")
        if len(bounds) == 0:
            raise ValueError("histogram requires at least one bucket bound")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    def percentile(self, p: float) -> Optional[float]:
        """Quantised percentile ``p`` in [0, 100]; None with no samples."""
        with self._lock:
            return self._percentile_locked(p)

    def _percentile_locked(self, p: float) -> Optional[float]:
        if self._count == 0:
            return None
        rank = max(1, int(round(p / 100.0 * self._count + 0.5)))
        rank = min(rank, self._count)
        running = 0
        chosen = len(self._counts) - 1
        for index, bucket_count in enumerate(self._counts):
            running += bucket_count
            if running >= rank:
                chosen = index
                break
        if chosen >= len(self.bounds):
            # Overflow bucket: the best upper bound we know is the max.
            value = self._max if self._max is not None else self.bounds[-1]
        else:
            value = self.bounds[chosen]
        # Clamp quantisation error to the observed range.
        if self._min is not None:
            value = max(value, self._min)
        if self._max is not None:
            value = min(value, self._max)
        return value

    def snapshot(self) -> Dict[str, Optional[float]]:
        """Count/sum/min/max plus p50/p95/p99 in one consistent view."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "p50": self._percentile_locked(50.0),
                "p95": self._percentile_locked(95.0),
                "p99": self._percentile_locked(99.0),
            }

    def reset(self) -> None:
        """Discard all observations."""
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, {self.labels!r}, count={self.count})"


class MetricsRegistry:
    """Get-or-create factory and snapshot surface for all instruments.

    Instruments are keyed by ``(name, sorted(labels))``.  Creation takes
    the registry lock once; subsequent lookups with the same key return
    the cached instrument, so hot paths should hold on to the instrument
    rather than re-resolving it per call (every ``net/`` call site does).
    """

    __slots__ = ("_lock", "_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        """Create an empty registry."""
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        """Return the counter for ``name`` + ``labels``, creating it once."""
        key = (name, labels_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = Counter(name, labels)
                self._counters[key] = instrument
            return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Return the gauge for ``name`` + ``labels``, creating it once."""
        key = (name, labels_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = Gauge(name, labels)
                self._gauges[key] = instrument
            return instrument

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: str
    ) -> Histogram:
        """Return the histogram for ``name`` + ``labels``, creating it once."""
        key = (name, labels_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(name, labels, buckets)
                self._histograms[key] = instrument
            return instrument

    def counters(self, name: Optional[str] = None) -> List[Counter]:
        """All counters, optionally filtered by metric name."""
        with self._lock:
            return [c for (n, _), c in sorted(self._counters.items())
                    if name is None or n == name]

    def gauges(self, name: Optional[str] = None) -> List[Gauge]:
        """All gauges, optionally filtered by metric name."""
        with self._lock:
            return [g for (n, _), g in sorted(self._gauges.items())
                    if name is None or n == name]

    def histograms(self, name: Optional[str] = None) -> List[Histogram]:
        """All histograms, optionally filtered by metric name."""
        with self._lock:
            return [h for (n, _), h in sorted(self._histograms.items())
                    if name is None or n == name]

    def counter_total(self, name: str, **labels: str) -> int:
        """Sum of all counters named ``name`` whose labels include ``labels``."""
        wanted = set(labels_key(labels))
        return sum(c.value for c in self.counters(name)
                   if wanted <= set(labels_key(c.labels)))

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """A JSON-friendly dump of every instrument, sorted and labelled."""
        out: Dict[str, List[Dict[str, object]]] = {
            "counters": [], "gauges": [], "histograms": [],
        }
        for counter in self.counters():
            out["counters"].append({
                "name": counter.name, "labels": dict(counter.labels),
                "value": counter.value,
            })
        for gauge in self.gauges():
            out["gauges"].append({
                "name": gauge.name, "labels": dict(gauge.labels),
                "value": gauge.value,
            })
        for histogram in self.histograms():
            entry: Dict[str, object] = {
                "name": histogram.name, "labels": dict(histogram.labels),
            }
            entry.update(histogram.snapshot())
            out["histograms"].append(entry)
        return out

    def render_text(self) -> str:
        """Prometheus-style plaintext exposition of the registry."""
        lines: List[str] = []
        for counter in self.counters():
            lines.append(_format_sample(counter.name, counter.labels, counter.value))
        for gauge in self.gauges():
            lines.append(_format_sample(gauge.name, gauge.labels, gauge.value))
        for histogram in self.histograms():
            snap = histogram.snapshot()
            lines.append(_format_sample(
                histogram.name + "_count", histogram.labels, snap["count"]))
            lines.append(_format_sample(
                histogram.name + "_sum", histogram.labels, snap["sum"]))
            for quantile in ("p50", "p95", "p99"):
                value = snap[quantile]
                if value is None:
                    continue
                labels = dict(histogram.labels)
                labels["quantile"] = quantile
                lines.append(_format_sample(histogram.name, labels, value))
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Reset every instrument in place (instruments stay registered)."""
        for counter in self.counters():
            counter.reset()
        for gauge in self.gauges():
            gauge.reset()
        for histogram in self.histograms():
            histogram.reset()


def _format_sample(name: str, labels: Mapping[str, str], value: object) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(str(val))}"'
            for key, val in sorted(labels.items())
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
