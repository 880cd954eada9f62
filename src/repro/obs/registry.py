"""Unified metrics registry: counters/gauges/histograms with labels.

One :class:`MetricsRegistry` per chip publishes every telemetry number
the stack produces.  ``ServiceStats`` (:mod:`repro.system.stats`) keeps
its counters in registry cells; ``ChipStats`` binds read-through cells
(:meth:`MetricFamily.bind`) to the chip's cost ledger.  Either way the
number ``summary()`` reports is the one the Prometheus dump
(:func:`repro.obs.export.prometheus_text`) exports.

Zero dependencies, and deliberately small: a metric family owns children
keyed by label values; a child is a bare mutable cell (``value`` /
``inc`` / ``set``) so hot-path increments are one attribute add, or a
read-through cell whose ``value`` reads its source.  A family declared
with no label names acts as its own single cell.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator

__all__ = [
    "HistogramCell",
    "MetricFamily",
    "MetricsRegistry",
]

_KINDS = ("counter", "gauge", "histogram")

#: Default histogram bucket upper bounds (seconds-flavoured: latencies
#: from 1 µs to 10 s, plus +Inf implicitly).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class _Cell:
    """One counter/gauge sample: a mutable float with inc/set."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value


class _ReadCell:
    """A counter sample with no state of its own: ``value`` reads its
    source (for example a cost ledger) at export time."""

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], float]) -> None:
        self.read = read

    @property
    def value(self) -> float:
        return float(self.read())


class HistogramCell:
    """One histogram sample: count/sum/min/max plus bucket counts."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricFamily:
    """A named metric with fixed label names and per-label-value children.

    With ``label_names=()`` the family is its own single cell:
    ``family.inc()`` / ``family.value`` work directly.  With labels,
    ``family.labels(mode="inv")`` returns (creating on first use) the
    child cell for that label combination.
    """

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "_children", "_lock")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        if not self.label_names:
            self._children[()] = self._new_cell()

    def _new_cell(self):
        return HistogramCell(self.buckets) if self.kind == "histogram" else _Cell()

    def labels(self, *values: object, **named: object):
        """The child cell for one label-value combination."""
        if named:
            if values:
                raise TypeError("pass label values positionally or by name, not both")
            values = tuple(named[name] for name in self.label_names)
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {key}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._new_cell())
        return child

    def bind(self, read: Callable[[], float], *values: object) -> None:
        """Make the sample for label ``values`` a read-through of ``read()``:
        the registry exports the source's value and keeps no copy."""
        self._children[tuple(str(v) for v in values)] = _ReadCell(read)

    # -- zero-label shortcuts ------------------------------------------------

    @property
    def _solo(self):
        if self.label_names:
            raise ValueError(f"{self.name} has labels {self.label_names}; use .labels()")
        return self._children[()]

    @property
    def value(self) -> float:
        return self._solo.value

    def inc(self, amount: float = 1.0) -> None:
        self._solo.inc(amount)

    def set(self, value: float) -> None:
        self._solo.set(value)

    def observe(self, value: float) -> None:
        self._solo.observe(value)

    # -- export --------------------------------------------------------------

    def samples(self) -> Iterator[tuple[dict[str, str], object]]:
        """Yield ``(labels_dict, cell)`` for every child, sorted by labels."""
        for key in sorted(self._children):
            yield dict(zip(self.label_names, key)), self._children[key]


class MetricsRegistry:
    """All metric families for one chip (and its serve layer)."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(label_names):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.label_names}"
                )
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, tuple(label_names), buckets)
                self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", label_names: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._family(name, "counter", help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._family(name, "gauge", help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, label_names, buckets)

    def families(self) -> "list[MetricFamily]":
        """Registered families, sorted by name (stable export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)
