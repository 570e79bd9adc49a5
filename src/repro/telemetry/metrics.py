"""Process-local metrics: counters, gauges, and histograms with labels.

The registry is the passive half of :mod:`repro.telemetry` — call sites
hold a metric object (``registry.counter("net.retries", uid=3)``) and
bump it; nothing here samples, schedules, or draws randomness.  Two
contracts matter:

* **Zero randomness.**  No code in this module (or anywhere in the
  telemetry package) touches a random stream, the :class:`SeedTree`, or
  any engine state.  Enabling telemetry must leave every trace
  byte-identical — the golden corpus's "telemetry on" variant row
  (tests/test_golden_traces.py) enforces it.
* **Deterministic snapshots.**  :meth:`MetricsRegistry.snapshot` orders
  entries canonically (kind, name, sorted label items), label values are
  stringified at registration, and :meth:`to_json` serializes with
  sorted keys and no whitespace — two registries fed the same events
  produce the same bytes.

When telemetry is disabled the engine holds :data:`NULL_SINK` instead: a
:class:`NullSink` whose ``counter``/``gauge``/``histogram`` all return
one shared no-op metric, so an instrumented hot path costs a single
attribute check plus a no-op call.

Histograms keep a bounded window of recent observations (the last
:data:`HISTOGRAM_WINDOW`) for quantiles — deterministic thinning (drop
oldest), no reservoir sampling — alongside exact ``count``/``sum``/
``min``/``max``.
"""

from __future__ import annotations

import json
import math
from collections import deque

__all__ = [
    "HISTOGRAM_WINDOW",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullSink",
    "NULL_SINK",
    "prometheus_text",
    "quantile",
]

#: Observations a histogram keeps for quantile queries.  Oldest are
#: dropped first (deque), so the window is a pure function of the
#: observation sequence — no sampling randomness.
HISTOGRAM_WINDOW = 4096


def quantile(values, q: float) -> float | None:
    """Linear-interpolation quantile of ``values`` (numpy's default
    rule), ``None`` on an empty sequence.  ``q`` is in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return None
    if len(ordered) == 1:
        return float(ordered[0])
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    fraction = position - low
    return float(ordered[low] * (1 - fraction) + ordered[high] * fraction)


class Counter:
    """Monotonically increasing integer."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """Last-write-wins numeric level."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value) -> None:
        self.value = float(value)

    def snapshot(self):
        return self.value


class Histogram:
    """Exact count/sum/min/max plus a bounded window for quantiles."""

    kind = "histogram"
    __slots__ = ("count", "total", "min", "max", "_window")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._window: deque = deque(maxlen=HISTOGRAM_WINDOW)

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self._window.append(value)

    def quantile(self, q: float) -> float | None:
        return quantile(self._window, q)

    def snapshot(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
        }


class _NullMetric:
    """One shared object standing in for every disabled metric."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def quantile(self, q: float) -> None:
        return None


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Names + label sets -> live metric objects.

    Metric names are dotted lowercase ``subsystem.measurement`` (units
    suffixed: ``_s``, ``_bytes``); labels are keyword arguments whose
    values are stringified so the registry key — and therefore snapshot
    order — is canonical.
    """

    enabled = True

    def __init__(self):
        self._metrics: dict[tuple, object] = {}

    def _get(self, cls, name: str, labels: dict):
        key = (
            cls.kind,
            name,
            tuple(sorted((k, str(v)) for k, v in labels.items())),
        )
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls()
        elif metric.kind != cls.kind:  # pragma: no cover - keyed by kind
            raise TypeError(f"metric {name!r} already registered as "
                            f"{metric.kind}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def snapshot(self) -> list[dict]:
        """Canonically ordered, JSON-able view of every metric."""
        return [
            {
                "kind": kind,
                "name": name,
                "labels": dict(labels),
                "value": metric.snapshot(),
            }
            for (kind, name, labels), metric in sorted(
                self._metrics.items(), key=lambda item: item[0]
            )
        ]

    def to_json(self) -> str:
        return json.dumps(
            self.snapshot(), sort_keys=True, separators=(",", ":")
        )


class NullSink:
    """Disabled-telemetry stand-in: every lookup yields the shared no-op
    metric, snapshots are empty, and nothing allocates per call."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, **labels) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> list:
        return []

    def to_json(self) -> str:
        return "[]"


NULL_SINK = NullSink()


def _prom_name(name: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )


def _prom_labels(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{v}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def prometheus_text(registry) -> str:
    """Render a registry snapshot in Prometheus text exposition format.

    Counters/gauges become single samples; histograms expand to
    ``_count``/``_sum`` plus ``quantile``-labelled p50/p99 samples
    (summary-style).  Output order is the registry's canonical snapshot
    order, so equal registries render equal bytes.
    """
    lines: list[str] = []
    for entry in registry.snapshot():
        name = _prom_name(entry["name"])
        labels = entry["labels"]
        value = entry["value"]
        if entry["kind"] == "histogram":
            lines.append(f"{name}_count{_prom_labels(labels)} "
                         f"{value['count']}")
            lines.append(f"{name}_sum{_prom_labels(labels)} {value['sum']}")
            for q, quantile_label in (("p50", "0.5"), ("p99", "0.99")):
                if value[q] is not None:
                    tag = {"quantile": quantile_label}
                    lines.append(
                        f"{name}{_prom_labels(labels, tag)} {value[q]}"
                    )
        else:
            lines.append(f"{name}{_prom_labels(labels)} {value}")
    return "\n".join(lines) + ("\n" if lines else "")
