"""Unified observability: metrics, phase profiling, live introspection.

One :class:`Telemetry` object bundles the two halves — a
:class:`~repro.telemetry.metrics.MetricsRegistry` (counters / gauges /
histograms with label sets) and a
:class:`~repro.telemetry.profile.PhaseProfiler` (``span()`` wall-clock
accounting) — and every surface that runs gossip accepts a ``telemetry``
argument resolved by :func:`resolve_telemetry`:

* ``None`` / ``False`` (the default): :data:`NULL_TELEMETRY`, whose
  sink and profiler are shared no-ops — the instrumented hot paths cost
  one attribute check;
* ``True`` / ``"on"``: a fresh enabled :class:`Telemetry`;
* a spec dict ``{"enabled": bool, "stream": path}`` (the RunSpec
  ``telemetry`` block): ``stream`` appends one canonical JSON line per
  closed span to ``path``;
* an existing :class:`Telemetry` (or :data:`NULL_TELEMETRY`): passed
  through, so a caller can share one registry across runs.

The package-wide contract: **telemetry draws zero randomness and never
feeds back into engine state** — traces are byte-identical with it on
or off (the "telemetry on" variant row of the golden corpus,
tests/test_golden_traces.py, in tier-1), and measured profiling
overhead stays under 5% of rounds/s at n=2000
(``benchmarks/bench_engine.py``; EXPERIMENTS.md OBS).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_SINK,
    NullSink,
    prometheus_text,
    quantile,
)
from repro.telemetry.profile import (
    NULL_PROFILER,
    NullProfiler,
    PhaseProfiler,
    merge_profiles,
    render_phase_table,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullSink",
    "NULL_SINK",
    "NullProfiler",
    "NULL_PROFILER",
    "PhaseProfiler",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "merge_profiles",
    "prometheus_text",
    "quantile",
    "render_phase_table",
    "resolve_telemetry",
]

#: Keys a ``telemetry`` spec dict may carry (the RunSpec block).
TELEMETRY_SPEC_KEYS = frozenset({"enabled", "stream"})


class Telemetry:
    """An enabled telemetry bundle: one registry + one profiler."""

    enabled = True

    def __init__(self, stream=None):
        self.metrics = MetricsRegistry()
        self.profiler = PhaseProfiler(stream=stream)

    def profile(self) -> dict:
        """The accumulated phase profile (see PhaseProfiler.as_dict)."""
        return self.profiler.as_dict()


class NullTelemetry:
    """The disabled bundle — shared no-op sink and profiler."""

    enabled = False
    metrics = NULL_SINK
    profiler = NULL_PROFILER

    def profile(self) -> dict:
        return {}


NULL_TELEMETRY = NullTelemetry()


def resolve_telemetry(spec):
    """Materialize any accepted ``telemetry=`` form (see module doc)."""
    if spec is None or spec is False:
        return NULL_TELEMETRY
    if spec is True or spec == "on":
        return Telemetry()
    if isinstance(spec, (Telemetry, NullTelemetry)):
        return spec
    if isinstance(spec, dict):
        unknown = set(spec) - TELEMETRY_SPEC_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown telemetry keys {sorted(unknown)}; allowed: "
                f"{sorted(TELEMETRY_SPEC_KEYS)}"
            )
        if not spec.get("enabled", True):
            return NULL_TELEMETRY
        return Telemetry(stream=spec.get("stream"))
    raise ConfigurationError(
        f"telemetry must be None, a bool, 'on', a spec dict, or a "
        f"Telemetry instance; got {type(spec).__name__}"
    )
