"""Spread curves: coverage-over-time summaries of gossip executions.

Round counts compress an execution to one number; these helpers keep the
shape.  From a trace carrying the ``coverage`` gauge (see
:func:`repro.core.runner.coverage_gauge`) they extract the rounds needed
to reach any coverage quantile and render a terminal-friendly sparkline —
used by the examples and handy when eyeballing why one run beat another
(fast start vs. short tail).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.trace import Trace

__all__ = [
    "SpreadCurve",
    "spread_curve_from_series",
    "spread_curve_from_trace",
    "sparkline",
]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class SpreadCurve:
    """Mean-coverage fraction over time, with quantile lookups.

    ``points`` is a list of ``(round, fraction)`` pairs with fraction in
    [0, 1]: the mean number of tokens known, normalized by k.
    """

    points: tuple
    k: int

    def __post_init__(self):
        if not self.points:
            raise ConfigurationError("a spread curve needs at least one point")
        rounds = [r for r, _ in self.points]
        if rounds != sorted(rounds):
            raise ConfigurationError("curve points must be round-ordered")

    def rounds_to_fraction(self, fraction: float) -> int | None:
        """First recorded round with mean coverage ≥ ``fraction`` (None if
        never reached within the trace)."""
        if not 0 < fraction <= 1:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        for round_index, value in self.points:
            if value >= fraction:
                return round_index
        return None

    def summary(self) -> dict:
        """Rounds to 50% / 90% / 100% mean coverage."""
        return {
            "t50": self.rounds_to_fraction(0.5),
            "t90": self.rounds_to_fraction(0.9),
            "t100": self.rounds_to_fraction(1.0),
        }


def spread_curve_from_series(series, k: int) -> SpreadCurve:
    """Build a :class:`SpreadCurve` from ``(round, (min, mean))`` pairs.

    The pairs are the ``coverage`` gauge's samples — live from a trace or
    deserialized from an experiments-layer run record; the curve keeps the
    mean normalized by k.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    points = tuple(
        (round_index, min(mean / k, 1.0))
        for round_index, (_, mean) in series
    )
    return SpreadCurve(points=points, k=k)


def spread_curve_from_trace(trace: Trace, k: int,
                            gauge: str = "coverage") -> SpreadCurve:
    """Build a :class:`SpreadCurve` from the ``coverage`` gauge series."""
    series = trace.gauge_series(gauge)
    if not series:
        raise ConfigurationError(
            f"trace has no {gauge!r} gauge; pass coverage_gauge() to the run"
        )
    return spread_curve_from_series(series, k)


def sparkline(values, width: int = 40) -> str:
    """Render values in [0, 1] as a fixed-width unicode sparkline."""
    values = list(values)
    if not values:
        raise ConfigurationError("sparkline needs at least one value")
    for v in values:
        if not 0 <= v <= 1.0 + 1e-9:
            raise ConfigurationError(f"sparkline values must be in [0,1]: {v}")
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    # Resample to the target width by bucketing.
    if len(values) <= width:
        sampled = values
    else:
        sampled = []
        for i in range(width):
            lo = i * len(values) // width
            hi = max((i + 1) * len(values) // width, lo + 1)
            bucket = values[lo:hi]
            sampled.append(sum(bucket) / len(bucket))
    out = []
    for v in sampled:
        level = min(int(v * len(_SPARK_LEVELS)), len(_SPARK_LEVELS) - 1)
        out.append(_SPARK_LEVELS[level])
    return "".join(out)
