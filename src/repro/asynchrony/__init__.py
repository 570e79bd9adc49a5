"""The asynchrony layer: per-node clocks over a deterministic event schedule.

The round engine (:mod:`repro.sim.engine`) realizes the paper's lock-step
synchronous rounds; this package realizes the *asynchronous* mobile
telephone model of the follow-up work (Newport–Weaver–Zheng): every
device runs its own scan→propose→accept→connect cycle on its own clock,
scheduled by a pluggable :class:`~repro.asynchrony.timing.TimingModel`
and executed by :class:`~repro.asynchrony.engine.AsyncSimulation` one
round window at a time.  One protocol surface, two execution
semantics — and the synchronous null model is provably (and
differentially tested to be) event-for-event identical to the round
engine.
"""

from repro.asynchrony.engine import AsyncSimulation
from repro.asynchrony.timing import (
    TICKS_PER_ROUND,
    GilbertElliottPauses,
    HeterogeneousRates,
    Synchronous,
    TimingModel,
    UniformJitter,
    build_timing,
)

__all__ = [
    "AsyncSimulation",
    "TICKS_PER_ROUND",
    "TimingModel",
    "Synchronous",
    "UniformJitter",
    "HeterogeneousRates",
    "GilbertElliottPauses",
    "build_timing",
]
