"""Deterministic fault injection: sleep, churn, and lossy connections.

The paper's mobile telephone model idealizes the smartphone crowd: every
phone is awake every round, every accepted connection succeeds, and the
population never changes.  The motivating settings (protests, disasters,
festivals) are exactly where phones duty-cycle their radios, drop links,
and churn — follow-up work in this line (Newport & Weaver's random gossip
processes, Newport/Weaver/Zheng's asynchronous gossip) studies gossip
under precisely this kind of unreliable behavior.  This module is the
simulator's home for that axis.

A :class:`FaultModel` makes two kinds of decisions, both *pure functions
of (seed, round)* so that every consumer — either engine front half, any
``run_sweep --jobs`` value, a metrics pass replaying old rounds — derives
the same faults:

* :meth:`FaultModel.active_mask` — which vertices participate this round.
  An inactive vertex is invisible for the round: it does not advertise,
  cannot be proposed to, and sees no neighbors (the engine masks it out
  of the round's topology on both the object and the array path).
* :meth:`FaultModel.drop_connection` — whether a resolved match fails
  after acceptance (the link-layer handshake breaking down).  Dropped
  matches skip Stage 3 entirely and are counted in the trace's
  ``dropped_connections`` column.

Consumers do not call those two (or ``crashed_this_round``) on a model:
they ask a :class:`FaultReader`, which owns the mask normalization, the
crash rule and the surviving/doomed split — one reading of the schedule
for the round engine, the async window executor, the live coordinator
and the chaos layer (DESIGN.md §6).

All randomness comes from a dedicated :class:`~repro.rng.SeedTree`
subtree (``("faults", <kind>)``), so fault draws never perturb the
engine's acceptance lottery or any node's private stream.  The null model
:class:`NoFaults` consumes **zero** randomness and leaves the engine's
behavior byte-identical to a run with no fault model at all — pinned by
the golden corpus's "null fault model" variant row
(tests/test_golden_traces.py).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.registry import FAULT_REGISTRY, register_fault
from repro.rng import SeedTree

__all__ = [
    "FaultModel",
    "NoFaults",
    "SleepCycle",
    "CrashChurn",
    "LossyLinks",
    "FaultReader",
    "build_fault",
]


def build_fault(fault, n: int, seed: int) -> "FaultModel | None":
    """The fault model for ``None``, a registered name (default
    parameters), a ``{"kind": ..., **params}`` dict, or a built model.

    The one resolver every layer shares (``run_gossip``, ``RunSpec``, the
    live coordinator).  The clean model — ``None``, kind ``"none"``, a
    :class:`NoFaults` — returns ``None``, so callers hand the result
    straight to :class:`~repro.sim.engine.Simulation`.  A built model
    must have been built for this ``n``.
    """
    return _bound_to(FAULT_REGISTRY.resolve(fault, n, seed, default="none"), n)


def _bound_to(model, n: int):
    """``model``, if it is null or was built for ``n`` vertices."""
    if model is not None and not model.is_null and model.n != n:
        raise ConfigurationError(
            f"fault model is bound to n={model.n} but the graph has n={n}"
        )
    return model


class FaultModel:
    """Per-round activity masks plus per-match drop decisions.

    Subclasses draw from ``self._tree`` (a ``("faults", kind)`` subtree of
    the run seed) and must keep every decision a pure function of the
    seed and the round index — never of call order or call count — so the
    object and array engine paths, re-runs, and parallel sweep workers
    all see identical faults.
    """

    #: True only on :class:`NoFaults`: the engine skips the fault branch
    #: entirely, keeping the no-fault hot paths untouched.
    is_null = False

    #: When True, the engine calls ``reset_tokens()`` (where a protocol
    #: provides it) on every vertex that crashes, modeling a phone that
    #: loses app state instead of resuming where it left off.
    resets_state = False

    #: How :class:`~repro.net.chaos.FaultPlan` enacts this model's
    #: decisions *physically* against live :class:`PeerServer`\\ s:
    #: ``"kill"`` (tear the TCP endpoint down and rebind it on rejoin —
    #: crash/churn), ``"sleep"`` (the endpoint accepts and hangs up
    #: without replying — a duty-cycled radio), ``"drop"`` (per-match
    #: socket-level interdiction of the Stage-3 handshake — lossy
    #: links), ``"mask"`` (coordinator-side masking only, the
    #: conservative fallback), or ``"none"``.  The mapping lives here,
    #: next to the models, so sim and chaos can never disagree about
    #: what a fault *is*.
    chaos_enactment = "mask"

    #: How the model's ``round_index`` argument is derived by the
    #: caller: ``"cycle"`` (default — the synchronous round number, or a
    #: node's *local* cycle under asynchrony) or ``"virtual"`` (the
    #: global virtual-time round window / wall-clock round index, so one
    #: fault spec drives :class:`~repro.sim.engine.Simulation`,
    #: :class:`~repro.asynchrony.engine.AsyncSimulation`, and live
    #: :mod:`repro.net` runs off the same clock).  The model itself is
    #: clock-agnostic — the attribute tells the engine which index to
    #: pass.
    FAULT_CLOCKS = ("cycle", "virtual")

    def __init__(self, n: int, seed: int, kind: str, clock: str = "cycle"):
        if n < 1:
            raise ConfigurationError(f"fault models need n >= 1, got {n}")
        if clock not in self.FAULT_CLOCKS:
            raise ConfigurationError(
                f"unknown fault clock {clock!r}; choose from "
                f"{self.FAULT_CLOCKS}"
            )
        self.n = n
        self.seed = seed
        self.kind = kind
        self.clock = clock
        self._tree = SeedTree(seed).child("faults", kind)

    def active_mask(self, round_index: int) -> np.ndarray | None:
        """Boolean vertex mask for ``round_index`` (``None`` = all active).

        Must be derivable for any round in any order.
        """
        return None

    def drop_connection(
        self, round_index: int, initiator_uid: int, responder_uid: int
    ) -> bool:
        """Whether the resolved match ``(initiator, responder)`` fails."""
        return False

    def crashed_this_round(self, round_index: int):
        """Vertices whose crash *starts* at ``round_index`` (reset hook).

        Models with ``resets_state`` should override this so the engine
        resets exactly the crashes the model knows about — including one
        that begins the instant a previous outage ends, which a
        mask-transition diff cannot see.  ``None`` (the default) tells
        the engine to fall back to diffing consecutive activity masks.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


#: Schedules are int64 arrays of rounds and offsets.
_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_count(name: str, value, low: int, high: int) -> None:
    if not isinstance(value, int) or not low <= value <= high:
        raise ConfigurationError(
            f"{name} must be an integer in [{low}, {high}], got {value!r}"
        )


@register_fault(
    name="none",
    description="the paper's clean model: every node awake, every "
                "connection succeeds (zero randomness consumed)",
)
class NoFaults(FaultModel):
    """The null model: the paper's clean execution, zero randomness.

    The engine treats this exactly like having no fault model: no mask is
    computed, no stream is consumed, and traces are byte-identical to the
    pre-fault-layer engine on both paths (the load-bearing invariant the
    golden corpus's "null fault model" variant row pins).
    """

    is_null = True
    chaos_enactment = "none"

    def __init__(self, n: int = 1, seed: int = 0):
        # No SeedTree: the null model must not even derive a stream.
        self.n = n
        self.seed = seed
        self.kind = "none"
        self.clock = "cycle"

    def active_mask(self, round_index: int) -> None:
        return None


@register_fault(
    name="sleep",
    description="duty-cycled radios: each node awake duty-of-period "
                "rounds on a per-node phase",
)
class SleepCycle(FaultModel):
    """Duty-cycled radios: each node is awake ``duty`` of every ``period``
    rounds.

    Phones conserve battery by sleeping their peer-to-peer radio on a
    fixed cycle.  With ``stagger=True`` (default) each node draws a
    uniform phase offset once at construction, so at any instant roughly
    ``duty/period`` of the crowd is awake; with ``stagger=False`` the
    whole crowd sleeps in lockstep (the adversarial variant: the network
    is empty for ``period - duty`` consecutive rounds).

    After the one-time phase draw the mask is fully deterministic — a
    sleep schedule, not a coin flip per round.
    """

    chaos_enactment = "sleep"

    def __init__(self, n: int, seed: int, period: int = 8, duty: int = 6,
                 stagger: bool = True, clock: str = "cycle"):
        super().__init__(n, seed, "sleep", clock=clock)
        _check_count("period", period, 1, _INT64_MAX)
        _check_count("duty", duty, 1, period)
        self.period = period
        self.duty = duty
        self.stagger = stagger
        if stagger:
            rng = self._tree.stream("phase")
            self._phases = np.fromiter(
                (rng.randrange(period) for _ in range(n)),
                dtype=np.int64, count=n,
            )
        else:
            self._phases = np.zeros(n, dtype=np.int64)

    def active_mask(self, round_index: int) -> np.ndarray | None:
        if self.duty == self.period:
            return None
        return ((round_index - 1 + self._phases) % self.period) < self.duty

    def __repr__(self) -> str:
        return (
            f"SleepCycle(n={self.n}, duty={self.duty}/{self.period}, "
            f"stagger={self.stagger})"
        )


@register_fault(
    name="churn",
    description="crash/rejoin churn: per-window outages, token state "
                "retained or reset on crash",
)
class CrashChurn(FaultModel):
    """Nodes crash and rejoin: outages drawn per (node, window).

    Rounds are partitioned into windows of ``cycle`` rounds.  In each
    window a node crashes with probability ``crash_prob``; a crash starts
    at a uniform offset within the window and lasts a uniform number of
    rounds in ``[min_outage, max_outage]`` (truncated at the window edge,
    so every window's schedule is self-contained and re-derivable).  All
    draws come from a per-(node, window) stream, making the mask a pure
    function of (seed, node, window) whatever order rounds are visited.

    ``reset_tokens=True`` models full app-state loss: on the crash round
    the engine calls ``reset_tokens()`` on protocols that provide it
    (:class:`~repro.core.problem.GossipNode` does), dropping every learned
    token back to the node's initial assignment.  The default models a
    phone whose storage survives the reboot.
    """

    chaos_enactment = "kill"

    def __init__(self, n: int, seed: int, cycle: int = 64,
                 crash_prob: float = 0.15, min_outage: int = 8,
                 max_outage: int = 24, reset_tokens: bool = False,
                 clock: str = "cycle"):
        super().__init__(n, seed, "churn", clock=clock)
        _check_count("cycle", cycle, 2, _INT64_MAX)
        if not 0 <= crash_prob <= 1:
            raise ConfigurationError(
                f"crash_prob must be in [0, 1], got {crash_prob}"
            )
        _check_count("max_outage", max_outage, 1, _INT64_MAX)
        _check_count("min_outage", min_outage, 1, max_outage)
        self.cycle = cycle
        self.crash_prob = crash_prob
        self.min_outage = min_outage
        self.max_outage = max_outage
        self.resets_state = bool(reset_tokens)
        # Two cached window schedules (engine access is sequential, but
        # any window can be re-derived from scratch for replays).
        self._schedules: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _window_schedule(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex ``(start, stop)`` outage offsets for one window.

        ``start == cycle`` encodes "no crash this window"; otherwise the
        vertex is inactive for offsets in ``[start, stop)``.
        """
        if window not in self._schedules:
            starts = np.full(self.n, self.cycle, dtype=np.int64)
            stops = np.full(self.n, self.cycle, dtype=np.int64)
            for vertex in range(self.n):
                rng = self._tree.stream("window", window, vertex)
                if rng.random() >= self.crash_prob:
                    continue
                start = rng.randrange(self.cycle)
                length = rng.randint(self.min_outage, self.max_outage)
                starts[vertex] = start
                stops[vertex] = min(start + length, self.cycle)
            if len(self._schedules) >= 2:
                del self._schedules[min(self._schedules)]
            self._schedules[window] = (starts, stops)
        return self._schedules[window]

    def active_mask(self, round_index: int) -> np.ndarray:
        window, offset = divmod(round_index - 1, self.cycle)
        starts, stops = self._window_schedule(window)
        return ~((starts <= offset) & (offset < stops))

    def crashed_this_round(self, round_index: int) -> np.ndarray:
        """Vertices whose outage *starts* at ``round_index`` (reset hook)."""
        window, offset = divmod(round_index - 1, self.cycle)
        starts, stops = self._window_schedule(window)
        return np.nonzero((starts == offset) & (stops > offset))[0]

    def __repr__(self) -> str:
        return (
            f"CrashChurn(n={self.n}, cycle={self.cycle}, "
            f"crash_prob={self.crash_prob}, "
            f"outage=[{self.min_outage}, {self.max_outage}], "
            f"reset_tokens={self.resets_state})"
        )


@register_fault(
    name="lossy",
    description="lossy connections: each resolved match independently "
                "fails with drop_prob after acceptance",
)
class LossyLinks(FaultModel):
    """Probabilistic connection failure after matching.

    Every vertex stays awake; instead, each resolved match independently
    fails with probability ``drop_prob`` — the accepted connection's
    handshake breaking down at the link layer.  The drop draw is keyed by
    (round, initiator UID, responder UID), so it does not depend on how
    many other matches the round produced or in what order they are
    examined.
    """

    chaos_enactment = "drop"

    def __init__(self, n: int, seed: int, drop_prob: float = 0.2,
                 clock: str = "cycle"):
        super().__init__(n, seed, "lossy", clock=clock)
        if not 0 <= drop_prob <= 1:
            raise ConfigurationError(
                f"drop_prob must be in [0, 1], got {drop_prob}"
            )
        self.drop_prob = drop_prob

    def drop_connection(
        self, round_index: int, initiator_uid: int, responder_uid: int
    ) -> bool:
        if self.drop_prob == 0:
            return False
        draw = self._tree.stream(
            "drop", round_index, initiator_uid, responder_uid
        ).random()
        return draw < self.drop_prob

    def __repr__(self) -> str:
        return f"LossyLinks(n={self.n}, drop_prob={self.drop_prob})"


class FaultReader:
    """What a round driver asks of a fault model — the fault layer's one
    consumer-facing surface.

    The round engine, the async window executor and the live
    coordinator's :class:`~repro.net.chaos.FaultPlan` all read a model's
    decisions here and nowhere else, so they cannot disagree about who
    is awake at a fault index, who crashes there, or which accepted
    connections survive.  :meth:`mask`, :meth:`crashed` and
    :meth:`split` are pure in (seed, index); :meth:`crashes` is
    :meth:`crashed` for a driver that visits its indices in order.
    """

    def __init__(self, model: "FaultModel | None", n: int):
        self.n = n
        self.model = _bound_to(model, n) or NoFaults(n)
        #: False on the null model: every answer is the clean model's and
        #: no stream is derived — byte-identical to having no fault layer.
        self.active = not self.model.is_null
        self.resets_state = self.active and self.model.resets_state
        #: Whether decisions key off the global round window / wall clock
        #: instead of the caller's own cycle (``FaultModel.clock``).
        self.virtual = self.active and self.model.clock == "virtual"
        #: Whether the model judges matches at all: one that keeps
        #: ``FaultModel.drop_connection`` drops none, unasked.
        self.drops = self.active and (
            type(self.model).drop_connection
            is not FaultModel.drop_connection)
        self._prev_mask = None      # last visited mask (None = all awake)

    def mask(self, index: int) -> np.ndarray | None:
        """Decision 1: who participates at fault index ``index`` (a
        round; a local cycle or a round window on the asynchronous
        engine).  An all-awake mask is normalized to None so degenerate
        masks (and mask-free models like LossyLinks) stay on the cached
        hot paths."""
        if not self.active:
            return None
        mask = self.model.active_mask(index)
        if mask is None:
            return None
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n,):
            raise ConfigurationError(
                f"fault model returned a mask of shape "
                f"{mask.shape}; expected ({self.n},)"
            )
        return None if mask.all() else mask

    def crashed(self, index: int, mask: np.ndarray | None,
                vertices: np.ndarray, was_active) -> np.ndarray:
        """The crash rule: which of ``vertices`` crash at fault index
        ``index``, as a boolean per entry.  The model's own
        ``crashed_this_round`` report is authoritative when available —
        it sees a crash that starts the instant a previous outage ends,
        which the fallback cannot; without one, a crash is an
        active→inactive transition: ``was_active`` (each entry's
        activity one step earlier) against its bit in ``mask`` (the
        activity mask at ``index``, None = all awake)."""
        reported = self.model.crashed_this_round(index)
        if reported is not None:
            return np.isin(vertices, reported)
        if mask is None:
            return np.zeros(len(vertices), dtype=bool)
        return was_active & ~mask[vertices]

    def crashes(self, index: int, mask: np.ndarray | None) -> list[int]:
        """The vertices crashing at ``index``, ascending, for a driver
        that steps through its indices in order: :meth:`crashed` over
        everyone, judged against the mask of the previous call.  Only
        models with ``resets_state`` are asked (the crashing node loses
        its learned state before the round's stages run)."""
        prev = self._prev_mask
        self._prev_mask = mask
        crashed = self.crashed(
            index, mask, np.arange(self.n), True if prev is None else prev
        )
        return np.nonzero(crashed)[0].tolist()

    def split(self, index: int | None, matches: list[tuple[int, int]],
              cycle_of_uid=None) -> tuple[list, list]:
        """Decision 2: ``(surviving, doomed)`` — accepted matches whose
        connection fails never become connections: they skip Stage 3
        and are counted in the dropped_connections column.  Every match
        is judged at ``index`` — or, when the asynchronous engine passes
        ``None``, at its initiator's local cycle
        ``cycle_of_uid[initiator_uid]``."""
        if not (self.drops and matches):
            return matches, ()
        drop = self.model.drop_connection
        surviving, doomed = [], []
        for pair in matches:
            at = cycle_of_uid[pair[0]] if index is None else index
            (doomed if drop(at, pair[0], pair[1]) else surviving).append(pair)
        return surviving, doomed
