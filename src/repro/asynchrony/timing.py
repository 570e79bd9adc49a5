"""Per-node clocks: when each device's local gossip cycle fires.

The paper's mobile telephone model assumes lock-step synchronous rounds:
every phone scans, proposes, and connects at the same global instants.
Real smartphone P2P stacks are not like that — Newport, Weaver & Zheng's
*Asynchronous Gossip in Smartphone Peer-to-Peer Networks* reformulates
the model with unsynchronized per-device scan/connect timing, and the
random gossip processes line studies spreading under relaxed pairwise
schedules.  This module is the home of that axis: a :class:`TimingModel`
assigns every node a schedule of *activation instants* — the virtual
times at which the node runs one scan→propose→connect cycle — and the
event-driven engine (:class:`~repro.asynchrony.engine.AsyncSimulation`)
executes those cycles off a deterministic queue.

Virtual time is integer **ticks**; one synchronous round spans
:data:`TICKS_PER_ROUND` ticks, so tick arithmetic is exact (no float
heap-ordering hazards) and the synchronous schedule lands every node on
the exact instants ``1·TPR, 2·TPR, ...``.  Every activation time is a
*pure function of (seed, vertex, cycle)* — never of call order — drawn
from a dedicated ``("async", kind)`` :class:`~repro.rng.SeedTree`
subtree, so clock jitter perturbs neither the engine's acceptance lottery
nor any node's private stream, and any consumer (either engine path, any
``run_sweep --jobs`` value, a replay) derives the same schedule.

The null model :class:`Synchronous` consumes **zero** randomness and is
*event-for-event identical* to the round engine — pinned on the scalar
and the window hooks by the golden corpus's classes
(tests/test_golden_traces.py).

Model contract beyond purity:

* ``activation_ticks(vertex, cycle)`` is strictly increasing in
  ``cycle`` for every vertex (a device's cycles never reorder);
* the first activation is at tick >= :data:`TICKS_PER_ROUND` (round 1 is
  the first round — no activity happens before the topology exists).

Timing composes with the fault layer: a
:class:`~repro.sim.faults.SleepCycle` duty cycle masks *which cycles a
node participates in* (indexed by the node's local cycle counter) while
the timing model decides *when* those cycles fire — a phone can be both
slow-clocked and duty-cycled.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.registry import TIMING_REGISTRY, register_timing
from repro.rng import SeedTree, prf_template, serialize_index
from repro.sim.matching import TICKS_PER_ROUND

__all__ = [
    "TICKS_PER_ROUND",
    "TimingModel",
    "Synchronous",
    "UniformJitter",
    "HeterogeneousRates",
    "GilbertElliottPauses",
    "build_timing",
]


def build_timing(timing, n: int, seed: int) -> "TimingModel | None":
    """The timing model for ``None``, a registered name (default
    parameters), a ``{"kind": ..., **params}`` dict, or a built model.

    The one resolver every layer shares (``run_gossip``, ``RunSpec``).
    The null model — ``None``, kind ``"synchronous"``, a
    :class:`Synchronous` — returns ``None``: the run stays on the round
    engine, which *is* the synchronous model.
    """
    return TIMING_REGISTRY.resolve(timing, n, seed, default="synchronous")


class TimingModel:
    """When does each node's local cycle fire, in virtual ticks.

    Subclasses draw from ``self._tree`` (an ``("async", kind)`` subtree
    of the run seed) and must keep every activation time a pure function
    of (seed, vertex, cycle), strictly increasing in cycle, and
    >= :data:`TICKS_PER_ROUND` — see the module docstring for why.
    """

    #: True only on :class:`Synchronous`: the runner keeps null-timing
    #: runs on the round engine.
    is_null = False

    def __init__(self, n: int, seed: int, kind: str):
        if n < 1:
            raise ConfigurationError(f"timing models need n >= 1, got {n}")
        self.n = n
        self.seed = seed
        self.kind = kind
        self._tree = SeedTree(seed).child("async", kind)

    def activation_ticks(self, vertex: int, cycle: int) -> int:
        """Virtual time (ticks) of ``vertex``'s ``cycle``-th activation
        (``cycle`` counts from 1)."""
        raise NotImplementedError

    def activation_ticks_batch(self, vertices, cycles) -> np.ndarray:
        """Vectorized :meth:`activation_ticks` over parallel arrays.

        Returns an ``int64`` array with entry ``i`` equal to
        ``activation_ticks(vertices[i], cycles[i])`` — *exactly* equal,
        bit for bit: the engine derives every window's schedule through
        this hook, and the scalar hook is the model's definition.  The
        base implementation loops the scalar hook (correct for any
        model); models whose draws vectorize override it.
        """
        return np.fromiter(
            (
                self.activation_ticks(int(vertex), int(cycle))
                for vertex, cycle in zip(vertices, cycles)
            ),
            dtype=np.int64,
            count=len(vertices),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


@register_timing(
    name="synchronous",
    description="the paper's lock-step rounds: every node cycles at the "
                "same global instants (zero randomness consumed)",
)
class Synchronous(TimingModel):
    """The null model: the paper's lock-step rounds, zero randomness.

    Every node's cycle ``c`` fires at exactly tick ``c·TPR`` — one full
    cohort per round window, which is precisely the round engine's
    semantics.  The runner treats this like having no timing model (runs
    stay on :class:`~repro.sim.engine.Simulation`); built explicitly, it
    runs through :class:`AsyncSimulation`'s window executor like any
    other timing, which is how the golden corpus proves that executor
    reproduces the round engine event for event.
    """

    is_null = True

    def __init__(self, n: int = 1, seed: int = 0):
        # No SeedTree: the null model must not even derive a stream.
        self.n = n
        self.seed = seed
        self.kind = "synchronous"

    def activation_ticks(self, vertex: int, cycle: int) -> int:
        return cycle * TICKS_PER_ROUND

    def activation_ticks_batch(self, vertices, cycles) -> np.ndarray:
        return np.asarray(cycles, dtype=np.int64) * TICKS_PER_ROUND


@register_timing(
    name="jitter",
    description="uniform scan offsets: each cycle fires up to jitter "
                "rounds late on a fresh per-cycle draw",
)
class UniformJitter(TimingModel):
    """Unsynchronized scan offsets: cycle ``c`` fires at ``c + U·jitter``.

    The mildest asynchrony: every device keeps a nominal one-round cycle
    period but its scan fires a fresh uniform offset in
    ``[0, jitter)`` rounds late, so no two devices share instants and
    advertisements are read stale.  ``jitter < 1`` keeps each cycle
    inside its own round window (and the schedule strictly monotone).
    """

    def __init__(self, n: int, seed: int, jitter: float = 0.5):
        super().__init__(n, seed, "jitter")
        if not 0 <= jitter < 1:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {jitter}"
            )
        self.jitter = jitter
        self._span = int(jitter * TICKS_PER_ROUND)
        # The schedule PRF is evaluated in *blocks*: one keyed-BLAKE2b
        # digest for ``(vertex, cycle >> 3)`` yields 64 bytes = eight
        # 64-bit words, and cycle ``c`` reads word ``c & 7``.  Each draw
        # is still a pure function of (seed, vertex, cycle) under the
        # dedicated ("async", "jitter") subtree — the block is just an
        # 8x amortization of the hash, which is the dominant cost of
        # draining a window in the batched engine (one draw per event).
        self._key = self._tree.key("jitter")
        # Batch-path caches: a pre-keyed hash template (copying it is
        # cheaper than re-keying per draw), plus the per-vertex current
        # block and its eight words — cycles advance one per window, so
        # seven of eight windows reuse a cached block outright.
        self._template = prf_template(self._key)
        self._scalar_blocks: dict[int, tuple[int, bytes]] = {}
        self._block_of: np.ndarray | None = None
        self._words: np.ndarray | None = None
        # Index serializations are pure and reused heavily (a vertex's
        # prefix for the whole run, a block's suffix across all vertices
        # crossing into it), and building one costs as much as the hash
        # itself — memoize both halves.
        self._vertex_ser: dict[int, bytes] = {}
        self._block_ser: dict[int, bytes] = {}

    def _block_digest(self, vertex: int, block: int) -> bytes:
        # prf_bytes(key, (vertex, block), 64) — payload + 4-byte counter
        # (always zero: one digest is exactly one block of eight draws).
        vser = self._vertex_ser.get(vertex)
        if vser is None:
            vser = self._vertex_ser[vertex] = serialize_index((vertex,))
        bser = self._block_ser.get(block)
        if bser is None:
            bser = self._block_ser[block] = (
                serialize_index((block,)) + b"\x00\x00\x00\x00"
            )
        h = self._template.copy()
        h.update(vser + bser)
        return h.digest()

    def activation_ticks(self, vertex: int, cycle: int) -> int:
        if self._span == 0:
            return cycle * TICKS_PER_ROUND
        block, slot = cycle >> 3, cycle & 7
        cached = self._scalar_blocks.get(vertex)
        if cached is None or cached[0] != block:
            digest = self._block_digest(vertex, block)
            self._scalar_blocks[vertex] = (block, digest)
        else:
            digest = cached[1]
        word = int.from_bytes(digest[8 * slot: 8 * slot + 8], "big")
        draw = (word >> 11) * (2.0 ** -53)
        return cycle * TICKS_PER_ROUND + int(draw * self._span)

    def activation_ticks_batch(self, vertices, cycles) -> np.ndarray:
        """The scalar draw, vectorized everywhere the PRF is not.

        BLAKE2b is inherently one evaluation per block, but block reuse
        does the heavy lifting: the per-vertex ``(block, words)`` cache
        is an ``(n, 8)`` uint64 matrix, so a window whose members stay
        inside their current blocks is a single fancy gather with *zero*
        hashing, and only block-crossing members (one window in eight)
        pay a digest.  The 53-bit extraction / offset arithmetic runs as
        numpy array ops whose IEEE operation sequence matches the scalar
        path exactly (top 53 bits, ``* 2**-53``, ``* span``, truncate) —
        so the returned ticks are bit-identical to one-at-a-time
        :meth:`activation_ticks` calls.
        """
        base = np.asarray(cycles, dtype=np.int64) * TICKS_PER_ROUND
        if self._span == 0 or len(base) == 0:
            return base
        vertices = np.asarray(vertices, dtype=np.int64)
        cycles = np.asarray(cycles, dtype=np.int64)
        if self._block_of is None:
            self._block_of = np.full(self.n, -1, dtype=np.int64)
            self._words = np.zeros((self.n, 8), dtype=np.uint64)
        blocks = cycles >> 3
        slots = cycles & 7
        stale = np.nonzero(self._block_of[vertices] != blocks)[0]
        words = self._words[vertices, slots]
        if stale.size:
            stale_vertices = vertices[stale].tolist()
            digest = self._block_digest
            digests = b"".join(
                [
                    digest(vertex, block)
                    for vertex, block in zip(stale_vertices,
                                             blocks[stale].tolist())
                ]
            )
            fresh = np.frombuffer(digests, dtype=">u8").astype(
                np.uint64
            ).reshape(-1, 8)
            # Gather the stale rows' words from the fresh digests first:
            # a vertex appearing twice in one window with cycles in
            # *different* blocks must not read a cache row its later
            # occurrence just overwrote.
            words[stale] = fresh[np.arange(stale.size), slots[stale]]
            self._words[stale_vertices] = fresh
            self._block_of[stale_vertices] = blocks[stale]
        draws = (words >> np.uint64(11)) * (2.0 ** -53)
        return base + (draws * float(self._span)).astype(np.int64)

    def __repr__(self) -> str:
        return f"UniformJitter(n={self.n}, jitter={self.jitter})"


@register_timing(
    name="heterogeneous",
    description="slow/fast device classes: per-node cycle rates drawn "
                "once, with per-node phase offsets",
)
class HeterogeneousRates(TimingModel):
    """Slow and fast device classes: per-node cycle rates.

    Each vertex draws a device class once (uniformly over ``rates``, or
    per ``weights``); a class with rate ``r`` completes ``r`` cycles per
    synchronous round — an old phone with a throttled BLE stack scans at
    0.6x while a flagship scans at 1.5x.  Every node also draws a phase
    offset inside its first period so classes don't march in lockstep.
    """

    def __init__(self, n: int, seed: int, rates=(0.6, 1.0, 1.5),
                 weights=None):
        super().__init__(n, seed, "heterogeneous")
        # A period of 1 tick to TPR rounds keeps int64 ticks increasing.
        rates = tuple(rates)
        if not rates or not all(isinstance(r, (int, float)) and 2**-20 <= r
                                <= TICKS_PER_ROUND for r in rates):
            raise ConfigurationError(
                f"rates must be non-empty, each in [2**-20, 2**20] cycles "
                f"per round, got {rates}"
            )
        rates = tuple(float(r) for r in rates)
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != len(rates) or not all(
                isinstance(w, (int, float)) and 0 <= w < math.inf
                for w in weights
            ) or sum(weights) <= 0:
                raise ConfigurationError(
                    f"weights must be {len(rates)} non-negative values "
                    f"with a positive sum, got {weights}"
                )
            weights = tuple(float(w) for w in weights)
        self.rates = rates
        self.weights = weights
        # One-time class + phase draws, pure functions of (seed, vertex).
        total = sum(weights) if weights is not None else len(rates)
        cumulative = []
        acc = 0.0
        for i in range(len(rates)):
            acc += (weights[i] if weights is not None else 1.0) / total
            cumulative.append(acc)
        self._rate_of = np.empty(n, dtype=np.float64)
        self._phase_of = np.empty(n, dtype=np.int64)
        for vertex in range(n):
            rng = self._tree.stream("device", vertex)
            draw = rng.random()
            index = next(
                i for i, edge in enumerate(cumulative) if draw < edge or
                i == len(cumulative) - 1
            )
            rate = rates[index]
            period = int(TICKS_PER_ROUND / rate)
            self._rate_of[vertex] = rate
            self._phase_of[vertex] = int(rng.random() * min(
                period, TICKS_PER_ROUND
            ))

    def activation_ticks(self, vertex: int, cycle: int) -> int:
        # First cycle lands in [TPR, 2·TPR); later cycles follow at the
        # device's own period.  Strictly monotone since rate > 0.
        return (
            TICKS_PER_ROUND
            + int(self._phase_of[vertex])
            + int((cycle - 1) * TICKS_PER_ROUND / self._rate_of[vertex])
        )

    def activation_ticks_batch(self, vertices, cycles) -> np.ndarray:
        # Same arithmetic as the scalar hook on array operands: the
        # int64 products are exact, the float64 division and truncation
        # match ``int(pyint * TPR / np.float64)`` operation for
        # operation, so the batch is bit-identical.
        vertices = np.asarray(vertices, dtype=np.int64)
        cycles = np.asarray(cycles, dtype=np.int64)
        periods = (
            (cycles - 1) * TICKS_PER_ROUND / self._rate_of[vertices]
        ).astype(np.int64)
        return TICKS_PER_ROUND + self._phase_of[vertices] + periods

    def __repr__(self) -> str:
        return f"HeterogeneousRates(n={self.n}, rates={self.rates})"


@register_timing(
    name="bursty",
    description="Gilbert-Elliott bursty pauses: nominal cycling with "
                "occasional multi-round stalls (backgrounded apps)",
)
class GilbertElliottPauses(TimingModel):
    """Bursty pauses: a two-state (good/bad) gap process per device.

    The Gilbert–Elliott shape familiar from bursty channel models,
    applied to cycle gaps instead of bit errors: in the *good* state a
    device cycles at its nominal one-round period (plus a little
    jitter); with probability ``p_pause`` it falls into the *bad* state,
    where the next gap stretches to ``pause_scale`` rounds (a backgrounded
    app, a radio dropped by the OS scheduler), escaping with probability
    ``p_resume`` per cycle.  Gaps accumulate, so activation times are
    computed incrementally — but every transition and gap draw comes from
    a per-(vertex, cycle) stream, so the schedule is a pure function of
    the seed regardless of access order (the per-vertex prefix cache is
    just memoization).

    Composes with :class:`~repro.sim.faults.SleepCycle`: the fault layer
    masks which cycles participate, this model decides when cycles fire.
    """

    def __init__(self, n: int, seed: int, p_pause: float = 0.1,
                 p_resume: float = 0.6, pause_scale: float = 3.0,
                 jitter: float = 0.2):
        super().__init__(n, seed, "bursty")
        for name, value in (("p_pause", p_pause), ("p_resume", p_resume)):
            if not 0 <= value <= 1:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if not 1 <= pause_scale <= TICKS_PER_ROUND:
            raise ConfigurationError(
                f"pause_scale must be in [1, 2**20] rounds, got {pause_scale}"
            )
        if not 0 <= jitter < 1:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {jitter}"
            )
        self.p_pause = p_pause
        self.p_resume = p_resume
        self.pause_scale = pause_scale
        self.jitter = jitter
        # Per-vertex prefix cache: _times[v][c - 1] is cycle c's tick.
        self._times: dict[int, list[int]] = {}
        self._states: dict[int, bool] = {}  # True = bad (paused)

    def _gap(self, vertex: int, cycle: int, bad: bool) -> tuple[int, bool]:
        """Gap before ``vertex``'s ``cycle``-th activation, plus the
        state the transition out of this cycle leaves the device in."""
        rng = self._tree.stream("ge", vertex, cycle)
        if bad:
            gap = int(TICKS_PER_ROUND * self.pause_scale
                      * (0.5 + rng.random()))
            next_bad = rng.random() >= self.p_resume
        else:
            gap = TICKS_PER_ROUND + int(
                rng.random() * self.jitter * TICKS_PER_ROUND
            )
            next_bad = rng.random() < self.p_pause
        return max(gap, 1), next_bad

    def activation_ticks(self, vertex: int, cycle: int) -> int:
        times = self._times.setdefault(vertex, [])
        bad = self._states.setdefault(vertex, False)
        while len(times) < cycle:
            last = times[-1] if times else 0
            gap, bad = self._gap(vertex, len(times) + 1, bad)
            times.append(max(last + gap, TICKS_PER_ROUND + len(times)))
            self._states[vertex] = bad
        return times[cycle - 1]

    def __repr__(self) -> str:
        return (
            f"GilbertElliottPauses(n={self.n}, p_pause={self.p_pause}, "
            f"p_resume={self.p_resume}, pause_scale={self.pause_scale})"
        )
