"""Execution traces: per-round records and summary statistics.

The trace is how benchmarks and tests observe an execution without
breaking the protocol abstraction: the engine appends one
:class:`RoundRecord` per round (optionally downsampled for very long runs)
with connection counts, communication totals, and the values of any
caller-supplied *gauges* (e.g. token coverage, potential φ).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RoundRecord", "Trace"]


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one round.

    ``connections`` counts connections that actually carried the Stage 3
    exchange; matches the fault layer dropped after acceptance are in
    ``dropped_connections`` instead.  ``active_nodes`` is how many
    vertices participated in the round (``None`` when the producer does
    not track activity — the engine always fills it in).

    The asynchrony layer's columns are ``None`` on round-engine records:
    ``virtual_time`` is the virtual instant (in rounds, fractional) of
    the window's last event, ``clock_skew_max`` the spread between the
    fastest and slowest node's local cycle counter at the window's
    close, and ``events`` how many node activations the window held (the
    round engine activates every node exactly once per round).
    """

    round_index: int
    proposals: int
    connections: int
    tokens_moved: int
    control_bits: int
    gauges: dict = field(default_factory=dict)
    active_nodes: int | None = None
    dropped_connections: int = 0
    virtual_time: float | None = None
    clock_skew_max: int | None = None
    events: int | None = None


class Trace:
    """An append-only log of round records plus running totals.

    ``sample_every`` controls how often full records are kept (1 = every
    round); totals are exact regardless of sampling.

    ``max_records`` bounds the memory held by kept records for long
    large-n runs: when the log grows past the bound, ``sample_every``
    doubles and already-kept records are re-thinned under the new rate
    (round 1 and gauge-carrying records always survive).  The thinning
    is deterministic — a run's final record set depends only on the
    rounds executed, never on when the bound was hit — and the engine
    reads ``sample_every`` afresh each round, so subsequent rounds are
    sampled at the widened rate automatically.
    """

    def __init__(self, sample_every: int = 1, max_records: int | None = None):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if max_records is not None and max_records < 1:
            raise ValueError(
                f"max_records must be >= 1 or None, got {max_records}"
            )
        self.sample_every = sample_every
        self.max_records = max_records
        self.records: list[RoundRecord] = []
        self.total_rounds = 0
        self.total_proposals = 0
        self.total_connections = 0
        self.total_tokens_moved = 0
        self.total_control_bits = 0
        self.total_dropped_connections = 0

    def observe(
        self,
        round_index: int,
        proposals: int,
        connections: int,
        tokens_moved: int,
        control_bits: int,
        dropped_connections: int = 0,
    ) -> None:
        """Fold one round into the totals without materializing a record.

        The engine's light path for unsampled rounds; totals stay exact
        while no :class:`RoundRecord` (or its gauges dict) is allocated.
        """
        self.total_rounds = max(self.total_rounds, round_index)
        self.total_proposals += proposals
        self.total_connections += connections
        self.total_tokens_moved += tokens_moved
        self.total_control_bits += control_bits
        self.total_dropped_connections += dropped_connections

    def record(self, record: RoundRecord) -> None:
        self.observe(
            record.round_index,
            record.proposals,
            record.connections,
            record.tokens_moved,
            record.control_bits,
            record.dropped_connections,
        )
        keep = (
            record.round_index % self.sample_every == 0
            or record.round_index == 1
            or record.gauges
        )
        if keep:
            self.records.append(record)
            if (
                self.max_records is not None
                and len(self.records) > self.max_records
            ):
                self._thin()

    def _thin(self) -> None:
        """Double ``sample_every`` until the kept log fits ``max_records``.

        Each doubling keeps exactly the records the wider rate would
        have kept from the start (rates divide their successors), so the
        surviving set is independent of *when* the bound was crossed.
        Stops early if thinning no longer shrinks the log (everything
        left is round 1 or gauge-carrying — unconditional keeps).
        """
        while len(self.records) > self.max_records:
            self.sample_every *= 2
            thinned = [
                rec
                for rec in self.records
                if rec.round_index % self.sample_every == 0
                or rec.round_index == 1
                or rec.gauges
            ]
            if len(thinned) == len(self.records):
                break
            self.records = thinned

    def column_series(self, name: str) -> list[tuple[int, object]]:
        """(round, value) pairs for one :class:`RoundRecord` field
        (e.g. ``"active_nodes"`` or ``"dropped_connections"``)."""
        return [
            (rec.round_index, getattr(rec, name)) for rec in self.records
        ]

    def gauge_series(self, name: str) -> list[tuple[int, object]]:
        """(round, value) pairs for one named gauge."""
        return [
            (rec.round_index, rec.gauges[name])
            for rec in self.records
            if name in rec.gauges
        ]

    def estimated_wall_rounds(self) -> float | None:
        """Effective duration of the run in wall-clock rounds, or None.

        Asynchronous runs advance virtual time unevenly: the trace's
        ``virtual_time`` column holds the fractional round of each
        window's last event, and ``clock_skew_max`` how many local
        cycles the slowest node trails the fastest at that instant.  A
        reasonable wall-clock estimate is the last observed virtual
        instant stretched by the closing skew — the laggards still need
        that many cycles to catch up to what the trace already counted.
        Round-engine traces carry neither column and return ``None``
        (every round is exactly one wall round there).
        """
        for rec in reversed(self.records):
            if rec.virtual_time is not None:
                return float(rec.virtual_time) + float(
                    rec.clock_skew_max or 0
                )
        return None

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"Trace(rounds={self.total_rounds}, "
            f"connections={self.total_connections}, "
            f"tokens={self.total_tokens_moved})"
        )
