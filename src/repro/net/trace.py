"""Live-run traces: the simulator's Trace plus wall-clock latencies.

:class:`NetTrace` reuses the whole :class:`~repro.sim.trace.Trace`
column machinery (records, totals, ``column_series``/``gauge_series``)
and adds what only a real deployment can measure: per-connection
wall-clock latency, folded into each round's gauges as
``net_latency_mean_s`` / ``net_latency_max_s``, and overall throughput
— plus the failure columns the robustness layer produces: per-round
retries / timeouts / suspects / rejoins / chaos kill and revive counts
(gauges ``net_retries`` etc.) and their run totals.
"""

from __future__ import annotations

from repro.sim.trace import RoundRecord, Trace
from repro.telemetry import quantile

__all__ = ["NetTrace"]


class NetTrace(Trace):
    """A :class:`Trace` that also logs per-connection wall latencies."""

    def __init__(self, sample_every: int = 1):
        super().__init__(sample_every=sample_every)
        #: Flat (round_index, seconds) list of every connection's
        #: wall-clock duration (state pull + interact + state push).
        self.connection_latencies: list[tuple[int, float]] = []
        self._pending: list[float] = []
        self.wall_seconds: float = 0.0
        #: Requests the coordinator originated while driving rounds (a
        #: retried one counted once; server-to-server traffic — the
        #: proposals and Stage-3 transfers — is not the coordinator's).
        self.total_requests: int = 0
        # Failure accounting (populated by the robustness layer).
        self.total_retries: int = 0
        self.total_timeouts: int = 0
        self.suspect_events: int = 0
        self.rejoin_events: int = 0
        self.degraded_rounds: int = 0
        self.chaos_kills: int = 0
        self.chaos_revives: int = 0

    def record_connection(self, round_index: int, seconds: float) -> None:
        self.connection_latencies.append((round_index, float(seconds)))
        self._pending.append(float(seconds))

    def close_round(
        self,
        round_index: int,
        proposals: int,
        connections: int,
        tokens_moved: int,
        control_bits: int,
        active_nodes: int | None = None,
        dropped_connections: int = 0,
        requests: int = 0,
        retries: int = 0,
        timeouts: int = 0,
        suspects: int = 0,
        rejoins: int = 0,
        chaos_killed: int = 0,
        chaos_revived: int = 0,
        degraded: bool = False,
    ) -> None:
        """Fold the round's buffered latencies into a round record.

        ``requests``/``retries``/``timeouts`` are this round's deltas;
        ``suspects`` is the suspect-set size *at round close* (a level,
        not a delta); ``rejoins``/``chaos_killed``/``chaos_revived``
        count this round's events.  A ``degraded`` round ran over a
        surviving quorum rather than the full planned-active set.
        """
        gauges: dict = {}
        if self._pending:
            gauges["net_latency_mean_s"] = sum(self._pending) / len(
                self._pending
            )
            gauges["net_latency_max_s"] = max(self._pending)
        self._pending = []
        self.total_requests += requests
        self.total_retries += retries
        self.total_timeouts += timeouts
        self.rejoin_events += rejoins
        self.chaos_kills += chaos_killed
        self.chaos_revives += chaos_revived
        if degraded:
            self.degraded_rounds += 1
        if retries:
            gauges["net_retries"] = retries
        if timeouts:
            gauges["net_timeouts"] = timeouts
        if suspects:
            gauges["net_suspects"] = suspects
        if rejoins:
            gauges["net_rejoins"] = rejoins
        if chaos_killed:
            gauges["net_chaos_killed"] = chaos_killed
        if chaos_revived:
            gauges["net_chaos_revived"] = chaos_revived
        self.record(
            RoundRecord(
                round_index=round_index,
                proposals=proposals,
                connections=connections,
                tokens_moved=tokens_moved,
                control_bits=control_bits,
                gauges=gauges,
                active_nodes=active_nodes,
                dropped_connections=dropped_connections,
            )
        )

    def rounds_per_second(self) -> float | None:
        """Throughput, or ``None`` when undefined.

        A run that recorded no rounds, or whose wall clock never
        advanced (``wall_seconds`` unset, or a sub-resolution run),
        has no meaningful rate — boundary cases return ``None``
        rather than raising.
        """
        if self.wall_seconds <= 0 or self.total_rounds == 0:
            return None
        return self.total_rounds / self.wall_seconds

    def requests_per_round(self) -> float | None:
        """Coordinator requests per driven round, ``None`` with no rounds."""
        if self.total_rounds == 0:
            return None
        return self.total_requests / self.total_rounds

    def latency_stats(self) -> dict | None:
        """Overall mean/max/p50/p99 per-connection latency in seconds."""
        if not self.connection_latencies:
            return None
        values = [seconds for _, seconds in self.connection_latencies]
        return {
            "connections": len(values),
            "mean_s": sum(values) / len(values),
            "max_s": max(values),
            "p50_s": quantile(values, 0.50),
            "p99_s": quantile(values, 0.99),
        }
