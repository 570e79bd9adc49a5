"""Deterministic physical fault injection for live clusters.

:class:`ChaosModel` wraps one :class:`~repro.sim.faults.FaultModel` and
enacts its decisions **physically** against a cluster of
:class:`~repro.net.server.PeerServer`\\ s instead of masking them in
software.  Because it consumes the *same* ``("faults", kind)`` seed
streams as the simulator — it literally holds the same model object a
:class:`~repro.sim.engine.Simulation` would build — the set of nodes
killed, asleep, or interdicted in live round *r* is byte-for-byte the
set the simulator masks or drops in round *r*.  That is what makes a
recorded faulty simulation replayable match-equivalent against a live
cluster experiencing *actual* failures.

How each fault family is enacted (chosen by the model's
``chaos_enactment`` attribute, declared next to the models in
:mod:`repro.sim.faults` so the two layers cannot drift):

``"kill"`` (:class:`~repro.sim.faults.CrashChurn`)
    A node entering an outage has its TCP endpoint torn down
    SIGKILL-style (:meth:`PeerServer.kill` — no draining, in-flight
    requests fail at their callers); if the model resets state, the
    node's tokens are reset on the crash rule and in the vertex order
    the simulator uses.  When the outage ends
    the server rebinds the *same* port (:meth:`PeerServer.revive`) and
    rejoins through the ordinary heartbeat / peer-table path.

``"sleep"`` (:class:`~repro.sim.faults.SleepCycle`)
    The endpoint stays bound but drops every connection without a reply
    (``asleep`` shim) — callers see closed-without-reply transport
    faults, exactly a radio that is off.

``"drop"`` (:class:`~repro.sim.faults.LossyLinks`)
    Per-match: after the round's matches resolve, the responder of each
    to-be-dropped match is told to fail that initiator's Stage-3 state
    pull at the socket level (:meth:`PeerServer.interdict`), so the
    initiator experiences a real mid-handshake link failure.

``"mask"`` (fallback)
    No physical enactment; the coordinator masks the node logically,
    as it does for plain ``fault=`` runs.

Every decision — who is down at a fault index, who crashes there, which
matches are doomed — is read through the model's
:class:`~repro.sim.faults.FaultReader`, the simulator's own reader; this
module only turns the answers into socket-level events.

The coordinator *knows the plan*: chaos failures are scheduled, not
discovered, so rounds proceed over the planned-active set exactly like
the simulator's masked rounds.  Failures the plan does not cover (a
node that really dies) still flow through the retry-budget → suspect →
degradation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.sim.faults import FaultModel, FaultReader

__all__ = ["ChaosModel", "ChaosRound"]


@dataclass(frozen=True)
class ChaosRound:
    """What one round of chaos did to the cluster, physically."""

    killed: tuple[int, ...] = ()
    revived: tuple[int, ...] = ()
    slept: tuple[int, ...] = ()
    woke: tuple[int, ...] = ()
    reset: tuple[int, ...] = ()


class ChaosModel:
    """Enacts a fault model's schedule against live peer servers."""

    def __init__(self, fault: FaultModel):
        if fault is None or fault.is_null:
            raise ConfigurationError(
                "ChaosModel needs a non-null fault model; run without "
                "chaos instead of wrapping NoFaults"
            )
        self.fault = fault
        self.reader = FaultReader(fault, fault.n)
        self.enactment = getattr(fault, "chaos_enactment", "mask")
        self._servers: list = []
        self._by_uid: dict[int, object] = {}
        #: Vertices the plan holds down as of the last enacted round.
        self.inactive: set[int] = set()

    def bind(self, servers) -> "ChaosModel":
        """Attach the cluster (vertex-ordered list of PeerServers)."""
        if len(servers) != self.fault.n:
            raise ConfigurationError(
                f"chaos fault model is sized for n={self.fault.n} but the "
                f"cluster has {len(servers)} servers"
            )
        self._servers = list(servers)
        self._by_uid = {server.uid: server for server in self._servers}
        self.inactive = set()
        return self

    # -- per-round enactment ------------------------------------------

    def enact(self, rnd: int, fault_round: int) -> ChaosRound:
        """Physically apply round ``fault_round``'s schedule.

        ``rnd`` is the coordinator round (for bookkeeping); the fault
        model is indexed by ``fault_round`` — the same clock-mapped
        index the simulator would pass.  Transitions are applied in
        vertex order, and crashing nodes are reset in-process (their
        radio may already be down) *before* the round's stages run, as
        in the simulator.
        """
        mask = self.reader.mask(fault_round)
        inactive_now = (
            set() if mask is None else set((~mask).nonzero()[0].tolist())
        )

        reset = (
            self.reader.crashes(fault_round, mask)
            if self.reader.resets_state else []
        )
        for vertex in reset:
            self._servers[vertex].handle({"op": "reset"})

        killed, revived, slept, woke = [], [], [], []
        going_down = sorted(inactive_now - self.inactive)
        coming_up = sorted(self.inactive - inactive_now)
        if self.enactment == "kill":
            for vertex in going_down:
                self._servers[vertex].kill()
                killed.append(vertex)
            for vertex in coming_up:
                self._servers[vertex].revive()
                revived.append(vertex)
        elif self.enactment == "sleep":
            for vertex in going_down:
                self._servers[vertex].asleep = True
                slept.append(vertex)
            for vertex in coming_up:
                self._servers[vertex].asleep = False
                woke.append(vertex)
        # "drop"/"mask": nothing endpoint-level per round; drops are
        # installed per match via interdict().
        self.inactive = inactive_now

        return ChaosRound(
            killed=tuple(killed),
            revived=tuple(revived),
            slept=tuple(slept),
            woke=tuple(woke),
            reset=tuple(reset),
        )

    def interdict(self, rnd: int, fault_round: int, matches) -> int:
        """Install socket-level drops for this round's doomed matches.

        ``matches`` is a list of resolved ``(initiator_uid,
        responder_uid)`` pairs.  For each match the reader dooms (the
        same pure draw the simulator makes), the responder's server is
        told to fail that initiator's Stage-3 state pull.  Returns how
        many matches were interdicted.
        """
        _, doomed = self.reader.split(fault_round, matches)
        for initiator_uid, responder_uid in doomed:
            self._by_uid[responder_uid].interdict(rnd, initiator_uid)
        return len(doomed)

    def restore(self) -> None:
        """End-of-run cleanup: wake sleepers, revive the killed.

        Called before final snapshots so every node can report its
        state over the wire (the simulator's final state also includes
        currently-crashed vertices — their storage, not their radio).
        """
        for vertex in sorted(self.inactive):
            server = self._servers[vertex]
            if self.enactment == "kill" and server.dead:
                server.revive()
            elif self.enactment == "sleep":
                server.asleep = False
        self.inactive = set()

    def __repr__(self) -> str:
        return (
            f"ChaosModel({self.fault!r}, enactment={self.enactment!r})"
        )
