"""The live run's fault plan: one schedule, masked or enacted.

:class:`FaultPlan` is everything a live coordinator knows about a run's
fault schedule.  It reads the schedule through the simulator's own
:class:`~repro.sim.faults.FaultReader` — the same ``("faults", kind)``
seed streams a :class:`~repro.sim.engine.Simulation` consumes — so the
vertices inactive, crashing or dropped in live round *r* are
byte-for-byte the ones the simulator masks, resets or drops in round
*r*.  A run without a schedule holds the null plan, which answers like
the clean model.

A plan **masks** its schedule logically, or — with ``enact=True``, the
``chaos`` knob — **enacts** it physically against the cluster's
:class:`~repro.net.server.PeerServer`\\ s.  How each fault family is
enacted is the model's ``chaos_enactment`` attribute, declared next to
the models in :mod:`repro.sim.faults` so the two layers cannot drift:

``"kill"`` (:class:`~repro.sim.faults.CrashChurn`)
    A node entering an outage has its TCP endpoint torn down
    SIGKILL-style (:meth:`PeerServer.kill` — no draining, in-flight
    requests fail at their callers).  When the outage ends the server
    rebinds the *same* port (:meth:`PeerServer.revive`); the next
    round's messages carry every address it needs, as they do for
    every node.

``"sleep"`` (:class:`~repro.sim.faults.SleepCycle`)
    The endpoint stays bound but drops every connection without a reply
    (``asleep`` shim) — callers see closed-without-reply transport
    faults, exactly a radio that is off.

``"drop"`` (:class:`~repro.sim.faults.LossyLinks`)
    Per match: the responder of each doomed match is told to fail that
    initiator's Stage-3 state pull at the socket level
    (:meth:`PeerServer.interdict`), so the initiator experiences a real
    mid-handshake link failure.

``"mask"`` (fallback, and every plan that is not enacted)
    No physical enactment: inactive vertices see empty neighborhoods and
    doomed matches are dropped before Stage 3, as in the simulator.

Chaos failures are planned, not discovered: rounds proceed over the
planned-active set exactly like the simulator's masked rounds, and a
vertex whose endpoint the plan holds down is served in-process.
Failures the plan does not cover (a node that really dies) flow through
the coordinator's retry-budget → suspect → degradation machinery.
"""

from __future__ import annotations

from repro.sim.faults import FaultModel, FaultReader

__all__ = ["FaultPlan"]

#: Enactments that take an endpoint off the network while it is inactive.
_ENDPOINT_DOWN = ("kill", "sleep")


class FaultPlan:
    """The fault schedule of one live run, against its servers.

    It answers the four questions a round driver asks: who is inactive
    (:attr:`inactive`), whose endpoint is physically down (:attr:`down`),
    which vertices crash (:meth:`begin`), and how doomed matches drop
    (:meth:`drop`).
    """

    def __init__(self, fault: FaultModel | None, servers, *,
                 enact: bool = False):
        self._servers = list(servers)
        self._by_uid = {server.uid: server for server in self._servers}
        self.reader = FaultReader(fault, len(self._servers))
        self.enactment = (
            self.reader.model.chaos_enactment if enact else "mask"
        )
        #: Vertices the schedule holds out of the current round.
        self.inactive: set[int] = set()
        #: Vertices among them whose endpoint is physically down: the
        #: coordinator serves them in-process, never over the wire.
        self.down: set[int] = set()

    def begin(self, fault_round: int) -> tuple[list[int], int, int]:
        """Move to fault index ``fault_round``: returns the vertices that
        crash there (ascending; each loses its state before the round's
        stages run, as in the simulator) and how many endpoints were
        killed and revived.  Transitions are enacted in vertex order."""
        reader = self.reader
        mask = reader.mask(fault_round)
        inactive = (
            set() if mask is None else set((~mask).nonzero()[0].tolist())
        )
        crashes = (
            reader.crashes(fault_round, mask) if reader.resets_state else []
        )
        going_down = sorted(inactive - self.inactive)
        coming_up = sorted(self.inactive - inactive)
        killed = revived = 0
        if self.enactment == "kill":
            for vertex in going_down:
                self._servers[vertex].kill()
            for vertex in coming_up:
                self._servers[vertex].revive()
            killed, revived = len(going_down), len(coming_up)
        elif self.enactment == "sleep":
            for vertex in going_down:
                self._servers[vertex].asleep = True
            for vertex in coming_up:
                self._servers[vertex].asleep = False
        self.inactive = inactive
        if self.enactment in _ENDPOINT_DOWN:
            self.down = inactive
        return crashes, killed, revived

    def drop(self, rnd: int, fault_round: int,
             matches: list) -> tuple[list, int]:
        """Round ``rnd``'s matches as they enter Stage 3, and how many
        were dropped before it.  A masked plan drops each doomed match
        (the simulator's exact behavior); a ``"drop"`` enactment keeps
        it and interdicts its handshake on the responder, so the failure
        is observed for real in Stage 3."""
        surviving, doomed = self.reader.split(fault_round, matches)
        if self.enactment != "drop":
            return surviving, len(doomed)
        for initiator_uid, responder_uid in doomed:
            self._by_uid[responder_uid].interdict(rnd, initiator_uid)
        return matches, 0

    def restore(self) -> None:
        """End-of-run cleanup: wake sleepers, revive the killed, so the
        final readout reaches every node over the wire (the simulator's
        final state also includes currently-crashed vertices — their
        storage, not their radio)."""
        for vertex in sorted(self.down):
            if self.enactment == "kill":
                self._servers[vertex].revive()
            else:
                self._servers[vertex].asleep = False
        self.inactive, self.down = set(), set()
