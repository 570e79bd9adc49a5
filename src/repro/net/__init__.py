"""repro.net: live deployment of registered gossip protocols.

This package runs the *same* protocol objects the simulator builds —
``ALGORITHMS`` registry entries like ``ppush``, ``blindmatch`` and
``sharedbit`` — as real peer servers over TCP sockets on localhost.
Each node gets a :class:`~repro.net.server.PeerServer` (one thread per
connection, length-prefixed JSON framing, stdlib only); a
:class:`~repro.net.coordinator.Coordinator` boots a cluster from any
registered topology and drives the mobile-telephone round structure
(scan → propose → accept → connect) over request/response messages, with
acceptance rules enforced by the *proposee* exactly as
``repro.sim.matching.resolve_proposals`` does.

The keystone is the replay bridge (:mod:`repro.net.bridge`): record a
simulation run, replay it on a live cluster seeded with the same
SeedTree-derived randomness, and assert the live match stream and final
token sets are equivalent to the simulated trace.

The chaos layer hardens all of it against real failure: every RPC is
classified (:mod:`repro.net.errors`) and retried under a seeded
:class:`~repro.net.errors.RetryPolicy`; unresponsive peers are
suspected and rounds degrade gracefully over the surviving quorum; and
a run's one :class:`~repro.net.chaos.FaultPlan` masks the simulator's
own seeded fault schedule or, with ``chaos=True``, enacts it
*physically* — killed endpoints, sleeping radios, interdicted
handshakes — so the bridge can assert equivalence through actual
failures, not just simulated ones.  The coordinator decides termination
from token counts the ``connect`` and ``reset`` replies carry, with no
request of its own.
"""

from repro.net.bridge import (
    RecordedRun,
    ReplayReport,
    record_run,
    replay,
)
from repro.net.chaos import FaultPlan
from repro.net.coordinator import Coordinator, NetRunReport, deploy_run
from repro.net.errors import (
    DEFAULT_REQUEST_TIMEOUT,
    DEFAULT_RETRY_POLICY,
    NetError,
    ProtocolError,
    RetryBudgetExceeded,
    RetryPolicy,
)
from repro.net.framing import TransportError, recv_msg, request, send_msg
from repro.net.peers import PeerEntry, PeerTable
from repro.net.server import PeerServer
from repro.net.trace import NetTrace

__all__ = [
    "Coordinator",
    "DEFAULT_REQUEST_TIMEOUT",
    "DEFAULT_RETRY_POLICY",
    "FaultPlan",
    "NetError",
    "NetRunReport",
    "NetTrace",
    "PeerEntry",
    "PeerServer",
    "PeerTable",
    "ProtocolError",
    "RecordedRun",
    "ReplayReport",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "TransportError",
    "deploy_run",
    "record_run",
    "recv_msg",
    "replay",
    "request",
    "send_msg",
]
