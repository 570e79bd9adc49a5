"""Failure taxonomy and retry policy for the live deployment layer.

The mobile telephone model *expects* peers to vanish and reappear — the
fault layer (:mod:`repro.sim.faults`) simulates exactly that — so the
live layer has to treat transport failure as a first-class, classified
event rather than letting raw ``OSError``\\ s escape.  Two families:

* :class:`TransportError` — the wire failed: connection refused, socket
  timeout, reset, the peer hung up mid-frame.  These are **retryable**
  (a later attempt against the same address can legitimately succeed;
  the peer may be rebooting, sleeping its radio, or mid-rejoin) except
  for *frame* faults (corrupt length prefix, malformed payload), which
  indicate a broken peer rather than a broken link.
* :class:`ProtocolError` — the wire worked but the peer rejected or
  failed the operation (an ``{"error": ...}`` reply).  Never retried:
  repeating a request the peer understood and refused cannot help, and
  retrying it could double-run a protocol hook.

:class:`RetryPolicy` is the one backoff discipline every retrying call
site shares (``framing.request``, ``PeerServer.call_peer``, the
``Coordinator``): bounded attempts, exponential delays, and *seeded*
jitter — the jitter draw comes from a caller-provided ``random.Random``
(derived from the run's :class:`~repro.rng.SeedTree` under a dedicated
``("net", "retry", ...)`` path), so a run's complete retry schedule is
a pure function of the seed and tests can pin it without sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError

__all__ = [
    "DEFAULT_REQUEST_TIMEOUT",
    "DEFAULT_RETRY_POLICY",
    "THREAD_JOIN_TIMEOUT",
    "NetError",
    "ProtocolError",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "TransportError",
]

#: The one request timeout every layer defaults to.  PR 7 shipped 5.0 s
#: in ``server.py`` and 10.0 s in ``coordinator.py``; a coordinator
#: waiting longer than the servers it drives just stretches the hang it
#: is trying to bound, so both now share this constant.
DEFAULT_REQUEST_TIMEOUT = 5.0

#: How long :meth:`~repro.net.server.PeerServer.stop` waits for the
#: accept loop and any in-flight handler threads before reporting them
#: leaked.
THREAD_JOIN_TIMEOUT = 5.0


class NetError(ReproError):
    """Base class for live-layer failures (transport or protocol)."""


class TransportError(NetError):
    """A peer connection failed or sent a malformed frame.

    Carries the peer's ``host:port`` (and UID / op when the caller knows
    them) so a failure inside a 32-node round names the peer that broke
    instead of surfacing a bare ``[Errno 111]``.  ``kind`` classifies
    the failure (``"refused"``, ``"timeout"``, ``"reset"``, ``"eof"``,
    ``"frame"``, or the generic ``"transport"``); ``retryable`` is the
    single bit retry loops consult.
    """

    def __init__(
        self,
        message: str,
        *,
        host: str | None = None,
        port: int | None = None,
        uid: int | None = None,
        op: str | None = None,
        kind: str = "transport",
        retryable: bool = True,
    ):
        super().__init__(message)
        self.host = host
        self.port = port
        self.uid = uid
        self.op = op
        self.kind = kind
        self.retryable = retryable


class RetryBudgetExceeded(TransportError):
    """Every attempt a :class:`RetryPolicy` allowed failed.

    Terminal by construction (``retryable`` is False — the budget *was*
    the retrying); ``attempts`` records how many tries were burned and
    ``__cause__`` chains the last underlying :class:`TransportError`.
    This is the signal the :class:`~repro.net.coordinator.Coordinator`
    turns into a *suspect* marking.
    """

    def __init__(self, message: str, *, attempts: int, **context):
        context.setdefault("retryable", False)
        super().__init__(message, **context)
        self.attempts = attempts


class ProtocolError(NetError):
    """The peer processed the frame but the operation itself failed.

    Raised from an ``{"error": ...}`` reply.  ``remote_type`` is the
    exception class name the peer reported; when the peer's failure was
    itself a transport fault (e.g. an initiator's Stage-3 state pull
    hit a dead responder), :attr:`transport_related` lets the caller
    classify the match as a failed *connection* rather than a bug.
    """

    def __init__(
        self,
        message: str,
        *,
        uid: int | None = None,
        op: str | None = None,
        remote_type: str | None = None,
    ):
        super().__init__(message)
        self.uid = uid
        self.op = op
        self.remote_type = remote_type

    @property
    def transport_related(self) -> bool:
        return self.remote_type in (
            "TransportError",
            "RetryBudgetExceeded",
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff + jitter.

    ``attempts`` is the total number of tries (1 = no retrying).  The
    delay before retry *i* (1-based) is
    ``min(base_delay * factor**(i-1), max_delay)``, stretched by up to
    ``jitter`` (a fraction) drawn from the caller's seeded ``rng`` —
    with no ``rng`` the schedule is the bare exponential.  Delays are a
    pure function of (policy, rng state), so a run's retry timing is
    derivable from its seed; tests inject a recording ``sleep`` and
    assert the schedule without waiting it out.
    """

    attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.factor < 1:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(self.base_delay * self.factor ** (attempt - 1),
                   self.max_delay)
        if rng is not None and self.jitter and base > 0:
            base *= 1.0 + self.jitter * rng.random()
        return base


#: The default policy for every live RPC: three tries, 50 ms first
#: backoff, doubling, capped at 1 s — a dead peer costs at most ~2.2 s
#: of retrying before it is handed to the suspect machinery.
DEFAULT_RETRY_POLICY = RetryPolicy()
