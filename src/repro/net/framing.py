"""Wire framing for the live deployment layer: length-prefixed JSON.

Every message is a 4-byte big-endian unsigned length followed by that
many bytes of UTF-8 compact JSON.  Connections are persistent but carry
one request/response exchange at a time (no stream multiplexing, no
read buffer kept between frames: :func:`recv_msg` takes one read for
the frame and :func:`_recv_exact` completes a long one): between
exchanges a socket rests in a process-wide pool keyed by ``(host,
port)`` — a lock-guarded free list, not a thread-local, because handler
and connect-worker threads come and go.  :func:`request` checks a socket
out (connecting lazily when none is free) and back in after the reply;
any fault closes it instead.

A pooled socket the peer closed while it sat idle (killed and revived,
idle past the server's ``handler_timeout``) is *stale*: an idle socket
has nothing to read, so one that polls readable is dropped at checkout
and replaced by a fresh connect.  That is not a retry — nothing was
sent, no :class:`RetryPolicy` attempt is spent, ``on_retry`` is not
called — and a peer that is really gone still refuses the fresh connect.
A hang-up *after* the frame was sent (a sleeping radio, an interdicted
handshake) is the peer's answer and surfaces as the fault it always was.

Every socket-level failure inside :func:`request` is translated into a
:class:`~repro.net.errors.TransportError` that names the peer
(``host:port``, plus UID/op when the caller supplies them) and carries a
failure ``kind`` — refused, timeout, reset, eof, frame — so retry loops
can distinguish a rebooting peer from a corrupt one.  Pass a
:class:`~repro.net.errors.RetryPolicy` (and a seeded ``rng``) to retry
retryable faults with deterministic exponential backoff.

Stdlib only by design: ``struct`` + ``json`` + ``socket`` (+ ``select``
and a ``threading.Lock`` for the pool).
"""

from __future__ import annotations

import json
import select
import socket
import struct
import threading
import time

from repro.net.errors import (
    DEFAULT_REQUEST_TIMEOUT,
    RetryBudgetExceeded,
    RetryPolicy,
    TransportError,
)

__all__ = [
    "DEFAULT_REQUEST_TIMEOUT",
    "MAX_FRAME",
    "TransportError",
    "close_pooled",
    "recv_msg",
    "request",
    "send_msg",
]

HEADER = struct.Struct("!I")

#: Upper bound on one frame's payload.  Snapshots of an n=4096 cluster
#: with long payload strings stay far below this; anything bigger is a
#: corrupt length prefix, not a message.
MAX_FRAME = 16 * 1024 * 1024

#: Idle sockets kept per ``(host, port)``; one returned to a full free
#: list is closed.  Eight covers the coordinator's connect workers.
POOL_IDLE_MAX = 8

_pool: dict[tuple[str, int], list[socket.socket]] = {}
_pool_lock = threading.Lock()


#: ``json.dumps(obj, separators=(",", ":"))`` builds a fresh encoder per
#: call; this is the same encoder, built once.
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: What the first read of a frame asks for.  Nearly every round op and
#: its reply fit, so a frame costs one ``recv``; a longer one (a
#: snapshot, a state pull of many tokens) is completed by
#: :func:`_recv_exact`.  Kept under 512 bytes with the bytes header on
#: purpose: the interpreter's small-object allocator serves the buffer,
#: where a 1 KiB or 4 KiB one makes every handler thread open a malloc
#: arena of its own (+1.0 MiB ``peak_rss_mb`` at n = 16, no faster).
READ_SIZE = 448


def send_msg(sock: socket.socket, obj) -> None:
    """Send one JSON-able object as a length-prefixed frame."""
    payload = _encode(obj).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise TransportError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME={MAX_FRAME}",
            kind="frame", retryable=False,
        )
    sock.sendall(HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, data: bytes, total: int) -> bytes:
    """Complete a frame whose first bytes are ``data`` to ``total``
    bytes; a hang-up before the last one is a mid-frame ``eof``."""
    chunks = [data]
    have = len(data)
    while have < total:
        chunk = sock.recv(total - have)
        if not chunk:
            raise TransportError(
                f"connection closed mid-frame ({have}/{total} bytes read)",
                kind="eof",
            )
        chunks.append(chunk)
        have += len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket, data: bytes | None = None):
    """Receive one frame; ``None`` on clean EOF before a header.

    ``data`` is the frame's first read when the caller already made it
    (a server handler parks in that read); by default it is made here.
    Connections carry one exchange at a time, so whatever that read
    returns belongs to this frame: bytes past its end are a ``frame``
    fault, not the start of the next message.
    """
    if data is None:
        data = sock.recv(READ_SIZE)
    if not data:
        return None
    if len(data) < HEADER.size:
        data = _recv_exact(sock, data, HEADER.size)
    (length,) = HEADER.unpack_from(data)
    if length > MAX_FRAME:
        raise TransportError(
            f"frame length {length} exceeds MAX_FRAME={MAX_FRAME}",
            kind="frame", retryable=False,
        )
    total = HEADER.size + length
    if len(data) < total:
        data = _recv_exact(sock, data, total)
    elif len(data) > total:
        raise TransportError(
            f"{len(data) - total} bytes follow a complete {total}-byte "
            "frame; a connection carries one exchange at a time",
            kind="frame", retryable=False,
        )
    try:
        return json.loads(data[HEADER.size:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError(
            f"malformed frame payload: {exc}", kind="frame", retryable=False
        ) from exc


def _classify_os_error(exc: OSError) -> str:
    """Map an OSError subclass to a TransportError ``kind``."""
    if isinstance(exc, TimeoutError):  # socket.timeout is an alias
        return "timeout"
    if isinstance(exc, ConnectionRefusedError):
        return "refused"
    if isinstance(exc, (ConnectionResetError, BrokenPipeError,
                        ConnectionAbortedError)):
        return "reset"
    return "transport"


def _checkout(host, port, timeout) -> socket.socket:
    """The most recently pooled socket to ``host:port`` that the peer
    has not closed, else a fresh connection."""
    while True:
        with _pool_lock:
            free = _pool.get((host, port))
            sock = free.pop() if free else None
        if sock is None:
            return socket.create_connection((host, port), timeout=timeout)
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        if not poller.poll(0):
            if sock.gettimeout() != timeout:
                sock.settimeout(timeout)
            return sock
        sock.close()  # stale: EOF or RST arrived while it sat idle


def _checkin(host, port, sock, reusable: bool) -> None:
    if reusable:
        with _pool_lock:
            free = _pool.setdefault((host, port), [])
            if len(free) < POOL_IDLE_MAX:
                free.append(sock)
                return
    sock.close()


def close_pooled(addresses) -> None:
    """Close the idle pooled sockets to each ``(host, port)``: what a
    stopping server does to hold the process's fd count flat."""
    with _pool_lock:
        socks = [s for a in addresses for s in _pool.pop(tuple(a), ())]
    for sock in socks:
        sock.close()


def _request_once(host, port, obj, timeout, *, op, uid):
    """One request/response exchange on a pooled or fresh socket; the
    socket returns to the pool only after a reply, every other path
    closes it."""
    reply = None
    try:
        sock = _checkout(host, port, timeout)
        try:
            send_msg(sock, obj)
            reply = recv_msg(sock)
        finally:
            _checkin(host, port, sock, reusable=reply is not None)
    except TransportError as exc:
        if exc.host is not None:
            raise
        # Annotate frame/eof faults raised below us with peer context.
        raise TransportError(
            f"request to {host}:{port}"
            + (f" (uid {uid})" if uid is not None else "")
            + (f" op {op!r}" if op else "") + f" failed: {exc}",
            host=host, port=port, uid=uid, op=op,
            kind=exc.kind, retryable=exc.retryable,
        ) from exc
    except OSError as exc:
        kind = _classify_os_error(exc)
        detail = (
            f"timed out after {timeout}s" if kind == "timeout" else str(exc)
        )
        raise TransportError(
            f"request to {host}:{port}"
            + (f" (uid {uid})" if uid is not None else "")
            + (f" op {op!r}" if op else "") + f" failed: {detail}",
            host=host, port=port, uid=uid, op=op, kind=kind,
        ) from exc
    if reply is None:
        raise TransportError(
            f"{host}:{port}"
            + (f" (uid {uid})" if uid is not None else "")
            + " closed without replying"
            + (f" to op {op!r}" if op else ""),
            host=host, port=port, uid=uid, op=op, kind="eof",
        )
    return reply


def request(
    host: str,
    port: int,
    obj,
    timeout: float = DEFAULT_REQUEST_TIMEOUT,
    *,
    retry: RetryPolicy | None = None,
    rng=None,
    sleep=time.sleep,
    on_retry=None,
    uid: int | None = None,
):
    """One request/response round trip on a pooled TCP connection.

    With a :class:`~repro.net.errors.RetryPolicy`, retryable transport
    faults (refused / timeout / reset / eof — a peer rebooting or
    sleeping its radio) are retried up to ``retry.attempts`` times with
    exponential backoff jittered by the seeded ``rng``; frame faults
    (corruption) are never retried.  ``on_retry(exc, attempt, delay)``
    is called before each backoff so callers can count retries and
    timeouts; ``sleep`` is injectable so tests record the deterministic
    schedule instead of waiting it out.  When the budget runs out the
    final error is a :class:`~repro.net.errors.RetryBudgetExceeded`
    chaining the last underlying fault.
    """
    op = obj.get("op") if isinstance(obj, dict) else None
    attempts = retry.attempts if retry is not None else 1
    last: TransportError | None = None
    for attempt in range(1, attempts + 1):
        try:
            return _request_once(host, port, obj, timeout, op=op, uid=uid)
        except TransportError as exc:
            last = exc
            if not exc.retryable or attempt == attempts:
                break
            delay = retry.delay(attempt, rng)
            if on_retry is not None:
                on_retry(exc, attempt, delay)
            if delay > 0:
                sleep(delay)
    if attempts > 1 and last.retryable:
        raise RetryBudgetExceeded(
            f"request to {host}:{port}"
            + (f" (uid {uid})" if uid is not None else "")
            + (f" op {op!r}" if op else "")
            + f" failed after {attempts} attempts: {last}",
            attempts=attempts, host=host, port=port, uid=uid, op=op,
            kind=last.kind,
        ) from last
    raise last
