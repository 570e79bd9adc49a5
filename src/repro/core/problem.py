"""The gossip problem: instances and the common gossip-node base class.

An instance fixes what the paper's §2 fixes: the network size ``n``, the
known upper bound ``N ≥ n``, each node's UID from ``[N]``, and the initial
token assignment (``k`` tokens, each starting at exactly one node, a node
possibly starting with several).  ``k`` is *not* given to the nodes — only
the harness reads it.

:class:`GossipNode` is the shared base for every gossip protocol: token
storage keyed by label, the :class:`~repro.sim.protocol.TokenHolder`
interface for termination/gauges, and the glue that applies a
Transfer(ε) outcome by actually moving the token payload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.commcplx.transfer import TransferOutcome, TransferProtocol
from repro.errors import ConfigurationError
from repro.core.tokens import Token
from repro.registry import register_instance
from repro.sim.channel import Channel
from repro.sim.protocol import NodeProtocol

__all__ = [
    "GossipInstance",
    "GossipNode",
    "TokenColumns",
    "uniform_instance",
    "everyone_starts_instance",
    "skewed_instance",
]


@dataclass(frozen=True)
class GossipInstance:
    """A concrete gossip problem: who is who, and who starts with what."""

    n: int
    upper_n: int
    uids: tuple[int, ...]                 # uids[vertex] ∈ [1, upper_n]
    initial_tokens: dict = field(default_factory=dict)  # vertex -> tuple[Token]

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError(f"need n >= 2, got {self.n}")
        if self.upper_n < self.n:
            raise ConfigurationError(
                f"upper bound N={self.upper_n} must be >= n={self.n}"
            )
        if len(self.uids) != self.n or len(set(self.uids)) != self.n:
            raise ConfigurationError("uids must be n distinct values")
        for uid in self.uids:
            if not 1 <= uid <= self.upper_n:
                raise ConfigurationError(
                    f"uid {uid} outside [1, {self.upper_n}]"
                )
        seen: set[int] = set()
        for vertex, tokens in self.initial_tokens.items():
            if not 0 <= vertex < self.n:
                raise ConfigurationError(f"vertex {vertex} out of range")
            for token in tokens:
                if token.token_id in seen:
                    raise ConfigurationError(
                        f"token {token.token_id} starts at more than one node"
                    )
                seen.add(token.token_id)

    @property
    def k(self) -> int:
        """Number of tokens in the system (harness-side knowledge only)."""
        return sum(len(tokens) for tokens in self.initial_tokens.values())

    @property
    def token_ids(self) -> frozenset:
        return frozenset(
            token.token_id
            for tokens in self.initial_tokens.values()
            for token in tokens
        )

    def tokens_for(self, vertex: int) -> tuple[Token, ...]:
        return tuple(self.initial_tokens.get(vertex, ()))

    def uid_of(self, vertex: int) -> int:
        return self.uids[vertex]


def _draw_uids(n: int, upper_n: int, rng: random.Random) -> tuple[int, ...]:
    if not n <= upper_n <= 2**63 - 1:
        raise ConfigurationError(
            f"upper bound N={upper_n} must be in [n={n}, 2**63 - 1]: UIDs "
            "are n distinct int64 values from [1, N]"
        )
    return tuple(rng.sample(range(1, upper_n + 1), n))


def uniform_instance(
    n: int, k: int, seed: int, upper_n: int | None = None
) -> GossipInstance:
    """``k`` tokens at ``k`` distinct uniformly-chosen nodes.

    Each token is labeled with its origin's UID, matching the paper's
    labeling convention.
    """
    upper_n = upper_n or n
    if isinstance(k, bool) or not 1 <= k <= n:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k!r}, n={n}")
    rng = random.Random(seed)
    uids = _draw_uids(n, upper_n, rng)
    origins = rng.sample(range(n), k)
    initial = {
        vertex: (Token(token_id=uids[vertex], payload=f"rumor-from-{uids[vertex]}"),)
        for vertex in origins
    }
    return GossipInstance(n=n, upper_n=upper_n, uids=uids, initial_tokens=initial)


def everyone_starts_instance(
    n: int, seed: int, upper_n: int | None = None
) -> GossipInstance:
    """k = n: every node starts with its own token (the ε-gossip setting)."""
    return uniform_instance(n=n, k=n, seed=seed, upper_n=upper_n)


def skewed_instance(
    n: int, k: int, seed: int, upper_n: int | None = None, holders: int = 1
) -> GossipInstance:
    """All ``k`` tokens concentrated at ``holders`` nodes.

    Exercises the paper's allowance that "a given node can start the
    execution with multiple tokens".  Extra token labels are drawn from
    UIDs of non-holder nodes (each token still has a unique [N] label).
    """
    upper_n = upper_n or n
    if not 1 <= holders <= min(k, n):
        raise ConfigurationError(
            f"need 1 <= holders <= min(k, n), got holders={holders}"
        )
    if isinstance(k, bool) or not 1 <= k <= n:
        raise ConfigurationError(f"need 1 <= k <= n, got k={k!r}, n={n}")
    rng = random.Random(seed)
    uids = _draw_uids(n, upper_n, rng)
    holder_vertices = rng.sample(range(n), holders)
    label_vertices = rng.sample(range(n), k)
    initial: dict[int, tuple[Token, ...]] = {}
    for index, label_vertex in enumerate(label_vertices):
        holder = holder_vertices[index % holders]
        token = Token(
            token_id=uids[label_vertex],
            payload=f"rumor-{uids[label_vertex]}",
            origin_uid=uids[holder],
        )
        initial.setdefault(holder, ())
        initial[holder] = initial[holder] + (token,)
    return GossipInstance(n=n, upper_n=upper_n, uids=uids, initial_tokens=initial)


_NO_TOKENS: frozenset = frozenset()


class TokenColumns:
    """A population's token sets as rows of a bitset: ``bits`` is an
    ``(n, ceil(k/64))`` uint64 array, one row per member UID in
    ascending order (``uids``, found through a ``{uid: row}`` index) and
    one column per instance label in label order.  ``loose[row]`` marks
    a row holding a label outside the columns — it never compares
    equal, so a row is never wrong, only sometimes unusable.
    :meth:`GossipNode.store_token` and :meth:`GossipNode.reset_tokens`
    keep a member's row current with O(1) bit writes; a UID with no row
    is a :class:`~repro.errors.ConfigurationError`."""

    #: Wider rows (k > 512: the k = n instances, whose sets are rarely
    #: equal) are not kept: :meth:`for_instance` returns ``None``.
    MAX_WORDS = 8

    def __init__(self, labels, uids):
        labels = sorted(labels)
        rows = len(uids)
        self.uids = np.sort(np.fromiter(uids, dtype=np.int64, count=rows))
        self._index = dict(zip(self.uids.tolist(), range(rows)))
        self.words = max(1, -(-len(labels) // 64))
        self._slot = {label: (column >> 6, 1 << (column & 63))
                      for column, label in enumerate(labels)}
        self.bits = np.zeros((rows, self.words), dtype=np.uint64)
        self.loose = np.zeros(rows, dtype=bool)
        # Item writes through memoryviews take Python ints: no numpy
        # scalar per store.
        self._words = memoryview(self.bits).cast("B").cast("Q")
        self._loose = memoryview(self.loose)

    @classmethod
    def for_instance(cls, instance) -> "TokenColumns | None":
        if instance.k > 64 * cls.MAX_WORDS:
            return None
        return cls(instance.token_ids, instance.uids)

    def _row(self, uid: int) -> int:
        row = self._index.get(uid)
        if row is None:
            raise ConfigurationError(f"UID {uid} has no row in these "
                                     "token columns")
        return row

    def add(self, uid: int, label: int) -> None:
        row = self._row(uid)
        slot = self._slot.get(label)
        if slot is None:
            self._loose[row] = True
        else:
            self._words[row * self.words + slot[0]] |= slot[1]

    def clear(self, uid: int) -> None:
        row = self._row(uid)
        self.bits[row] = 0
        self._loose[row] = False

    def equal(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Per pair of row indices: do the two rows hold one token set?"""
        same = self.bits[rows_a] == self.bits[rows_b]
        same = same[:, 0] if self.words == 1 else same.all(axis=1)
        return same & ~(self.loose[rows_a] | self.loose[rows_b])

    def same(self, uid_a: int, uid_b: int) -> bool:
        """:meth:`equal` for one pair of UIDs, in Python: no numpy call
        (:meth:`_row`'s lookups, inlined)."""
        index = self._index
        a, b = index.get(uid_a), index.get(uid_b)
        if a is None or b is None:
            raise ConfigurationError(f"UID {uid_a} or {uid_b} has no row "
                                     "in these token columns")
        if self._loose[a] or self._loose[b]:
            return False
        words, width = self._words, self.words
        if width == 1:
            return words[a] == words[b]
        a *= width
        b *= width
        return words[a:a + width] == words[b:b + width]


class GossipNode(NodeProtocol):
    """Base class for gossip protocols: token storage plus Transfer glue.

    ``token_columns`` is the population's :class:`TokenColumns`
    (``NodeBuildContext.token_columns()``), where the node keeps the row
    of its UID — a UID without a row is a ``ConfigurationError`` here:
    it lets the engine settle the node's equal-set connections by row
    (:meth:`settle_columns`)."""

    def __init__(self, uid: int, upper_n: int, initial_tokens,
                 rng: random.Random, token_columns=None):
        super().__init__(uid)
        if upper_n < 2:
            raise ConfigurationError(f"upper_n must be >= 2, got {upper_n}")
        self.upper_n = upper_n
        self.rng = rng
        if token_columns is not None:
            token_columns._row(uid)  # a UID without a row is refused here
        self._columns = token_columns
        self._initial_tokens = tuple(initial_tokens)
        self._tokens: dict[int, Token] = {}
        self._known_tokens: frozenset | None = None
        for token in self._initial_tokens:
            self.store_token(token)

    @property
    def known_tokens(self) -> frozenset:
        """Labels of all tokens this node owns (TokenHolder interface).

        Built on first read and shared until the next :meth:`store_token`
        or :meth:`reset_tokens` (the only writers of ``_tokens``): callers
        must not rely on a fresh object per read.
        """
        known = self._known_tokens
        if known is None:
            # CPython >= 3.10 allocates every empty frozenset afresh (216 B):
            # an idle network's nodes share one.
            known = self._known_tokens = (
                frozenset(self._tokens) if self._tokens else _NO_TOKENS)
        return known

    def token(self, token_id: int) -> Token:
        return self._tokens[token_id]

    def has_token(self, token_id: int) -> bool:
        return token_id in self._tokens

    def reset_tokens(self) -> None:
        """Crash-reset hook for the fault layer: drop every learned token
        and return to the initial assignment (a phone that lost its app
        state; see :class:`repro.sim.faults.CrashChurn`)."""
        self._tokens = {}
        self._known_tokens = None
        if self._columns is not None:
            self._columns.clear(self.uid)
        for token in self._initial_tokens:
            self.store_token(token)

    def store_token(self, token: Token) -> None:
        if not 1 <= token.token_id <= self.upper_n:
            raise ConfigurationError(
                f"token label {token.token_id} outside [1, {self.upper_n}]"
            )
        self._tokens[token.token_id] = token
        self._known_tokens = None
        if self._columns is not None:
            self._columns.add(self.uid, token.token_id)

    def _transfer_machine(self, shared: TransferProtocol | None,
                          config) -> TransferProtocol:
        """The population's one Transfer(ε) machine when the builder
        hands it in; a hand-built node makes its own from ``config``."""
        if shared is None:
            return TransferProtocol(
                self.upper_n, config.transfer_epsilon(self.upper_n)
            )
        if shared.upper_n != self.upper_n:
            raise ConfigurationError(
                f"shared Transfer protocol is for N={shared.upper_n} but "
                f"node {self.uid} has N={self.upper_n}"
            )
        return shared

    def run_transfer(
        self,
        peer: "GossipNode",
        protocol: TransferProtocol,
        channel: Channel,
    ) -> TransferOutcome:
        """Execute Transfer(ε) with ``peer`` and move the identified token.

        The initiating node's private randomness drives the EQTest trials
        (the subroutine needs no shared coins).
        """
        outcome = protocol.locate(
            self.known_tokens, peer.known_tokens, self.rng, channel
        )
        if outcome.moved_to_a:
            self.store_token(peer.token(outcome.token_id))
        elif outcome.moved_to_b:
            peer.store_token(self.token(outcome.token_id))
        return outcome

    def interact(self, responder: "GossipNode", channel: Channel,
                 round_index: int) -> None:
        """The stock exchange: one Transfer(ε) on the node's machine (a
        subclass sets ``_transfer``, see :meth:`_transfer_machine`)."""
        self.run_transfer(responder, self._transfer, channel)

    def settle_columns(self):
        """``(columns, machine)``: the stock exchange on a shared machine
        between two nodes naming this pair moves nothing whenever their
        rows are equal."""
        transfer = getattr(self, "_transfer", None)
        if (self._columns is None or transfer is None
                or type(self).interact is not GossipNode.interact):
            return None
        return self._columns, transfer


@register_instance(
    name="uniform",
    description="k tokens at uniformly chosen distinct starting nodes",
)
def _build_uniform_instance(n, seed, *, k=1, upper_n=None):
    return uniform_instance(n=n, k=k, seed=seed, upper_n=upper_n)


@register_instance(
    name="everyone",
    description="k = n: every node starts holding its own token",
)
def _build_everyone_instance(n, seed, *, upper_n=None):
    return everyone_starts_instance(n=n, seed=seed, upper_n=upper_n)


@register_instance(
    name="skewed",
    description="k tokens concentrated on a few holder nodes",
)
def _build_skewed_instance(n, seed, *, k=1, holders=1, upper_n=None):
    return skewed_instance(
        n=n, k=k, seed=seed, upper_n=upper_n, holders=holders
    )


@register_instance(
    name="token_at",
    description="one token at a chosen vertex (the double-star lower-bound "
                "setup)",
)
def _build_token_at_instance(n, seed, *, vertex, upper_n=None):
    # A k = 1 instance whose token starts at a chosen vertex: the rumor
    # must cross the double-star bridge.
    if not isinstance(vertex, int) or not 0 <= vertex < n:
        raise ConfigurationError(
            f"token_at vertex must be in [0, {n}), got {vertex!r}"
        )
    upper = upper_n or n
    rng = random.Random(seed)
    uids = _draw_uids(n, upper, rng)
    return GossipInstance(
        n=n,
        upper_n=upper,
        uids=uids,
        initial_tokens={vertex: (Token(uids[vertex]),)},
    )
