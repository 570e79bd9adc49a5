"""The node-protocol interface every algorithm implements.

A protocol is the per-node state machine of a distributed algorithm.  Each
round the engine calls, in model order:

1. :meth:`NodeProtocol.advertise` — pick this round's ``b``-bit tag,
   knowing only the round number and the current neighbor UIDs;
2. :meth:`NodeProtocol.propose` — after tags are published, decide whether
   to send a connection proposal (and to whom) based on the neighbor views;
3. :meth:`NodeProtocol.interact` — if matched, the *initiator's* method is
   invoked with the responder object and a metered channel; the pair
   performs its bounded exchange.  A pair between equal rows of the
   token columns every node names (:meth:`NodeProtocol.settle_columns`)
   gets no channel: the engine books its machine's equal-set outcome.

Protocols must not communicate outside these hooks; the test suite checks
the engine-enforced parts (tag width, proposing only to neighbors) and the
channel meters the rest.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol, runtime_checkable

from repro.sim.channel import Channel
from repro.sim.context import NeighborView

__all__ = ["NodeProtocol", "TokenHolder", "ScalarWindowOps", "bulk_hooks",
           "window_hooks"]


class NodeProtocol(ABC):
    """Per-node algorithm state plus the three per-round decision hooks."""

    def __init__(self, uid: int):
        if uid < 0:
            raise ValueError(f"uid must be >= 0, got {uid}")
        self.uid = uid

    @abstractmethod
    def advertise(self, round_index: int, neighbor_uids: tuple[int, ...]) -> int:
        """Return this round's tag (an integer in ``[0, 2**b)``).

        With ``b = 0`` the only legal tag is 0.
        """

    @abstractmethod
    def propose(
        self, round_index: int, neighbors: tuple[NeighborView, ...]
    ) -> int | None:
        """Return the UID of the neighbor to propose to, or None to wait.

        This hook is also where a protocol digests what it heard during the
        scan (CrowdedBin's tag-spelling reception happens here), because it
        is the one hook per round where the node sees all neighbor tags.
        """

    @abstractmethod
    def interact(self, responder: "NodeProtocol", channel: Channel,
                 round_index: int) -> None:
        """Run the bounded pairwise exchange with ``responder``.

        Called on the node whose proposal was accepted.  All communication
        cost must be charged to ``channel``.
        """

    def settle_columns(self) -> tuple | None:
        """``(columns, machine)`` when :meth:`interact` between this node
        and any node naming the same pair moves nothing, touches no
        stream and books ``machine.equal_outcome`` whenever ``columns``
        holds equal rows for their UIDs; else ``None``.  The
        engine reads it once per run, and settles a round's equal pairs
        by row only when every node names one pair."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(uid={self.uid})"


def _defining_class(node_type: type, name: str) -> type | None:
    for base in node_type.__mro__:
        if name in base.__dict__:
            return base
    return None


#: What a subclass may define below an optional hook's class and keep
#: it: the hooks themselves (the pair rule polices those), the shared
#: readiness check, and ABCMeta's bookkeeping.
_HOOK_NAMES = frozenset({
    "advertise", "propose", "advertise_all", "propose_all",
    "make_window_hooks", "bulk_ready", "_abc_impl",
})


def _eligible_type(nodes, pairs: dict[str, str]) -> type | None:
    """The population's class if it may run on the optional hooks in
    ``pairs`` (``{scalar hook: the optional hook standing in for it}``),
    else ``None`` — the one rule :func:`bulk_hooks` documents."""
    node_type = type(nodes[0])
    if any(type(node) is not node_type for node in nodes):
        return None
    mro = node_type.__mro__
    guard_depth = 0
    for scalar, optional in pairs.items():
        scalar_owner = _defining_class(node_type, scalar)
        owner = _defining_class(node_type, optional)
        if scalar_owner is None or owner is None or not issubclass(
            owner, scalar_owner
        ):
            return None
        guard_depth = max(guard_depth, mro.index(owner))
    # Helper-override guard: anything a subclass defines below the
    # optional hooks' classes (other than dunders and the hook names,
    # which the pair rule above already polices) could change what the
    # scalar hooks do without the inherited optional hooks noticing.
    for cls in mro[:guard_depth]:
        for name in cls.__dict__:
            if name not in _HOOK_NAMES and not (
                name.startswith("__") and name.endswith("__")
            ):
                return None
    ready = getattr(node_type, "bulk_ready", None)
    if ready is not None and not ready(nodes):
        return None
    return node_type


def bulk_hooks(nodes) -> tuple | None:
    """Detect the optional *bulk* protocol hooks for the array fast path.

    A protocol class may implement, alongside the scalar per-node hooks,
    two classmethods operating on the whole population at once:

    * ``advertise_all(nodes, round_index, csr) -> numpy int array`` —
      Stage 1 for every vertex; entry ``v`` is vertex ``v``'s tag.
    * ``propose_all(nodes, round_index, csr, tags) -> numpy int array`` —
      Stage 2 for every vertex; entry ``v`` is the *UID* vertex ``v``
      proposes to, or ``-1`` for no proposal.

    ``csr`` is the epoch's UID-bound
    :class:`~repro.sim.adjacency.CSRAdjacency`.  The contract is strict
    equivalence: a bulk hook must produce exactly what looping the scalar
    hook over vertices ``0..n-1`` would — including consuming each node's
    private ``random.Random`` in that same vertex order and updating any
    per-round node state the other hooks read.  The engine picks the
    fast path only when this function approves the whole population:

    * every node is the *same concrete class* (mixed populations fall
      back to the object path);
    * both hooks exist, and each is defined at least as deep in the MRO
      as its scalar twin — a subclass that overrides ``propose`` but
      inherits ``propose_all`` would silently diverge, so it is refused;
    * no class below the bulk hooks' defining classes defines anything
      but hook names (``__init__``-style dunders excepted) — a subclass
      overriding a *helper* the scalar hooks call (e.g. SharedBit's
      ``advertisement_bit``) would be invisible to the inherited bulk
      hooks, so such populations fall back to the object path; a
      subclass opts back in by re-declaring both bulk hooks;
    * an optional ``bulk_ready(nodes)`` classmethod (shared-state
      homogeneity checks, e.g. one ``SharedRandomness`` instance for all
      of SharedBit) returns True.

    Returns ``(advertise_all, propose_all)`` or ``None``.
    """
    node_type = _eligible_type(
        nodes, {"advertise": "advertise_all", "propose": "propose_all"}
    )
    if node_type is None:
        return None
    return node_type.advertise_all, node_type.propose_all


def window_hooks(nodes):
    """Detect the optional *window* protocol hooks for asynchronous runs.

    The asynchronous engine executes a round window's many small cohorts
    through one *window ops* object.  Any population can be carried on
    its scalar hooks (:class:`ScalarWindowOps`); a protocol class that
    can do better than one ``advertise``/``propose`` call per member
    provides a ``make_window_hooks(nodes) -> ops`` classmethod returning
    a stateful per-run ops object with:

    * ``scan(vertices, cycles) -> (tags, senders)`` — one cohort's
      members (plain int lists, in event order, scanned just before the
      cohort proposes) to parallel lists of int tags and proposer-
      candidate flags.  Must equal looping scalar ``advertise`` over the
      members in order on their current state (same values, same
      private-rng consumption); ``senders[i]`` False guarantees member
      ``i``'s scalar ``propose`` would return ``None`` without consuming
      randomness, so the engine never evaluates it.
    * ``propose_one(vertex, cycle, neighbor_uids, neighbor_tags) -> int``
      — the proposal target UID (or ``-1``) given the member's visible
      neighborhood (a tuple of UIDs and a parallel list of their current
      tags, both plain ints in row order), equal to scalar ``propose``
      on the same views including its private-rng consumption.

    The window ops may skip per-round node bookkeeping the scalar hooks
    perform (e.g. SharedBit's ``_bit_this_round``) *only* if nothing
    outside the scalar hooks reads it — a run is fed by either the
    protocol's window ops or the scalar hooks, never both.

    Eligibility is :func:`bulk_hooks`' rule with the factory standing in
    for both scalar hooks (window batching leans on the same shared
    state the bulk hooks do, hence the same ``bulk_ready`` check).
    Returns the ops object or ``None``.
    """
    node_type = _eligible_type(nodes, {
        "advertise": "make_window_hooks", "propose": "make_window_hooks",
    })
    return None if node_type is None else node_type.make_window_hooks(nodes)


class ScalarWindowOps:
    """The window ops every population has: its scalar hooks.

    What feeds the asynchronous engine's window executor when the
    protocol ships no ``make_window_hooks`` (or the run asks for
    ``engine_mode="object"``): a scan that calls
    ``advertise(cycle, visible_uids)`` per member in event order, every
    member a proposal candidate, and ``propose(cycle, views)`` over
    :class:`~repro.sim.context.NeighborView` tuples built from the
    member's visible row — exactly the calls, in exactly the order, the
    round engine's object path makes for a full cohort.
    ``visible_uids(vertex, cycle)`` is the engine's lookup of a member's
    visible neighbour UIDs (topology and fault mask are its business).
    """

    def __init__(self, nodes, visible_uids):
        self._nodes = nodes
        self._visible_uids = visible_uids

    def scan(self, vertices, cycles):
        nodes = self._nodes
        visible_uids = self._visible_uids
        tags = [
            nodes[vertex].advertise(cycle, visible_uids(vertex, cycle))
            for vertex, cycle in zip(vertices, cycles)
        ]
        return tags, [True] * len(tags)

    def propose_one(self, vertex, cycle, neighbor_uids, neighbor_tags) -> int:
        views = tuple(map(NeighborView, neighbor_uids, neighbor_tags))
        target = self._nodes[vertex].propose(cycle, views)
        return -1 if target is None else target


@runtime_checkable
class TokenHolder(Protocol):
    """Anything exposing the set of gossip tokens it currently knows.

    Gossip protocols implement this so generic termination conditions and
    trace gauges can measure coverage without knowing the algorithm.
    """

    @property
    def known_tokens(self) -> frozenset: ...
