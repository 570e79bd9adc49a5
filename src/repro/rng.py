"""Deterministic randomness for simulations.

Three kinds of randomness appear in the paper and therefore in this
library:

* **Per-node coins** — BlindMatch's sender/receiver coin and its uniform
  choice of neighbor, and a proposee's uniform choice among its incoming
  proposals (the acceptance lottery, :mod:`repro.sim.matching`, keyed by
  the target's UID and the instant).  Nothing in the model asks for a
  stateful stream, so :class:`KeyedCounter` makes each draw a pure
  function of (population key, UID, round, counter) — a SplitMix64-style
  finaliser with a scalar form and a numpy ``uint64`` batch form that
  agree bit for bit (counter-based generation after Salmon et al.,
  "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011).  A round's
  coins for all n nodes are one vectorised draw, in any order.

* **Private streams** — the remaining per-node randomness (EQTest's
  evaluation points inside Transfer, SimSharedBit's seed choice, ...)
  still comes from stateful streams: a :class:`SeedTree` derives
  independent, reproducible ``random.Random`` streams from a root seed
  by name, so a whole experiment is replayable from one integer.

* **Shared randomness** — SharedBit assumes a uniform shared string ``r̂`` of
  length Θ(N³ log N) partitioned into *groups* (one per round) of *N bundles*
  (one per UID) of ``⌈log N⌉ + 1`` bits each.  Materializing that string is
  infeasible and unnecessary: algorithms read only a handful of bundles per
  round.  :class:`SharedRandomness` therefore evaluates the string lazily
  with a keyed BLAKE2b PRF — functionally a uniform string, and *shared*
  because every node holds the same key.  This substitution is recorded in
  DESIGN.md §4.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "KeyedCounter",
    "LazyStream",
    "SeedTree",
    "SharedRandomness",
    "prf_bytes",
    "prf_bits",
    "prf_bits_many",
    "prf_uniform_int",
    "serialize_index",
    "prf_template",
]

_PERSON = b"repro-gossip"

#: ``_serialize_int`` of every one-byte value: most PRF index entries
#: (bundle selectors, retry counters, small rounds) are below 256.
_SMALL_INTS = tuple(b"\x00\x01" + bytes((i,)) for i in range(256))


def _serialize_int(i: int) -> bytes:
    raw = i.to_bytes((max(i.bit_length(), 1) + 7) // 8, "big", signed=False)
    return len(raw).to_bytes(2, "big") + raw


def serialize_index(index: tuple[int, ...]) -> bytes:
    """The unambiguous serialization of a PRF index tuple.

    Length-prefixed big-endian integers — exactly the payload prefix
    :func:`prf_bytes` hashes.  Exposed so batched evaluators can build
    payloads incrementally (e.g. a cached per-vertex prefix plus a
    per-cycle suffix) and still land on the same digests.
    """
    return b"".join([
        _SMALL_INTS[i] if 0 <= i < 256 else _serialize_int(i) for i in index
    ])


def prf_template(key: bytes):
    """A keyed BLAKE2b state compatible with :func:`prf_bytes`.

    ``prf_template(key).copy()`` then ``update(serialize_index(index) +
    counter.to_bytes(4, "big"))`` yields the same digest ``prf_bytes``
    computes for ``index`` at that counter.  Batched evaluators copy the
    template instead of re-keying the hash per call, which is the
    dominant setup cost at thousands of draws per round window.
    """
    return hashlib.blake2b(key=key[:64], person=_PERSON, digest_size=64)


#: Keyed states :func:`prf_bytes` copies instead of re-keying per call
#: (a run reads one shared string; SimSharedBit a few candidates).
_keyed_state = lru_cache(maxsize=32)(prf_template)


def prf_bytes(key: bytes, index: tuple[int, ...], nbytes: int) -> bytes:
    """Return ``nbytes`` pseudorandom bytes for ``index`` under ``key``.

    The PRF is BLAKE2b in keyed mode; the index tuple is serialized
    unambiguously (length-prefixed big-endian integers). Output longer than
    one digest is produced in counter mode.
    """
    if nbytes <= 0:
        raise ValueError(f"nbytes must be positive, got {nbytes}")
    payload = serialize_index(index)
    template = _keyed_state(key)
    h = template.copy()
    h.update(payload + b"\x00\x00\x00\x00")
    if nbytes <= 64:
        return h.digest()[:nbytes]
    out = bytearray(h.digest())
    counter = 1
    while len(out) < nbytes:
        h = template.copy()
        h.update(payload + counter.to_bytes(4, "big"))
        out.extend(h.digest())
        counter += 1
    return bytes(out[:nbytes])


def prf_bits(key: bytes, index: tuple[int, ...], nbits: int) -> int:
    """Return an ``nbits``-bit pseudorandom integer for ``index`` under ``key``."""
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    raw = prf_bytes(key, index, (nbits + 7) // 8)
    return int.from_bytes(raw, "big") >> ((8 * len(raw)) - nbits)


def prf_bits_many(
    key: bytes, indices, nbits: int, prefix: tuple[int, ...] = (),
    suffix: tuple[int, ...] = (),
) -> list[int]:
    """``prf_bits(key, prefix + (i,) + suffix, nbits)`` for many ``i``.

    The batched form the engine's array fast path uses: hashing is still
    one BLAKE2b per index (the PRF is inherently per-input), but the
    caller pays Python call overhead once per *batch* instead of once per
    (node, token) pair — and, crucially, shares the batch result across
    all nodes in a round instead of re-deriving identical bits per node.
    """
    return [prf_bits(key, prefix + (i,) + suffix, nbits) for i in indices]


def prf_uniform_int(key: bytes, index: tuple[int, ...], bound: int) -> int:
    """Return a uniform integer in ``[0, bound)`` derived from the PRF.

    Uses deterministic rejection sampling over successive PRF blocks so the
    result is exactly uniform (the paper's nodes use ``log N`` shared bits to
    pick uniformly among at most N neighbors; rejection sampling is the
    standard way to realize that uniformity exactly).
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    if bound == 1:
        return 0
    nbits = (bound - 1).bit_length()
    attempt = 0
    while True:
        value = prf_bits(key, index + (0x52, attempt), nbits)
        if value < bound:
            return value
        attempt += 1


def _derive_seed(root: int, path: tuple) -> int:
    material = repr((root, path)).encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=16).digest(), "big")


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
#: SplitMix64's increment (odd, so ``x * _GAMMA`` is a bijection mod
#: 2^64) and the two multipliers of its finaliser.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """SplitMix64's finaliser on one word in ``[0, 2^64)``."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a ``uint64`` array, in place: numpy's uint64
    arithmetic wraps mod 2^64, which is the scalar form's mask."""
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


@lru_cache(maxsize=256)
def _stamp(round_index: int, counter: int) -> int:
    """The word every lane adds for (round, counter).  It is the same
    for all nodes of a round, so a batch draw derives it once."""
    return _mix64(
        (_mix64((round_index * _GAMMA) & _MASK64) + (counter + 1) * _GAMMA)
        & _MASK64
    )


def _stamps(rounds: np.ndarray) -> np.ndarray:
    """:func:`_stamp` at counter 0 for a ``uint64`` array of rounds."""
    stamps = _mix64_array(rounds * np.uint64(_GAMMA))
    stamps += np.uint64(_GAMMA)
    return _mix64_array(stamps)


#: About how many words :meth:`KeyedCounter.words_list` draws at once.
_BLOCK_WORDS = 1024


class KeyedCounter:
    """Per-node coins as a pure function of (key, uid, round, counter).

    A *lane* is one UID's 64-bit key, derived from the population key by
    arithmetic alone: :meth:`lane` for one UID, :meth:`lanes` for a whole
    UID array.  The draw for (uid, round, counter) is the SplitMix64
    finaliser of ``lane + stamp(round, counter)``.  :meth:`word` is its
    scalar form and :meth:`words` its numpy ``uint64`` batch form, and
    the two agree bit for bit.  Nothing is consumed, so draws may be
    taken in any order, in batches or one at a time.  Rounds and
    counters are taken mod 2^64.

    :meth:`index` / :meth:`indices` map a draw to an exactly uniform
    index below a bound in ``[1, 2^32]``: ``(low32 × bound) >> 32``
    (Lemire's multiply-shift), redrawn on counters 1, 2, ... in the
    rejection zone of fewer than ``bound`` low words that would bias it.
    """

    def __init__(self, key: bytes):
        self.key = int.from_bytes(key[:8], "big")
        self._cached_lanes = (None, None)
        self._block = (None, 0, np.empty((0, 0), dtype=np.uint64))

    def lane(self, uid: int) -> int:
        return _mix64((self.key + uid * _GAMMA) & _MASK64)

    def lanes(self, uids: np.ndarray) -> np.ndarray:
        """:meth:`lane` of every UID of ``uids``, as ``uint64``.

        The lanes of the last array passed are kept, keyed on the
        array's identity: an engine hands the same UID array every
        round, so a population's lanes are derived once.
        """
        cached, lanes = self._cached_lanes
        if cached is not uids:
            lanes = np.asarray(uids).astype(np.uint64)
            lanes *= _GAMMA
            lanes += np.uint64(self.key)
            self._cached_lanes = (uids, _mix64_array(lanes))
        return self._cached_lanes[1]

    @staticmethod
    def word(lane: int, round_index: int, counter: int = 0) -> int:
        return _mix64((lane + _stamp(round_index, counter)) & _MASK64)

    @staticmethod
    def words(lanes: np.ndarray, round_index: int,
              counter: int = 0) -> np.ndarray:
        """:meth:`word` for every lane, as a new ``uint64`` array."""
        return _mix64_array(lanes + np.uint64(_stamp(round_index, counter)))

    def words_list(self, lanes: np.ndarray, round_index: int) -> list[int]:
        """``words(lanes, round_index).tolist()``, for small populations.

        One numpy call costs about as much as a small population's whole
        Python walk, so the words of the next ``1024 // len(lanes)``
        rounds are drawn together and kept until a round outside them
        is asked for.
        """
        cached, first, rows = self._block
        if cached is not lanes or not 0 <= round_index - first < len(rows):
            count = max(1, _BLOCK_WORDS // max(len(lanes), 1))
            stamps = _stamps(np.arange(
                round_index, round_index + count, dtype=np.uint64))
            rows = _mix64_array(lanes + stamps[:, None])
            first = round_index
            self._block = (lanes, first, rows)
        return rows[round_index - first].tolist()

    @staticmethod
    def index(lane: int, round_index: int, bound: int,
              word: int | None = None) -> int:
        """A uniform index in ``[0, bound)`` from counter 0's draw
        (``word``, when the caller already holds it)."""
        if not 1 <= bound <= 1 << 32:
            raise ValueError(f"bound must be in [1, 2^32], got {bound}")
        threshold = (1 << 32) % bound
        counter = 0
        if word is None:
            word = KeyedCounter.word(lane, round_index)
        while True:
            product = (word & _MASK32) * bound
            if product & _MASK32 >= threshold:
                return product >> 32
            counter += 1
            word = KeyedCounter.word(lane, round_index, counter)

    @staticmethod
    def indices(lanes: np.ndarray, round_index: int, bounds,
                words: np.ndarray | None = None) -> np.ndarray:
        """:meth:`index` for every lane, each below its own bound, as
        ``int64``.  Only the lanes in the rejection zone redraw."""
        bounds = np.asarray(bounds).astype(np.uint64)
        if bounds.size and not (1 <= bounds.min() and bounds.max() <= 1 << 32):
            raise ValueError("every bound must be in [1, 2^32]")
        if words is None:
            words = KeyedCounter.words(lanes, round_index)
        product = (words & _MASK32) * bounds
        out = product >> 32
        thresholds = (1 << 32) % bounds
        redo = np.flatnonzero((product & _MASK32) < thresholds)
        counter = 0
        while redo.size:
            counter += 1
            product = KeyedCounter.words(lanes[redo], round_index, counter)
            product &= _MASK32
            product *= bounds[redo]
            out[redo] = product >> 32
            redo = redo[(product & _MASK32) < thresholds[redo]]
        return out.astype(np.int64)


class LazyStream:
    """A ``random.Random`` stand-in that materializes on first draw.

    A real ``random.Random`` carries the full Mersenne state — roughly
    2.5 KB — so a million per-node private streams cost ~2.5 GB at node
    build time, even though a BlindMatch or SharedBit node draws from
    its stream only when it initiates a Transfer between unequal token
    sets (EQTest's evaluation points); their coins come from keyed
    counters (:class:`KeyedCounter`) or the shared PRF.  The proxy
    holds only a root seed and a derivation path until the first
    attribute access — ``LazyStream(seed, path)`` stands in for
    ``SeedTree(seed).stream(*path)`` — then builds that stream and
    caches the requested bound methods in its instance dict, so every
    later ``rng.random()`` is one dict hit away from the real thing.
    Draw-for-draw identical to the eager stream (pinned in
    tests/test_scale.py).
    """

    def __init__(self, root: int, path: tuple):
        self._root = root
        self._path = path

    @staticmethod
    def under(tree: "SeedTree", *prefix) -> tuple[int, tuple]:
        """The ``(root, path)`` that, extended by a key, names the stream
        ``tree.stream(*prefix, key)``: ``LazyStream(root, path + (key,))``
        stands in for it, and a population derives the pair once."""
        return tree.seed, tree._path + prefix

    def __getattr__(self, name):
        rng = self.__dict__.get("_rng")
        if rng is None:
            rng = self.__dict__["_rng"] = random.Random(
                _derive_seed(self._root, self._path))
        attr = getattr(rng, name)
        if not name.startswith("_"):
            # Cache the bound method so repeated draws skip __getattr__.
            self.__dict__[name] = attr
        return attr


@dataclass
class SeedTree:
    """A tree of independent reproducible random streams.

    Example::

        tree = SeedTree(seed=7)
        node_rng = tree.stream("node", uid)     # random.Random
        child = tree.child("leader-election")   # SeedTree

    Streams for distinct paths are computationally independent (derived by
    hashing the path under the root seed), and the same path always yields
    the same stream.
    """

    seed: int
    _path: tuple = field(default_factory=tuple)

    def stream(self, *path) -> random.Random:
        """Return a ``random.Random`` dedicated to ``path``."""
        return random.Random(_derive_seed(self.seed, self._path + tuple(path)))

    def child(self, *path) -> "SeedTree":
        """Return a subtree rooted at ``path`` (for handing to subsystems)."""
        return SeedTree(seed=self.seed, _path=self._path + tuple(path))

    def key(self, *path) -> bytes:
        """Return 32 key bytes for ``path`` (for PRF-based shared strings)."""
        return _derive_seed(self.seed, self._path + tuple(path)).to_bytes(16, "big") * 2


class SharedRandomness:
    """The shared string ``r̂`` of SharedBit, evaluated lazily.

    The string is organized exactly as in §5.1 of the paper: ``groups`` of
    ``N`` *bundles*, each bundle holding ``⌈log N⌉ + 1`` bits.  Group ``r``
    supplies the bits for round ``r``; bundle ``t`` of a group belongs to
    UID/token ``t``.

    * :meth:`token_bit` — the *first* bit of a bundle, used as ``t.bit`` when
      hashing token sets to a 1-bit advertisement.
    * :meth:`selection_index` — a uniform index derived from the remaining
      bits of a node's own bundle, used to pick which 0-advertising neighbor
      receives the proposal (:meth:`selection_indices` for many nodes).

    Two instances constructed with the same key are bit-for-bit identical,
    which is the shared-randomness assumption. ``SimSharedBit`` builds its
    family R′ of candidate strings as SharedRandomness instances with
    distinct keys (see :mod:`repro.commcplx.newman`).
    """

    def __init__(self, key: bytes, capacity_n: int):
        if capacity_n < 2:
            raise ValueError(f"capacity_n must be >= 2, got {capacity_n}")
        self._key = key
        self.capacity_n = capacity_n

    @classmethod
    def from_seed(cls, seed: int, capacity_n: int) -> "SharedRandomness":
        return cls(SeedTree(seed).key("shared-string"), capacity_n)

    @property
    def key(self) -> bytes:
        return self._key

    def token_bit(self, group: int, bundle: int) -> int:
        """Bit assigned to token/UID ``bundle`` in round-group ``group``."""
        self._check(group, bundle)
        return prf_bits(self._key, (group, bundle, 0), 1)

    def token_bits(self, group: int, bundles) -> dict[int, int]:
        """``{bundle: token_bit(group, bundle)}`` for many bundles at once.

        Each bit equals :meth:`token_bit` exactly (same PRF inputs); the
        batched form exists so SharedBit's bulk hooks can derive each
        round's token bits *once* and share them across all n nodes —
        the object path recomputes them per (node, token), which is the
        sharedbit hot path's dominant cost at scale.
        """
        bundles = list(bundles)
        for bundle in bundles:
            self._check(group, bundle)
        bits = prf_bits_many(self._key, bundles, 1, prefix=(group,),
                             suffix=(0,))
        return dict(zip(bundles, bits))

    def selection_index(self, group: int, bundle: int, bound: int) -> int:
        """Uniform value in ``[0, bound)`` from bundle ``bundle`` of ``group``."""
        self._check(group, bundle)
        return prf_uniform_int(self._key, (group, bundle, 1), bound)

    def selection_indices(self, group: int, bundles, bounds) -> list[int]:
        """:meth:`selection_index` for many proposers: entry ``i`` is
        ``selection_index(group, bundles[i], bounds[i])``.

        The same PRF inputs and the same rejection redraws, inlined
        into one loop over the keyed template (:func:`prf_uniform_int`
        via :func:`prf_bytes`): each draw is one BLAKE2b copy, update
        and digest, with no per-proposer call chain.
        """
        if group < 0:
            raise ValueError(f"group must be >= 0, got {group}")
        template = _keyed_state(self._key)
        head = serialize_index((group,))
        # (bundle selector 1, rejection tag 0x52), then the attempt and
        # prf_bytes's block counter 0.
        tail = serialize_index((1, 0x52))
        first = _SMALL_INTS[0] + b"\x00\x00\x00\x00"
        out = []
        for bundle, bound in zip(bundles, bounds):
            if not 0 <= bundle <= self.capacity_n:
                self._check(group, bundle)  # raises
            if bound <= 0:
                raise ValueError(f"bound must be positive, got {bound}")
            if bound == 1:
                out.append(0)
                continue
            nbits = (bound - 1).bit_length()
            nbytes = (nbits + 7) // 8
            shift = 8 * nbytes - nbits
            prefix = head + (_SMALL_INTS[bundle] if bundle < 256
                             else _serialize_int(bundle)) + tail
            h = template.copy()
            h.update(prefix + first)
            value = int.from_bytes(h.digest()[:nbytes], "big") >> shift
            attempt = 0
            while value >= bound:
                attempt += 1
                h = template.copy()
                h.update(prefix + serialize_index((attempt,))
                         + b"\x00\x00\x00\x00")
                value = int.from_bytes(h.digest()[:nbytes], "big") >> shift
            out.append(value)
        return out

    def bundle_bits(self, group: int, bundle: int, nbits: int) -> int:
        """Raw ``nbits`` of the bundle, for callers that need the bit string."""
        self._check(group, bundle)
        return prf_bits(self._key, (group, bundle, 2), nbits)

    def _check(self, group: int, bundle: int) -> None:
        if group < 0:
            raise ValueError(f"group must be >= 0, got {group}")
        if not 0 <= bundle <= self.capacity_n:
            raise ValueError(
                f"bundle must be in [0, {self.capacity_n}], got {bundle}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SharedRandomness)
            and self._key == other._key
            and self.capacity_n == other.capacity_n
        )

    def __hash__(self) -> int:
        return hash((self._key, self.capacity_n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedRandomness(key={self._key[:4].hex()}…, N={self.capacity_n})"
