"""Every registered algorithm's population equals one built by hand.

The builders read the instance's columns in one pass
(``NodeBuildContext.members``) and call each node class positionally
with a lazy private stream.  The reference here spells each population
out the long way — keyword arguments, ``instance.tokens_for``/``uid_of``
and eager ``SeedTree(seed).stream("node", uid)`` streams — and the two
must agree field by field, down to each stream's first draws.
"""

import random

import numpy as np
import pytest

from repro.commcplx.newman import SharedStringFamily
from repro.commcplx.transfer import TransferProtocol
from repro.core.blindmatch import COINS_PATH, BlindMatchNode
from repro.core.crowdedbin import CrowdedBinNode
from repro.core.multibit import MultiBitSharedBitNode
from repro.core.ppush import PPushNode
from repro.core.problem import (
    TokenColumns,
    everyone_starts_instance,
    skewed_instance,
    uniform_instance,
)
from repro.core.runner import build_nodes
from repro.core.sharedbit import SharedBitNode
from repro.core.simsharedbit import SimSharedBitNode
from repro.registry import ALGORITHM_REGISTRY
from repro.rng import KeyedCounter, LazyStream, SeedTree, SharedRandomness

SEED = 17


def _transfer(upper_n, config):
    return TransferProtocol(upper_n, config.transfer_epsilon(upper_n))


def _reference_nodes(cls, instance, shared_kwargs):
    tree = SeedTree(SEED)
    return {
        vertex: cls(
            uid=instance.uid_of(vertex),
            upper_n=instance.upper_n,
            initial_tokens=instance.tokens_for(vertex),
            rng=tree.stream("node", instance.uid_of(vertex)),
            **shared_kwargs,
        )
        for vertex in range(instance.n)
    }


def _blindmatch(instance, config):
    tree = SeedTree(SEED)
    return _reference_nodes(BlindMatchNode, instance, {
        "config": config,
        "transfer": _transfer(instance.upper_n, config),
        "coins": KeyedCounter(tree.key(COINS_PATH)),
        "token_columns": TokenColumns.for_instance(instance),
    })


def _sharedbit(cls):
    def build(instance, config):
        return _reference_nodes(cls, instance, {
            "shared": SharedRandomness(SeedTree(SEED).key("shared-string"),
                                       instance.upper_n),
            "config": config,
            "transfer": _transfer(instance.upper_n, config),
        })
    return build


def _simsharedbit(instance, config):
    family = SharedStringFamily(
        master_seed=SeedTree(SEED).stream("family-master").randrange(2**31),
        capacity_n=instance.upper_n,
        family_size=config.family_size,
    )
    return _reference_nodes(SimSharedBitNode, instance, {
        "family": family,
        "config": config,
        "transfer": _transfer(instance.upper_n, config.sharedbit),
    })


def _crowdedbin(instance, config):
    return _reference_nodes(CrowdedBinNode, instance, {
        "config": config,
        "schedule": config.schedule(instance.upper_n),
    })


def _ppush(instance, config):
    tree = SeedTree(SEED)
    return {
        vertex: PPushNode(
            uid=instance.uid_of(vertex),
            upper_n=instance.upper_n,
            rng=tree.stream("node", instance.uid_of(vertex)),
            rumor=(instance.tokens_for(vertex) or (None,))[0],
        )
        for vertex in range(instance.n)
    }


#: Each registered algorithm's population, built by hand.
REFERENCES = {
    "blindmatch": _blindmatch,
    "sharedbit": _sharedbit(SharedBitNode),
    "epsilon": _sharedbit(SharedBitNode),
    "multibit": _sharedbit(MultiBitSharedBitNode),
    "simsharedbit": _simsharedbit,
    "crowdedbin": _crowdedbin,
    "ppush": _ppush,
}

INSTANCES = {
    "uniform": lambda: uniform_instance(n=14, k=4, seed=3, upper_n=40),
    "skewed": lambda: skewed_instance(n=14, k=5, seed=4, holders=2),
    "single": lambda: uniform_instance(n=14, k=1, seed=5),
    "everyone": lambda: everyone_starts_instance(n=14, seed=6),
}


def _cases():
    for algorithm in REFERENCES:
        if algorithm == "ppush":
            kinds = ["single"]
        elif algorithm == "epsilon":
            kinds = ["everyone"]
        else:
            kinds = list(INSTANCES)
        for kind in kinds:
            yield algorithm, kind


def _draws(stream) -> list:
    return [stream.random(), stream.random(), stream.getrandbits(64),
            stream.randrange(1000)]


def assert_same(built, reference, path="node", pairs=None):
    """Field-by-field equality.  Objects without their own ``__eq__`` are
    compared by their fields; objects shared across the population must
    be shared the same way on both sides; streams by their next draws."""
    pairs = {} if pairs is None else pairs
    if isinstance(reference, random.Random):
        assert isinstance(built, (random.Random, LazyStream)), path
        key = id(built)
        if key in pairs:
            assert pairs[key] is reference, f"{path}: stream not shared alike"
            return
        pairs[key] = reference
        assert _draws(built) == _draws(reference), path
        return
    assert type(built) is type(reference), path
    if isinstance(reference, np.ndarray):
        assert reference.dtype == built.dtype, path
        assert np.array_equal(built, reference), path
    elif isinstance(reference, (list, tuple)):
        assert len(built) == len(reference), path
        for i, (a, b) in enumerate(zip(built, reference)):
            assert_same(a, b, f"{path}[{i}]", pairs)
    elif isinstance(reference, dict):
        assert list(built) == list(reference), path
        for key in reference:
            assert_same(built[key], reference[key], f"{path}[{key!r}]", pairs)
    elif (type(reference).__eq__ is object.__eq__
          and hasattr(reference, "__dict__")):
        key = id(built)
        if key in pairs:
            assert pairs[key] is reference, f"{path}: not shared alike"
            return
        pairs[key] = reference
        fields = {name: value for name, value in vars(reference).items()
                  if not isinstance(value, memoryview)}
        assert sorted(fields) == sorted(
            name for name, value in vars(built).items()
            if not isinstance(value, memoryview)), path
        for name, value in fields.items():
            assert_same(getattr(built, name), value, f"{path}.{name}", pairs)
    else:
        assert built == reference, path


def test_every_registered_algorithm_has_a_reference():
    assert set(ALGORITHM_REGISTRY.names()) == set(REFERENCES)


@pytest.mark.parametrize("algorithm, kind", list(_cases()))
def test_build_equals_the_reference_population(algorithm, kind):
    instance = INSTANCES[kind]()
    config = ALGORITHM_REGISTRY.get(algorithm).make_config()
    built = build_nodes(algorithm, instance, SEED, config)
    reference = REFERENCES[algorithm](instance, config)
    assert list(built) == list(reference) == list(range(instance.n))
    pairs = {}
    for vertex in reference:
        assert_same(built[vertex], reference[vertex], f"node[{vertex}]",
                    pairs)


def test_the_reference_population_is_checked_field_by_field():
    # The comparison is not vacuous: one changed field or one stream
    # drawn from a different path fails it.
    instance = INSTANCES["uniform"]()
    config = ALGORITHM_REGISTRY.get("blindmatch").make_config()
    built = build_nodes("blindmatch", instance, SEED, config)
    reference = _blindmatch(instance, config)
    reference[3].rng = SeedTree(SEED).stream("node", reference[4].uid)
    with pytest.raises(AssertionError):
        assert_same(built[3], reference[3])
    reference = _blindmatch(instance, config)
    reference[5]._columns.add(reference[5].uid, instance.uids[0])
    with pytest.raises(AssertionError):
        assert_same(built[5], reference[5])
