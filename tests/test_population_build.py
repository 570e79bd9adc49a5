"""The population build pays population-level costs once.

One prime search and one Transfer(ε) machine per population instead of
per node, a build-time GC pause that always restores the collector, and
the re-entrancy the sharing relies on: ``locate`` on one protocol from
many threads reports exactly what a private protocol would.
"""

import gc
import random
import sys
import threading

import pytest

from repro.commcplx import fields
from repro.commcplx.transfer import TransferProtocol
from repro.core.blindmatch import BlindMatchConfig, BlindMatchNode
from repro.core.problem import uniform_instance
from repro.core.runner import build_nodes, run_gossip
from repro.errors import ConfigurationError
from repro.experiments import RunSpec, execute_run
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import cycle
from repro.registry import (
    ALGORITHM_REGISTRY,
    AlgorithmDef,
    register_algorithm,
)
from repro.sim.channel import Channel, ChannelPolicy

TRANSFER_ALGORITHMS = ("blindmatch", "sharedbit", "simsharedbit", "multibit",
                       "epsilon")


class TestOneMachinePerPopulation:
    @pytest.mark.parametrize("algorithm", TRANSFER_ALGORITHMS)
    def test_one_transfer_and_constant_prime_work(self, algorithm,
                                                  monkeypatch):
        calls = []
        real = fields.is_prime

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(fields, "is_prime", counting)
        fields.next_prime.cache_clear()
        n = 2000
        nodes = build_nodes(
            algorithm, uniform_instance(n=n, k=3, seed=5), seed=9
        )
        assert len(nodes) == n
        assert len({id(node._transfer) for node in nodes.values()}) == 1
        assert nodes[0]._transfer.upper_n == n
        # One search from 2N + 1 to the next prime — gaps near 4000 are
        # a few dozen at most — where per-node searches would make >= n.
        assert 1 <= len(calls) < 50

    def test_hand_built_node_still_makes_its_own(self):
        a, b = (
            BlindMatchNode(uid=uid, upper_n=16, initial_tokens=(),
                           rng=random.Random(uid))
            for uid in (1, 2)
        )
        assert a._transfer is not b._transfer
        assert a._transfer.upper_n == 16
        assert a._transfer.epsilon == BlindMatchConfig().transfer_epsilon(16)

    def test_protocol_for_another_universe_rejected(self):
        with pytest.raises(ConfigurationError, match="N=32.*N=16"):
            BlindMatchNode(uid=1, upper_n=16, initial_tokens=(),
                           rng=random.Random(0),
                           transfer=TransferProtocol(32, 1e-3))


def _locate_cases(seed, count, upper_n):
    """(labels_a, labels_b, stream seed) triples, half of them equal."""
    rng = random.Random(seed)
    cases = []
    for index in range(count):
        a = frozenset(rng.sample(range(1, upper_n + 1), rng.randrange(1, 9)))
        if index % 2:
            b = a
        else:
            b = a ^ frozenset(rng.sample(range(1, upper_n + 1), 2)) or a
        cases.append((a, b, rng.randrange(2**32)))
    return cases


def test_locate_is_reentrant_on_a_shared_protocol():
    upper_n, threads, per_thread = 256, 8, 2000
    shared = TransferProtocol(upper_n, 1e-4)
    policy = ChannelPolicy.for_upper_n(upper_n)
    workloads = [_locate_cases(100 + t, per_thread, upper_n)
                 for t in range(threads)]
    results = [None] * threads
    start = threading.Barrier(threads)

    def hammer(slot):
        out = []
        start.wait(timeout=30)
        for number, (a, b, stream) in enumerate(workloads[slot]):
            channel = Channel(number, 1, 2, policy)
            outcome = shared.locate(a, b, random.Random(stream), channel)
            out.append((outcome, channel.bits.total_bits))
        results[slot] = out

    workers = [threading.Thread(target=hammer, args=(t,), daemon=True)
               for t in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)

    for slot in range(threads):
        assert results[slot] is not None
        for (a, b, stream), (outcome, charged) in zip(workloads[slot],
                                                      results[slot]):
            assert outcome.control_bits == charged
            private = TransferProtocol(upper_n, 1e-4)
            assert outcome == private.locate(a, b, random.Random(stream))
            # ...and for a private protocol the aggregate is still exact.
            assert private.tester.stats.calls == outcome.eq_calls
            assert private.tester.stats.bits + 2 == outcome.control_bits


class TestBuildRestoresTheCollector:
    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_after_a_build_and_after_a_failing_builder(
            self, enabled, restore_registries):
        (gc.enable if enabled else gc.disable)()
        instance = uniform_instance(n=12, k=2, seed=1)
        build_nodes("sharedbit", instance, seed=3)
        assert gc.isenabled() is enabled

        seen = []

        def exploding(ctx):
            seen.append(gc.isenabled())
            raise RuntimeError("builder failed")

        ALGORITHM_REGISTRY.register(
            AlgorithmDef(name="exploding", description="raises",
                         build=exploding)
        )
        with pytest.raises(RuntimeError, match="builder failed"):
            build_nodes("exploding", instance, seed=3)
        assert seen == [False]  # paused while the builder ran
        assert gc.isenabled() is enabled


class TestBadInputIsAConfigurationError:
    @pytest.mark.parametrize("kind, params", [
        ("uniform", {"k": 1}),
        ("everyone", {}),
        ("skewed", {"k": 1}),
        ("token_at", {"vertex": 0}),
    ])
    def test_upper_n_below_n_names_both(self, kind, params):
        spec = RunSpec(
            algorithm="sharedbit",
            graph={"family": "cycle", "params": {"n": 10}},
            instance={"kind": kind, "upper_n": 5, **params},
            seed=1, max_rounds=10,
        )
        with pytest.raises(ConfigurationError, match="N=5.*n=10"):
            execute_run(spec)

    def test_uniform_instance_direct(self):
        with pytest.raises(ConfigurationError, match="N=5.*n=10"):
            uniform_instance(n=10, k=1, seed=1, upper_n=5)

    def test_dict_config_rejected_once_up_front(self):
        instance = uniform_instance(n=8, k=2, seed=1)
        bad = {"transfer_error_exponent": 2}
        with pytest.raises(ConfigurationError,
                           match="SharedBitConfig.*dict.*build_config"):
            build_nodes("sharedbit", instance, seed=1, config=bad)
        with pytest.raises(ConfigurationError, match="SharedBitConfig"):
            run_gossip("sharedbit", StaticDynamicGraph(cycle(8)), instance,
                       seed=1, max_rounds=10, config=bad)

    def test_algorithm_without_a_config_class_takes_anything(
            self, restore_registries):
        @register_algorithm(name="free_config", description="no class")
        def _build(ctx):
            return {"config": ctx.config}

        instance = uniform_instance(n=4, k=1, seed=1)
        assert build_nodes("free_config", instance, 1,
                           config={"x": 1}) == {"config": {"x": 1}}
