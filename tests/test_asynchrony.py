"""Tests for the asynchrony layer: timing models, the window drain, the
event-driven engine, and the timing registry surface threaded through
every layer (run_gossip, RunSpec, sweeps, the fluent API, the CLI,
scenarios)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment
from repro.asynchrony import (
    TICKS_PER_ROUND,
    AsyncSimulation,
    GilbertElliottPauses,
    HeterogeneousRates,
    Synchronous,
    UniformJitter,
    build_timing,
)
from repro.asynchrony.timing import TimingModel
from repro.core.blindmatch import BlindMatchNode
from repro.core.crowdedbin import CrowdedBinNode
from repro.core.multibit import MultiBitConfig, MultiBitSharedBitNode
from repro.core.ppush import PPushNode
from repro.core.problem import uniform_instance
from repro.core.runner import build_nodes, run_gossip
from repro.core.sharedbit import SharedBitNode
from repro.core.simsharedbit import SimSharedBitNode
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.experiments import RunSpec, SweepSpec, execute_run, run_sweep
from repro.experiments.fastpath import run_case, trace_signature
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import cycle, expander, star
from repro.registry import TIMING_REGISTRY
from repro.sim import engine as sim_engine
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation
from repro.sim.faults import CrashChurn, SleepCycle
from repro.sim.protocol import NodeProtocol
from repro.sim.termination import all_hold_tokens
from repro.workloads.scenarios import (
    commute_mixed_devices_scenario,
    stadium_desync_scenario,
)

N = 20
SEED = 9


def _sim(timing=None, fault=None, n=N, seed=SEED, k=2,
         algorithm="sharedbit", **kwargs):
    instance = uniform_instance(n=n, k=k, seed=seed)
    nodes = build_nodes(algorithm, instance, seed=seed)
    sim = AsyncSimulation(
        StaticDynamicGraph(expander(n=n, degree=4, seed=1)), nodes,
        b=1, seed=seed,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        timing=timing, faults=fault, **kwargs,
    )
    return sim, instance


def _rate(model, vertex) -> float:
    """A device's cycles per round, read off its schedule."""
    period = model.activation_ticks(vertex, 2) - model.activation_ticks(
        vertex, 1)
    return TICKS_PER_ROUND / period


class _TableTiming(TimingModel):
    """Explicit per-vertex schedules; past a table's end the vertex
    never fires again inside any boundary the tests use."""

    NEVER = 1 << 40

    def __init__(self, schedules):
        super().__init__(len(schedules), seed=0, kind="table")
        self.schedules = schedules

    def activation_ticks(self, vertex, cycle):
        table = self.schedules[vertex]
        if cycle <= len(table):
            return table[cycle - 1]
        return self.NEVER + cycle


# Gaps of 1..25 ticks against 10-tick windows: clocks that fire two and
# three times inside one window, same-tick cohorts, and empty windows.
_schedules = st.lists(
    st.lists(st.integers(1, 25), min_size=0, max_size=8).map(
        lambda gaps: list(np.cumsum(gaps).tolist())
    ),
    min_size=3, max_size=6,
)
_boundaries = st.lists(
    st.integers(1, 12), min_size=1, max_size=12
).map(lambda widths: np.cumsum(widths).tolist())


class TestWindowDrain:
    """The ordering contract of the one schedule: ``_drain_window_arrays``
    hands the executor exactly the activations below the boundary, in
    (tick, vertex) order, and leaves every clock at its next one."""

    @staticmethod
    def _seeded(schedules):
        n = len(schedules)
        instance = uniform_instance(n=n, k=1, seed=SEED)
        timing = _TableTiming(schedules)
        sim = AsyncSimulation(
            StaticDynamicGraph(star(n)),
            build_nodes("sharedbit", instance, seed=SEED), b=1, seed=SEED,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
            timing=timing,
        )
        # The schedule as run() seeds it: every vertex at its cycle 1.
        sim._next_cycles = np.ones(n, dtype=np.int64)
        sim._next_ticks = timing.activation_ticks_batch(
            np.arange(n), sim._next_cycles
        )
        return sim

    @settings(deadline=None, max_examples=80)
    @given(schedules=_schedules, boundaries=_boundaries)
    def test_consecutive_drains_partition_the_schedule(
        self, schedules, boundaries
    ):
        sim = self._seeded(schedules)
        events = sorted(
            (ticks, vertex, cycle)
            for vertex, table in enumerate(schedules)
            for cycle, ticks in enumerate(table, start=1)
        )
        floor = 0
        for boundary in boundaries:
            drained = sim._drain_window_arrays(boundary)
            assert all(column.dtype == np.int64 for column in drained)
            assert list(zip(*(column.tolist() for column in drained))) == [
                event for event in events if floor <= event[0] < boundary
            ]
            for vertex, table in enumerate(schedules):
                pending = [
                    (ticks, cycle)
                    for cycle, ticks in enumerate(table, start=1)
                    if ticks >= boundary
                ]
                ticks, cycle = pending[0] if pending else (
                    _TableTiming.NEVER + len(table) + 1, len(table) + 1
                )
                assert sim._next_ticks[vertex] == ticks
                assert sim._next_cycles[vertex] == cycle
            floor = boundary

    def test_fast_clock_fires_three_times_in_one_window(self):
        sim = self._seeded([[3, 5, 9, 14], [5, 40], [12]])
        ticks, vertices, cycles = sim._drain_window_arrays(10)
        assert ticks.tolist() == [3, 5, 5, 9]
        assert vertices.tolist() == [0, 0, 1, 0]   # same tick: by vertex
        assert cycles.tolist() == [1, 2, 1, 3]
        assert sim._next_ticks.tolist() == [14, 40, 12]
        # Boundary-exclusive, and an empty window drains to nothing.
        assert [c.tolist() for c in sim._drain_window_arrays(12)] == [[]] * 3
        assert sim._drain_window_arrays(15)[0].tolist() == [12, 14]


class TestTimingModels:
    def test_registry_surface(self):
        assert set(TIMING_REGISTRY.names()) == {
            "synchronous", "jitter", "heterogeneous", "bursty",
        }

    def test_synchronous_is_null_and_exact(self):
        timing = Synchronous(8, 3)
        assert timing.is_null
        assert timing.activation_ticks(0, 1) == TICKS_PER_ROUND
        assert timing.activation_ticks(7, 5) == 5 * TICKS_PER_ROUND

    def test_build_timing_normalizes_null(self):
        assert build_timing(None, 8, 3) is None
        assert build_timing({"kind": "synchronous"}, 8, 3) is None
        model = build_timing({"kind": "jitter", "jitter": 0.25}, 8, 3)
        assert isinstance(model, UniformJitter)
        assert model.jitter == 0.25

    def test_build_timing_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            build_timing({"kind": "jitter", "nope": 1}, 8, 3)
        with pytest.raises(ConfigurationError):
            build_timing({"kind": "warp"}, 8, 3)

    @pytest.mark.parametrize("model", [
        UniformJitter(6, 5, jitter=0.7),
        HeterogeneousRates(6, 5),
        GilbertElliottPauses(6, 5, p_pause=0.3, p_resume=0.4),
    ])
    def test_schedules_monotone_and_past_round_one(self, model):
        for vertex in range(model.n):
            previous = 0
            for cycle in range(1, 30):
                ticks = model.activation_ticks(vertex, cycle)
                assert ticks > previous
                assert ticks >= TICKS_PER_ROUND
                previous = ticks

    def test_schedules_pure_functions_of_seed(self):
        # Same seed, fresh instance, any access order: same schedule.
        a = GilbertElliottPauses(6, 5, p_pause=0.3, p_resume=0.4)
        b = GilbertElliottPauses(6, 5, p_pause=0.3, p_resume=0.4)
        forward = [a.activation_ticks(2, c) for c in range(1, 20)]
        backward = [b.activation_ticks(2, c) for c in range(19, 0, -1)]
        assert forward == backward[::-1]

    def test_jitter_draws_are_per_cycle(self):
        model = UniformJitter(4, 1, jitter=0.9)
        offsets = {
            model.activation_ticks(0, c) - c * TICKS_PER_ROUND
            for c in range(1, 20)
        }
        assert len(offsets) > 1  # fresh draw per cycle, not a fixed phase

    def test_heterogeneous_assigns_all_classes(self):
        model = HeterogeneousRates(60, 2, rates=(0.5, 1.0, 2.0))
        seen = {_rate(model, v) for v in range(60)}
        assert seen == {0.5, 1.0, 2.0}

    def test_heterogeneous_weights_validated(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousRates(4, 1, rates=(1.0, 2.0), weights=(1.0,))
        with pytest.raises(ConfigurationError):
            HeterogeneousRates(4, 1, rates=(0.0,))

    def test_jitter_range_validated(self):
        with pytest.raises(ConfigurationError):
            UniformJitter(4, 1, jitter=1.0)
        with pytest.raises(ConfigurationError):
            UniformJitter(4, 1, jitter=-0.1)

    def test_bursty_params_validated(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottPauses(4, 1, p_pause=1.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottPauses(4, 1, pause_scale=0.5)

    @pytest.mark.parametrize("make", [
        lambda: UniformJitter(30, SEED, jitter=0.7),
        lambda: HeterogeneousRates(30, SEED),
        lambda: GilbertElliottPauses(30, SEED, p_pause=0.3, p_resume=0.4),
    ])
    def test_batch_schedules_bit_identical_to_scalar(self, make):
        # The batched engine derives its whole window schedule through
        # activation_ticks_batch; determinism demands exact equality
        # with per-event scalar calls — including across jitter's
        # 8-cycle PRF blocks and repeated vertices in one batch.
        batch_model, scalar_model = make(), make()
        rng = np.random.RandomState(7)
        vertices = rng.randint(0, 30, size=600)
        cycles = rng.randint(1, 40, size=600)
        batch = batch_model.activation_ticks_batch(vertices, cycles)
        scalar = [
            scalar_model.activation_ticks(int(v), int(c))
            for v, c in zip(vertices, cycles)
        ]
        assert batch.tolist() == scalar

    def test_jitter_batch_handles_block_crossing_duplicates(self):
        # One vertex appearing twice in a single batch with cycles in
        # different PRF blocks: neither occurrence may read the cache
        # row the other just refreshed.
        batch_model = UniformJitter(4, SEED, jitter=0.5)
        scalar_model = UniformJitter(4, SEED, jitter=0.5)
        vertices, cycles = [2, 2, 2], [7, 8, 16]  # blocks 0, 1, 2
        batch = batch_model.activation_ticks_batch(vertices, cycles)
        scalar = [
            scalar_model.activation_ticks(v, c)
            for v, c in zip(vertices, cycles)
        ]
        assert batch.tolist() == scalar

    def test_bursty_produces_multi_round_gaps(self):
        model = GilbertElliottPauses(10, 3, p_pause=0.5, p_resume=0.2,
                                     pause_scale=4.0)
        gaps = [
            model.activation_ticks(v, c + 1) - model.activation_ticks(v, c)
            for v in range(10) for c in range(1, 15)
        ]
        assert max(gaps) > 2 * TICKS_PER_ROUND  # stalls actually happen
        assert min(gaps) >= TICKS_PER_ROUND    # never faster than nominal


class _CountingOps:
    """Window ops that count each call before passing it on."""

    def __init__(self, ops, counts):
        self._ops, self._counts = ops, counts

    def scan(self, vertices, cycles):
        self._counts["window"] += 1
        return self._ops.scan(vertices, cycles)

    def propose_one(self, *args):
        self._counts["window"] += 1
        return self._ops.propose_one(*args)


def _count_hooks(monkeypatch, node_type) -> dict:
    """Wrap every hook ``node_type`` defines in a counter, by family:
    the scalar hooks, the round engine's bulk hooks, the window hooks."""
    counts = {"scalar": 0, "bulk": 0, "window": 0}
    families = {"advertise": "scalar", "propose": "scalar",
                "advertise_all": "bulk", "propose_all": "bulk"}
    for name, family in families.items():
        raw = node_type.__dict__.get(name)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            def counted(cls, *args, _hook=raw.__func__, _family=family):
                counts[_family] += 1
                return _hook(cls, *args)
            monkeypatch.setattr(node_type, name, classmethod(counted))
        else:
            def counted(self, *args, _hook=raw, _family=family):
                counts[_family] += 1
                return _hook(self, *args)
            monkeypatch.setattr(node_type, name, counted)
    factory = node_type.__dict__.get("make_window_hooks")
    if factory is not None:
        monkeypatch.setattr(node_type, "make_window_hooks", classmethod(
            lambda cls, nodes: _CountingOps(
                factory.__func__(cls, nodes), counts)
        ))
    return counts


#: Population -> (its node class, the fast hooks it has per engine):
#: one row per node class the algorithm registry builds.
_KNOB_POPULATIONS = {
    "sharedbit": (SharedBitNode, {"round": "bulk", "async": "window"}),
    "ppush": (PPushNode, {"round": "bulk"}),
    "multibit": (MultiBitSharedBitNode, {}),
    "blindmatch": (BlindMatchNode, {"round": "bulk", "async": "window"}),
    "simsharedbit": (SimSharedBitNode, {}),
    "crowdedbin": (CrowdedBinNode, {}),
}
_KNOB_TIMINGS = [None, "jitter", "synchronous", "heterogeneous", "bursty"]


@pytest.mark.parametrize("algorithm", list(_KNOB_POPULATIONS))
@pytest.mark.parametrize("engine_mode", ["object", "array", "auto"])
@pytest.mark.parametrize("timing", _KNOB_TIMINGS, ids=[
    "round" if timing is None else f"async-{timing}"
    for timing in _KNOB_TIMINGS
])
def test_engine_mode_picks_the_front_half_on_both_engines(
    monkeypatch, algorithm, engine_mode, timing
):
    # One rule on both engines: "object" runs the scalar hooks, "array"
    # the engine's fast hooks (bulk on the round engine, window on the
    # executor) or refuses, "auto" the fast hooks where the population
    # has them.  Whatever the population, and whatever the timing,
    # Synchronous included.
    node_type, fast_hooks = _KNOB_POPULATIONS[algorithm]
    counts = _count_hooks(monkeypatch, node_type)
    fast = fast_hooks.get("round" if timing is None else "async")

    def run():
        return run_case(algorithm, "static", "uniform", engine_mode,
                        n=8, rounds=4, timing=timing)

    if engine_mode == "array" and fast is None:
        with pytest.raises(ConfigurationError, match="engine_mode='array'"):
            run()
        return
    run()
    expected = "scalar" if engine_mode == "object" or fast is None else fast
    assert {family for family, calls in counts.items() if calls} \
        == {expected}


class TestAsyncSimulation:
    @pytest.mark.parametrize("algorithm, b, engine_mode", [
        ("sharedbit", 1, "auto"),      # window hooks
        ("sharedbit", 1, "object"),    # scalar hooks
        ("multibit", 2, "auto"),       # none: carried on its scalar hooks
    ])
    def test_object_path_memory_guard_never_applies(
        self, monkeypatch, algorithm, b, engine_mode
    ):
        # The guard prices the round engine's per-vertex NeighborView
        # caches, which no asynchronous run builds, and no constructor
        # argument is needed to keep it off.
        monkeypatch.setattr(sim_engine, "OBJECT_PATH_MAX_N", N - 1)
        instance = uniform_instance(n=N, k=2, seed=SEED)
        sim = AsyncSimulation(
            StaticDynamicGraph(expander(n=N, degree=4, seed=1)),
            build_nodes(algorithm, instance, seed=SEED), b=b, seed=SEED,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
            timing=UniformJitter(N, SEED), engine_mode=engine_mode,
        )
        assert sim.run(max_rounds=5).rounds == 5
        assert not sim._views   # the object path's caches stayed unbuilt

    @pytest.mark.parametrize("tag, target", [
        (2, None),      # tag out of range for b = 1
        (0.0, None),    # not an integer at all
        (0, 999),       # proposal to a stranger
    ])
    def test_scalar_hooks_are_held_to_the_model_rules(self, tag, target):
        # The rules the round engine's object path enforces per node
        # hold for a population carried on its scalar hooks, too.
        class Node(NodeProtocol):
            def advertise(self, round_index, neighbor_uids):
                assert len(neighbor_uids) == 2   # the ring, by UID
                return tag

            def propose(self, round_index, neighbors):
                assert all(view.tag == tag for view in neighbors)
                return target

            def interact(self, responder, channel, round_index):
                pass

        sim = AsyncSimulation(
            StaticDynamicGraph(cycle(6)),
            {v: Node(v + 1) for v in range(6)}, b=1, seed=SEED,
            timing=UniformJitter(6, SEED),
        )
        with pytest.raises(ProtocolViolationError):
            sim.run(max_rounds=3)

    def test_tags_wider_than_int64_reach_neighbors_intact(self):
        # Published tags are Python ints, so b = 64 runs: every tag a
        # proposer sees — some of them >= 2^63 — is exactly what that
        # neighbour last advertised (0 before its first scan).
        instance = uniform_instance(n=N, k=2, seed=SEED)
        nodes = build_nodes("multibit", instance, seed=SEED,
                            config=MultiBitConfig(bits=64))
        last, seen = {}, []

        def wrap(node):
            advertise, propose = node.advertise, node.propose

            def advertise_and_note(round_index, neighbor_uids):
                last[node.uid] = advertise(round_index, neighbor_uids)
                return last[node.uid]

            def propose_and_note(round_index, neighbors):
                seen.extend((view.tag, last.get(view.uid, 0))
                            for view in neighbors)
                return propose(round_index, neighbors)

            node.advertise, node.propose = advertise_and_note, propose_and_note

        for node in nodes.values():
            wrap(node)
        sim = AsyncSimulation(
            StaticDynamicGraph(expander(n=N, degree=4, seed=1)), nodes,
            b=64, seed=SEED,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
            timing=UniformJitter(N, SEED),
        )
        assert sim.run(max_rounds=3).rounds == 3
        assert seen and all(tag == published for tag, published in seen)
        assert any(tag >= 1 << 63 for tag, _ in seen)

    def test_timing_population_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            _sim(timing=UniformJitter(N + 1, SEED))

    @pytest.mark.parametrize("churn", [False, True])
    @pytest.mark.parametrize("algorithm", ["sharedbit", "blindmatch"])
    @pytest.mark.parametrize("make_timing", [
        lambda: UniformJitter(N, SEED, jitter=0.5),
        lambda: HeterogeneousRates(N, SEED, rates=(0.5, 2.0)),
        lambda: GilbertElliottPauses(N, SEED, p_pause=0.8, p_resume=0.1,
                                     pause_scale=6.0),
    ], ids=["jitter", "heterogeneous", "bursty"])
    def test_step_by_step_equals_run(self, make_timing, algorithm, churn):
        # A round is a window: step() executes exactly one, and run()
        # is nothing but the loop around it.
        def observed(drive):
            sim, _ = _sim(
                timing=make_timing(), algorithm=algorithm,
                fault=CrashChurn(N, SEED, reset_tokens=True)
                if churn else None,
            )
            drive(sim)
            assert sim.current_round == 24
            return (
                trace_signature(sim.current_round, sim.trace),
                [(rec.virtual_time, rec.clock_skew_max, rec.events)
                 for rec in sim.trace.records],
                sim.event_counts.tolist(),
                [sorted(node.known_tokens) for node in sim._nodes],
            )

        def by_step(sim):
            for window in range(1, 25):
                record = sim.step()
                assert record.round_index == sim.current_round == window

        assert observed(by_step) == observed(lambda sim: sim.run(24))

    def test_window_hooks_scan_after_a_reset_earlier_in_the_window(self):
        # Fast clocks activate up to four times a window; a crash reset
        # at one activation must show in the tag of the next.  The
        # scalar hooks are the reference.
        def observed(engine_mode):
            sim, _ = _sim(
                timing=HeterogeneousRates(40, SEED, rates=(0.7, 2.5, 3.5)),
                fault=CrashChurn(40, SEED, cycle=10, crash_prob=0.4,
                                 min_outage=1, max_outage=4,
                                 reset_tokens=True),
                n=40, k=16, engine_mode=engine_mode,
            )
            sim.run(20)
            return (trace_signature(sim.current_round, sim.trace),
                    [sorted(node.known_tokens) for node in sim._nodes])

        assert observed("array") == observed("object")

    @pytest.mark.parametrize("engine", ["round", "async"])
    def test_run_resumes_where_it_stopped(self, engine):
        # run(5) then run(12) is run(12): the round engine's loop, and
        # the same loop around the window override.
        def observed(budgets):
            if engine == "async":
                sim, _ = _sim(timing=GilbertElliottPauses(
                    N, SEED, p_pause=0.8, p_resume=0.1, pause_scale=6.0))
            else:
                instance = uniform_instance(n=N, k=2, seed=SEED)
                sim = Simulation(
                    StaticDynamicGraph(expander(n=N, degree=4, seed=1)),
                    build_nodes("sharedbit", instance, seed=SEED),
                    b=1, seed=SEED,
                    channel_policy=ChannelPolicy.for_upper_n(
                        instance.upper_n),
                )
            for max_rounds in budgets:
                result = sim.run(max_rounds)
                assert result.rounds == max_rounds
            return (trace_signature(result.rounds, sim.trace),
                    [rec.events for rec in sim.trace.records],
                    [sorted(node.known_tokens) for node in sim._nodes])

        assert observed((5, 12)) == observed((12,))

    def test_event_counts_track_every_activation(self):
        sim, instance = _sim(timing=UniformJitter(N, SEED, jitter=0.5))
        result = sim.run(max_rounds=12)
        # jitter keeps one cycle per node per round window
        assert result.event_counts.tolist() == [12] * N
        assert result.rounds == 12

    def test_heterogeneous_rates_shape_event_counts(self):
        timing = HeterogeneousRates(N, SEED, rates=(0.5, 2.0))
        sim, _ = _sim(timing=timing)
        result = sim.run(max_rounds=20)
        fast = [v for v in range(N) if _rate(timing, v) == 2.0]
        slow = [v for v in range(N) if _rate(timing, v) == 0.5]
        assert fast and slow
        assert min(result.event_counts[fast]) > max(
            result.event_counts[slow]
        )

    def test_async_trace_columns(self):
        sim, _ = _sim(timing=UniformJitter(N, SEED, jitter=0.5))
        sim.run(max_rounds=6)
        for record in sim.trace.records:
            assert record.events == N
            assert record.clock_skew_max == 0  # jitter < 1 round
            assert record.round_index <= record.virtual_time \
                < record.round_index + 1
        series = sim.trace.column_series("events")
        assert [value for _, value in series] == [N] * 6

    def test_skew_grows_under_heterogeneous_rates(self):
        sim, _ = _sim(timing=HeterogeneousRates(N, SEED,
                                                rates=(0.5, 2.0)))
        sim.run(max_rounds=20)
        skews = [rec.clock_skew_max for rec in sim.trace.records]
        assert skews[-1] > skews[1]

    def test_termination_fires_at_window_boundaries(self):
        sim, instance = _sim(timing=UniformJitter(N, SEED, jitter=0.4))
        result = sim.run(
            max_rounds=50_000,
            termination=all_hold_tokens(instance.token_ids),
        )
        assert result.terminated
        assert result.rounds < 50_000
        assert sim.trace.total_rounds == result.rounds

    def test_round_limit_raises_when_asked(self):
        from repro.errors import RoundLimitExceeded

        sim, _ = _sim(timing=UniformJitter(N, SEED))
        with pytest.raises(RoundLimitExceeded):
            sim.run(max_rounds=2, raise_on_limit=True)

    def test_bursty_windows_can_be_empty(self):
        sim, _ = _sim(
            timing=GilbertElliottPauses(N, SEED, p_pause=0.8,
                                        p_resume=0.1, pause_scale=6.0),
        )
        sim.run(max_rounds=30)
        events = [rec.events for rec in sim.trace.records]
        assert 0 in events            # some windows hold no activations
        assert len(events) == 30      # ... but every window is recorded

    def test_termination_cadence_counts_empty_windows(self):
        # Seed 32's goal first holds in window 51 and the cadence's next
        # check falls on window 52, which holds no activation: an empty
        # window is still a round the loop checks, so the run ends there.
        def run(termination_every):
            sim, instance = _sim(
                timing=GilbertElliottPauses(N, 32, p_pause=0.8,
                                            p_resume=0.1, pause_scale=6.0),
                seed=32, termination_every=termination_every,
            )
            result = sim.run(
                max_rounds=5000,
                termination=all_hold_tokens(instance.token_ids),
            )
            assert result.terminated
            return result.rounds, sim.trace.records[-1].events

        assert run(termination_every=1)[0] == 51
        assert run(termination_every=4) == (52, 0)

    def test_sleep_fault_composes_with_async_timing(self):
        clean, instance = _sim(timing=UniformJitter(N, SEED, jitter=0.3))
        clean_result = clean.run(
            max_rounds=50_000,
            termination=all_hold_tokens(instance.token_ids),
        )
        slept, instance = _sim(
            timing=UniformJitter(N, SEED, jitter=0.3),
            fault=SleepCycle(N, SEED, period=8, duty=3),
        )
        slept_result = slept.run(
            max_rounds=50_000,
            termination=all_hold_tokens(instance.token_ids),
        )
        assert slept_result.terminated
        assert slept_result.rounds > clean_result.rounds
        active = [rec.active_nodes for rec in slept.trace.records]
        assert max(active) < N  # the duty cycle masked activations

    def test_estimated_wall_rounds_from_async_columns(self):
        sim, instance = _sim(timing=HeterogeneousRates(N, SEED,
                                                       rates=(0.5, 2.0)))
        result = sim.run(
            max_rounds=50_000,
            termination=all_hold_tokens(instance.token_ids),
        )
        last = next(
            rec for rec in reversed(sim.trace.records)
            if rec.virtual_time is not None
        )
        expected = float(last.virtual_time) + float(last.clock_skew_max)
        assert sim.trace.estimated_wall_rounds() == expected
        # Slow devices trail the virtual clock, so the wall estimate
        # exceeds the raw window count.
        assert expected > result.rounds

    def test_estimated_wall_rounds_round_engine_fallback(self):
        result = run_gossip(
            "sharedbit", StaticDynamicGraph(star(16)),
            uniform_instance(n=16, k=2, seed=4), seed=4,
            max_rounds=50_000,
        )
        assert result.trace.estimated_wall_rounds() is None
        assert result.estimated_wall_rounds == float(result.rounds)


class TestAsyncLeaderElection:
    def test_all_agree_on_leader_under_jitter(self):
        from repro.leader.bitconvergence import LeaderElectionNode
        from repro.rng import SeedTree
        from repro.sim.termination import all_agree_on_leader

        n = 12
        uids = [3 * vertex + 5 for vertex in range(n)]
        tree = SeedTree(SEED)
        nodes = {
            vertex: LeaderElectionNode(
                uid=uids[vertex], upper_n=max(uids),
                rng=tree.stream("leader-node", uids[vertex]),
            )
            for vertex in range(n)
        }
        sim = AsyncSimulation(
            StaticDynamicGraph(expander(n=n, degree=4, seed=1)), nodes,
            b=1, seed=SEED,
            channel_policy=ChannelPolicy.for_upper_n(max(uids)),
            timing=UniformJitter(n=n, seed=SEED, jitter=0.6),
        )
        # No run description reaches an asynchronous leader election, so
        # it ships no window hooks: the scalar hooks carry it.
        assert sim.engine_mode == "object"
        result = sim.run(max_rounds=50_000,
                         termination=all_agree_on_leader())
        assert result.terminated
        winners = {
            node.candidate_leader for node in result.nodes.values()
        }
        assert winners == {min(uids)}


class TestRunGossipTiming:
    def _graph(self, n=16):
        return StaticDynamicGraph(star(n))

    def test_timing_by_name_dict_and_model(self):
        outcomes = []
        for timing in ("jitter", {"kind": "jitter", "jitter": 0.5},
                       UniformJitter(16, 4, jitter=0.5)):
            result = run_gossip(
                "sharedbit", self._graph(),
                uniform_instance(n=16, k=2, seed=4), seed=4,
                max_rounds=50_000, timing=timing,
            )
            assert result.solved
            outcomes.append(
                trace_signature(result.rounds, result.trace)
            )
        # dict and built-model forms agree ("jitter" name differs only
        # in its default jitter=0.5 — which matches, so all three agree)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_null_timing_stays_on_round_engine(self):
        result = run_gossip(
            "sharedbit", self._graph(),
            uniform_instance(n=16, k=2, seed=4), seed=4,
            max_rounds=50_000, timing="synchronous",
        )
        bare = run_gossip(
            "sharedbit", self._graph(),
            uniform_instance(n=16, k=2, seed=4), seed=4,
            max_rounds=50_000,
        )
        assert result.event_counts is None  # the round engine ran
        assert (
            trace_signature(result.rounds, result.trace)
            == trace_signature(bare.rounds, bare.trace)
        )

    def test_async_run_reports_event_counts(self):
        result = run_gossip(
            "blindmatch", self._graph(),
            uniform_instance(n=16, k=2, seed=4), seed=4,
            max_rounds=50_000, timing="heterogeneous",
        )
        assert result.solved
        assert result.event_counts is not None
        assert int(result.event_counts.sum()) > 0


class TestSpecsAndSweeps:
    BASE = {
        "algorithm": "sharedbit",
        "graph": {"family": "expander",
                  "params": {"n": 16, "degree": 4, "seed": 1}},
        "instance": {"kind": "uniform", "k": 2},
        "max_rounds": 50_000,
        "engine": {"trace_sample_every": 1024},
    }

    def test_runspec_timing_block_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            RunSpec(seed=1, timing={"kind": "warp"}, **self.BASE)

    def test_timing_survives_payload_round_trip(self):
        spec = RunSpec(seed=1,
                       timing={"kind": "jitter", "jitter": 0.5},
                       **self.BASE)
        again = RunSpec.from_payload(spec.to_payload())
        assert again.timing == {"kind": "jitter", "jitter": 0.5}
        assert again.spec_hash() == spec.spec_hash()

    def test_timing_kind_changes_the_hash(self):
        clean = RunSpec(seed=1, **self.BASE)
        jittered = RunSpec(seed=1, timing={"kind": "jitter"}, **self.BASE)
        assert clean.spec_hash() != jittered.spec_hash()

    def test_execute_run_with_timing(self):
        record = execute_run(
            RunSpec(seed=1, timing={"kind": "jitter", "jitter": 0.6},
                    **self.BASE)
        )
        assert record["solved"]
        assert record["events"] > 0

    def test_execute_run_synchronous_has_no_events_column(self):
        record = execute_run(RunSpec(seed=1, **self.BASE))
        assert "events" not in record

    def test_timing_sweep_jobs_parallel_identical(self):
        sweep = SweepSpec(
            name="async-axis",
            base=dict(self.BASE, timing={"kind": "jitter", "jitter": 0.0}),
            grid={"timing.jitter": [0.0, 0.5]},
            seeds=(11, 23),
        )
        serial = run_sweep(sweep, jobs=1)
        parallel = run_sweep(sweep, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_timing_kind_sweepable_as_axis(self):
        sweep = SweepSpec(
            name="kind-axis",
            base=dict(self.BASE),
            grid={"timing.kind": ["synchronous", "heterogeneous"]},
            seeds=(11,),
        )
        result = run_sweep(sweep)
        assert all(summary.all_solved for summary in result.points)


class TestFluentApi:
    def test_with_timing_validates_and_threads(self):
        record = (
            Experiment("sharedbit")
            .on_graph("expander", n=16, degree=4, seed=1)
            .with_instance("uniform", k=2)
            .with_timing("bursty", p_pause=0.05)
            .seeded(3)
            .rounds(50_000)
            .run()
        )
        assert record["solved"]
        assert record["events"] > 0

    def test_with_timing_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            Experiment("sharedbit").with_timing("warp")

    def test_synchronous_timing_left_out_of_payload(self):
        spec = (
            Experiment("sharedbit")
            .on_graph("star", n=8)
            .with_timing("synchronous")
            .run_spec()
        )
        assert spec.timing == {"kind": "synchronous"}


class TestAsyncScenarios:
    def test_commute_carries_heterogeneous_clocks(self):
        scenario = commute_mixed_devices_scenario(seed=1)
        assert isinstance(scenario.timing, HeterogeneousRates)
        assert scenario.fault is None

    def test_stadium_composes_timing_with_sleep(self):
        scenario = stadium_desync_scenario(seed=1)
        assert isinstance(scenario.timing, GilbertElliottPauses)
        assert isinstance(scenario.fault, SleepCycle)

    def test_commute_solves(self):
        scenario = commute_mixed_devices_scenario(n=20, k=2, seed=3)
        result = run_gossip(
            scenario.recommended_algorithm, scenario.dynamic_graph,
            scenario.instance, seed=3, max_rounds=100_000,
            timing=scenario.timing,
        )
        assert result.solved
        counts = np.asarray(result.event_counts)
        assert counts.min() > 0

    def test_stadium_solves(self):
        scenario = stadium_desync_scenario(n=24, k=3, seed=3)
        result = run_gossip(
            scenario.recommended_algorithm, scenario.dynamic_graph,
            scenario.instance, seed=3, max_rounds=100_000,
            fault=scenario.fault, timing=scenario.timing,
        )
        assert result.solved


class TestCliTiming:
    def test_run_with_timing_flag(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--algorithm", "sharedbit", "--graph", "expander",
            "--n", "16", "--k", "2", "--timing", "jitter", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "timing=jitter" in out
        assert "events=" in out

    def test_list_includes_timing_section(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "timing models:" in out
        for name in ("synchronous", "jitter", "heterogeneous", "bursty"):
            assert name in out

    def test_scenario_commute(self, capsys):
        from repro.cli import main

        code = main(["scenario", "--name", "commute_mixed_devices"])
        out = capsys.readouterr().out
        assert code == 0
        assert "timing regime" in out
