"""Tests for the fault layer: model semantics, determinism, and the
engine integration on both paths.

The load-bearing guarantees:

* every fault decision is a pure function of (seed, round) — identical
  across engine modes, re-runs, replays, and ``run_sweep --jobs`` values;
* the null model (``NoFaults`` / no model at all) consumes zero
  randomness and leaves traces byte-identical to the pre-fault engine
  (the "null fault model" variant row of tests/test_golden_traces.py);
* inactive vertices are invisible for the round: no advertising, no
  proposals to or from them, no connections;
* dropped matches never reach Stage 3.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynchrony import AsyncSimulation, Synchronous
from repro.core.problem import uniform_instance
from repro.core.runner import build_nodes, run_gossip
from repro.errors import ConfigurationError
from repro.experiments import SweepSpec, execute_run, run_sweep
from repro.experiments.fastpath import (
    make_dynamics,
    run_case,
    trace_signature,
)
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import star
from repro.registry import FAULT_REGISTRY
from repro.rng import SeedTree
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation
from repro.sim.faults import (
    CrashChurn,
    FaultReader,
    LossyLinks,
    NoFaults,
    SleepCycle,
    build_fault,
)


class ResettingSleep(SleepCycle):
    """A duty cycle whose sleepers lose their app state — and that
    reports no ``crashed_this_round``: every reader must fall back to
    the documented mask-transition rule."""

    resets_state = True


def expected_resets(model, rounds):
    """``[(round, vertex), ...]`` by the documented crash rule, worked
    out from the model alone: its report where it gives one, else the
    awake -> asleep transitions of consecutive masks."""
    out, prev = [], np.ones(model.n, dtype=bool)
    for rnd in range(1, rounds + 1):
        mask = model.active_mask(rnd)
        mask = np.ones(model.n, dtype=bool) if mask is None else mask
        reported = model.crashed_this_round(rnd)
        crashed = (
            np.nonzero(prev & ~mask)[0] if reported is None else reported
        )
        out += [(rnd, int(vertex)) for vertex in sorted(crashed)]
        prev = mask
    return out


def spy_resets(nodes, log, clock):
    """Record ``(clock(), vertex)`` for every ``reset_tokens`` call."""
    for vertex, node in nodes.items():
        def spy(vertex=vertex, original=node.reset_tokens):
            log.append((clock(), vertex))
            return original()
        node.reset_tokens = spy


class TestNoFaults:
    def test_is_null_and_maskless(self):
        model = NoFaults(8, 3)
        assert model.is_null
        assert model.active_mask(1) is None
        assert not model.drop_connection(1, 1, 2)


class TestSleepCycle:
    def test_mask_shape_and_duty(self):
        model = SleepCycle(n=50, seed=1, period=8, duty=6)
        mask = model.active_mask(1)
        assert mask.shape == (50,)
        assert mask.dtype == bool
        # Over one full period every node is awake exactly `duty` rounds.
        awake = sum(model.active_mask(r).sum() for r in range(1, 9))
        assert awake == 50 * 6

    def test_full_duty_is_maskless(self):
        model = SleepCycle(n=10, seed=1, period=4, duty=4)
        assert model.active_mask(3) is None

    def test_deterministic_across_instances(self):
        a = SleepCycle(n=30, seed=7, period=8, duty=3)
        b = SleepCycle(n=30, seed=7, period=8, duty=3)
        for r in (1, 5, 13, 100):
            assert np.array_equal(a.active_mask(r), b.active_mask(r))

    def test_unstaggered_sleeps_in_lockstep(self):
        model = SleepCycle(n=20, seed=1, period=4, duty=2, stagger=False)
        for r in (1, 2):
            assert model.active_mask(r).all()
        for r in (3, 4):
            assert not model.active_mask(r).any()

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            SleepCycle(n=5, seed=0, period=0)
        with pytest.raises(ConfigurationError):
            SleepCycle(n=5, seed=0, period=4, duty=0)
        with pytest.raises(ConfigurationError):
            SleepCycle(n=5, seed=0, period=4, duty=5)


class TestCrashChurn:
    def test_deterministic_and_order_independent(self):
        a = CrashChurn(n=40, seed=5, cycle=16, crash_prob=0.5,
                       min_outage=2, max_outage=8)
        b = CrashChurn(n=40, seed=5, cycle=16, crash_prob=0.5,
                       min_outage=2, max_outage=8)
        rounds = [1, 30, 7, 64, 2, 100]  # deliberately out of order
        expected = {r: a.active_mask(r) for r in sorted(rounds)}
        for r in rounds:  # b queried out of order: same masks
            assert np.array_equal(b.active_mask(r), expected[r])

    def test_outages_are_contiguous_within_window(self):
        model = CrashChurn(n=20, seed=3, cycle=12, crash_prob=0.9,
                           min_outage=3, max_outage=5)
        masks = np.stack([model.active_mask(r) for r in range(1, 13)])
        for vertex in range(20):
            down = np.nonzero(~masks[:, vertex])[0]
            if down.size:
                assert down[-1] - down[0] + 1 == down.size  # one interval
                assert down.size <= 5

    def test_crashed_this_round_matches_mask_transition(self):
        model = CrashChurn(n=25, seed=9, cycle=10, crash_prob=0.7,
                           min_outage=2, max_outage=4)
        prev = np.ones(25, dtype=bool)
        for r in range(1, 31):
            mask = model.active_mask(r)
            newly_down = np.nonzero(prev & ~mask)[0]
            # every active->inactive transition is a registered crash
            # start (the converse can fail at window edges, where two
            # independent outages may run back to back).
            assert set(newly_down) <= set(model.crashed_this_round(r))
            prev = mask

    def test_some_nodes_crash_and_rejoin(self):
        model = CrashChurn(n=30, seed=1, cycle=10, crash_prob=0.8,
                           min_outage=2, max_outage=4)
        masks = np.stack([model.active_mask(r) for r in range(1, 11)])
        assert (~masks).any()           # somebody crashed
        assert masks[-1].sum() > 0      # and the crowd is not empty
        # rejoin: every outage of length <= 4 in a 10-round window ends.
        assert masks.all(axis=0).sum() < 30


class TestLossyLinks:
    def test_no_mask(self):
        assert LossyLinks(n=10, seed=1).active_mask(5) is None

    def test_drop_rate_roughly_matches(self):
        model = LossyLinks(n=10, seed=2, drop_prob=0.3)
        draws = [
            model.drop_connection(r, u, v)
            for r in range(1, 40)
            for (u, v) in ((1, 2), (3, 4), (5, 6))
        ]
        rate = sum(draws) / len(draws)
        assert 0.15 < rate < 0.45

    def test_draw_depends_only_on_round_and_pair(self):
        a = LossyLinks(n=10, seed=2, drop_prob=0.5)
        b = LossyLinks(n=10, seed=2, drop_prob=0.5)
        # b queried in a different order: same answers.
        queries = [(5, 1, 2), (1, 3, 4), (9, 1, 2), (5, 3, 4)]
        expected = {q: a.drop_connection(*q) for q in queries}
        for q in reversed(queries):
            assert b.drop_connection(*q) == expected[q]

    def test_zero_prob_never_draws(self):
        model = LossyLinks(n=10, seed=2, drop_prob=0.0)
        assert not any(
            model.drop_connection(r, 1, 2) for r in range(1, 50)
        )


class TestRegistry:
    def test_all_builtin_faults_registered(self):
        for name in ("none", "sleep", "churn", "lossy"):
            assert name in FAULT_REGISTRY.names()

    def test_build_with_params(self):
        model = FAULT_REGISTRY.get("sleep").build(12, 3, period=6, duty=2)
        assert isinstance(model, SleepCycle)
        assert model.period == 6 and model.duty == 2

    def test_unknown_fault_enumerates(self):
        with pytest.raises(ConfigurationError, match="sleep"):
            FAULT_REGISTRY.get("flood")


def _faulty_sim(fault, engine_mode, n=18, seed=11, rounds=40):
    instance = uniform_instance(n=n, k=3, seed=seed)
    nodes = build_nodes("sharedbit", instance, seed=seed)
    sim = Simulation(
        make_dynamics("relabeling", n, seed), nodes, b=1, seed=seed,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        engine_mode=engine_mode, faults=fault,
    )
    sim.run(max_rounds=rounds)
    return sim


class TestEngineIntegration:
    def test_mask_size_mismatch_rejected(self):
        instance = uniform_instance(n=8, k=1, seed=1)
        nodes = build_nodes("sharedbit", instance, seed=1)
        with pytest.raises(ConfigurationError, match="n=6"):
            Simulation(
                StaticDynamicGraph(star(8)), nodes, b=1, seed=1,
                channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
                faults=SleepCycle(n=6, seed=1),
            )

    def test_trace_columns_track_activity_and_drops(self):
        sleep = _faulty_sim(SleepCycle(n=18, seed=11, period=4, duty=2),
                            "object")
        actives = [value for _, value in
                   sleep.trace.column_series("active_nodes")]
        assert all(0 <= value <= 18 for value in actives)
        assert any(value < 18 for value in actives)

        lossy = _faulty_sim(LossyLinks(n=18, seed=11, drop_prob=0.5),
                            "object")
        assert lossy.trace.total_dropped_connections > 0
        assert all(value == 18 for _, value in
                   lossy.trace.column_series("active_nodes"))

    def test_clean_trace_reports_full_activity(self):
        sim = _faulty_sim(None, "object", rounds=10)
        assert all(value == 18 for _, value in
                   sim.trace.column_series("active_nodes"))
        assert sim.trace.total_dropped_connections == 0

    @pytest.mark.parametrize("fault_kind", ("sleep", "churn", "lossy"))
    def test_object_and_array_paths_identical(self, fault_kind):
        assert (
            run_case("sharedbit", "geometric", "uniform", "object",
                     rounds=50, fault=fault_kind)
            == run_case("sharedbit", "geometric", "uniform", "array",
                        rounds=50, fault=fault_kind)
        )

    def test_sleeping_vertices_form_no_connections(self):
        # With an unstaggered sleep cycle the whole crowd is asleep on
        # rounds 3-4 of every period: those rounds must show zero
        # proposals and zero connections.
        fault = SleepCycle(n=18, seed=11, period=4, duty=2, stagger=False)
        sim = _faulty_sim(fault, "object", rounds=20)
        for record in sim.trace.records:
            phase = (record.round_index - 1) % 4
            if phase >= 2:
                assert record.active_nodes == 0
                assert record.proposals == 0
                assert record.connections == 0

    def test_crash_reset_drops_learned_tokens(self):
        # Aggressive churn with reset: at least one node that had learned
        # extra tokens crashes, so coverage regresses below what the
        # retained-state variant keeps.
        n, seed = 16, 5

        def total_known(reset):
            instance = uniform_instance(n=n, k=4, seed=seed)
            nodes = build_nodes("sharedbit", instance, seed=seed)
            fault = CrashChurn(n=n, seed=seed, cycle=10, crash_prob=0.9,
                               min_outage=3, max_outage=6,
                               reset_tokens=reset)
            sim = Simulation(
                make_dynamics("static", n, seed), nodes, b=1, seed=seed,
                channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
                faults=fault,
            )
            sim.run(max_rounds=12)
            return sum(
                len(node.known_tokens) for node in sim.protocols.values()
            )

        assert total_known(reset=True) < total_known(reset=False)

    def test_back_to_back_crash_across_window_edge_still_resets(self):
        # Regression: a crash can start the instant a previous outage
        # ends (the old outage ran to its window's edge, the new window
        # begins with start=0).  The node never wakes in between, so a
        # mask-transition diff sees nothing — the engine must follow the
        # model's crashed_this_round report instead.
        model = None
        boundary = None
        for seed in range(40):
            candidate = CrashChurn(n=24, seed=seed, cycle=6,
                                   crash_prob=0.8, min_outage=3,
                                   max_outage=6, reset_tokens=True)
            prev = np.ones(24, dtype=bool)
            for r in range(1, 31):
                mask = candidate.active_mask(r)
                reported = set(candidate.crashed_this_round(r))
                transitions = set(np.nonzero(prev & ~mask)[0])
                if reported - transitions:
                    model = candidate
                    boundary = (r, sorted(reported - transitions))
                    break
                prev = mask
            if model is not None:
                break
        assert model is not None, "no boundary crash found in 40 seeds"
        round_index, hidden = boundary

        instance = uniform_instance(n=24, k=2, seed=1)
        nodes = build_nodes("sharedbit", instance, seed=1)
        resets: list[int] = []
        for vertex, node in nodes.items():
            original = node.reset_tokens

            def spy(vertex=vertex, original=original):
                resets.append(vertex)
                return original()

            node.reset_tokens = spy
        sim = Simulation(
            make_dynamics("static", 24, 1), nodes, b=1, seed=1,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
            faults=model,
        )
        for _ in range(round_index):
            sim.step()
        assert set(hidden) <= set(resets)

    def test_run_gossip_accepts_name_dict_and_model(self):
        instance = uniform_instance(n=12, k=2, seed=3)
        results = []
        for fault in (
            "lossy",
            {"kind": "lossy", "drop_prob": 0.2},
            LossyLinks(n=12, seed=3, drop_prob=0.2),
        ):
            result = run_gossip(
                "sharedbit", make_dynamics("static", 12, 3),
                uniform_instance(n=12, k=2, seed=3), seed=3,
                max_rounds=5000, fault=fault,
            )
            assert result.solved
            results.append(
                (result.rounds, result.trace.total_dropped_connections)
            )
        # name-with-defaults and explicit defaults agree; the dict and
        # model forms are the same configuration, so identical runs.
        assert results[0] == results[1] == results[2]
        assert instance.n == 12


class TestSweepDeterminism:
    def _sweep(self):
        return SweepSpec(
            name="faulty",
            base={
                "algorithm": "sharedbit",
                "graph": {"family": "cycle", "params": {"n": 10}},
                "instance": {"kind": "uniform", "k": 2},
                "fault": {"kind": "sleep", "period": 4},
                "max_rounds": 30_000,
                "engine": {"trace_sample_every": 256},
            },
            grid={"fault.duty": [2, 4]},
            seeds=(11, 23),
        )

    def test_fault_axis_sweeps_like_any_dotted_key(self):
        sweep = self._sweep()
        duties = [payload["fault"]["duty"]
                  for _, _, _, payload in sweep.runs()]
        assert duties == [2, 2, 4, 4]

    def test_parallel_equals_serial_byte_for_byte(self):
        serial = run_sweep(self._sweep(), jobs=1)
        parallel = run_sweep(self._sweep(), jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_execute_run_records_drops(self):
        record = execute_run({
            "algorithm": "sharedbit",
            "graph": {"family": "cycle", "params": {"n": 10}},
            "instance": {"kind": "uniform", "k": 1},
            "fault": {"kind": "lossy", "drop_prob": 0.4},
            "seed": 11,
            "max_rounds": 30_000,
        })
        assert record["solved"]
        assert record["dropped_connections"] > 0

    def test_fault_block_round_trips_and_hashes(self):
        sweep = self._sweep()
        payload = sweep.runs()[0][3]
        from repro.experiments.specs import RunSpec, run_hash

        spec = RunSpec.from_payload(payload)
        assert spec.fault == {"kind": "sleep", "period": 4, "duty": 2}
        again = RunSpec.from_payload(spec.to_payload())
        assert run_hash(again.to_payload()) == run_hash(spec.to_payload())
        clean = dict(payload)
        clean["fault"] = {"kind": "none"}
        assert run_hash(clean) != run_hash(payload)


#: (kind, params) draws for the reader properties: every shipped family,
#: the degenerate corners that normalize to "no mask", and the
#: report-less resetting model.
READER_MODELS = st.one_of(
    st.just(("none", {})),
    st.builds(
        lambda period, duty, stagger, resets: (
            "resetting_sleep" if resets else "sleep",
            {"period": period, "duty": min(duty, period),
             "stagger": stagger},
        ),
        st.integers(1, 6), st.integers(1, 6), st.booleans(), st.booleans(),
    ),
    st.builds(
        lambda cycle, prob, reset: (
            "churn",
            {"cycle": cycle, "crash_prob": prob, "min_outage": 1,
             "max_outage": 4, "reset_tokens": reset},
        ),
        st.integers(2, 9), st.sampled_from([0.0, 0.5, 1.0]), st.booleans(),
    ),
    st.builds(
        lambda prob: ("lossy", {"drop_prob": prob}),
        st.sampled_from([0.0, 0.4, 1.0]),
    ),
)


def _reader(kind, params, n, seed):
    if kind == "resetting_sleep":
        return FaultReader(ResettingSleep(n, seed, **params), n)
    return FaultReader(build_fault({"kind": kind, **params}, n, seed), n)


class TestFaultReader:
    """The fault layer's one consumer-facing surface, with no engine and
    no socket around it."""

    @given(
        model=READER_MODELS,
        n=st.integers(1, 12),
        seed=st.integers(0, 50),
        indices=st.lists(st.integers(1, 40), min_size=1, max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_answers_are_pure_in_seed_and_index(self, model, n, seed,
                                                indices):
        kind, params = model
        vertices = np.arange(n)
        was_active = vertices % 2 == 0
        matches = [(u, u + 1) for u in range(1, n, 2)]

        def answers(order):
            reader = _reader(kind, params, n, seed)
            out = {}
            for index in order:
                mask = reader.mask(index)
                crashed = reader.crashed(index, mask, vertices, was_active)
                surviving, doomed = reader.split(index, matches)
                assert sorted(surviving + list(doomed)) == matches
                out[index] = (
                    None if mask is None else mask.tolist(),
                    crashed.tolist(), surviving,
                )
            return reader, out

        reader, forward = answers(indices)
        _, backward = answers(indices[::-1] + indices)
        assert forward == backward  # neither call order nor call count
        for index, (mask, crashed, _) in forward.items():
            # Normalized: a mask is a length-n list with a sleeper in it.
            assert mask is None or (len(mask) == n and not all(mask))
            reported = reader.model.crashed_this_round(index)
            if reported is not None:
                rule = np.isin(vertices, reported)
            elif mask is None:
                rule = np.zeros(n, dtype=bool)
            else:
                rule = was_active & ~np.array(mask)
            assert crashed == rule.tolist()

    @given(model=READER_MODELS, n=st.integers(1, 12),
           seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_in_order_crashes_follow_the_documented_rule(self, model, n,
                                                         seed):
        kind, params = model
        reader = _reader(kind, params, n, seed)
        stepped = [
            (index, vertex)
            for index in range(1, 25)
            for vertex in reader.crashes(index, reader.mask(index))
        ]
        fresh = _reader(kind, params, n, seed).model
        assert stepped == expected_resets(fresh, 24)

    @pytest.mark.parametrize("model", [
        None,
        NoFaults(8),
        SleepCycle(8, 3, period=4, duty=4),     # never asleep
        LossyLinks(8, 3, drop_prob=0.0),        # never drops
    ], ids=repr)
    def test_clean_answers_cost_zero_draws(self, model):
        reader = FaultReader(model, 8)
        matches = [(1, 2), (3, 4)]
        with mock.patch.object(SeedTree, "stream") as stream:
            for index in range(1, 20):
                assert reader.mask(index) is None
                assert reader.split(index, matches)[0] == matches
        assert stream.call_count == 0
        assert not reader.resets_state and not reader.virtual

    @pytest.mark.parametrize("model, drops", [
        (SleepCycle(8, 3, period=4, duty=2), False),
        (CrashChurn(8, 3, crash_prob=0.5, reset_tokens=True), False),
        (LossyLinks(8, 3, drop_prob=0.5), True),
    ], ids=repr)
    def test_only_a_model_that_drops_walks_the_matches(self, model, drops):
        # Decided once: a model keeping FaultModel.drop_connection hands
        # the matches back as they came, never asked per pair.
        reader = FaultReader(model, 8)
        assert reader.drops is drops
        matches = [(1, 2), (3, 4), (5, 6)]
        with mock.patch.object(type(model), "drop_connection",
                               autospec=True,
                               side_effect=type(model).drop_connection
                               ) as drop:
            for index in range(1, 20):
                surviving, doomed = reader.split(index, matches)
                assert sorted(surviving + list(doomed)) == matches
                if not drops:
                    assert surviving is matches and doomed == ()
        assert drop.call_count == (19 * len(matches) if drops else 0)

    def test_built_for_another_n_is_refused_at_every_door(self):
        model = SleepCycle(n=6, seed=1)
        for door in (lambda: FaultReader(model, 8),
                     lambda: build_fault(model, 8, 1)):
            with pytest.raises(ConfigurationError, match="bound to n=6"):
                door()
        assert build_fault(model, 6, 1) is model

    def test_wrong_shaped_mask_is_refused(self):
        class Short(SleepCycle):
            def active_mask(self, round_index):
                return np.zeros(3, dtype=bool)

        with pytest.raises(ConfigurationError, match="shape"):
            FaultReader(Short(8, 1), 8).mask(1)


def _engines(n, seed):
    """Every in-process driver of the round rule, as ``(label, build)``
    with ``build(nodes, fault)`` returning an engine to ``run``."""
    def kwargs(nodes):
        return dict(
            protocols=nodes, b=1, seed=seed,
            channel_policy=ChannelPolicy.for_upper_n(2 * n),
        )

    def sim(mode):
        return lambda nodes, fault: Simulation(
            make_dynamics("static", n, seed), engine_mode=mode,
            faults=fault, **kwargs(nodes))

    def window(nodes, fault):
        return AsyncSimulation(
            make_dynamics("static", n, seed), timing=Synchronous(n, seed),
            engine_mode="array", faults=fault, **kwargs(nodes))

    return [("object", sim("object")), ("array", sim("array")),
            ("async-window", window)]


class TestWhoResets:
    """Sim, async (and, in tests/test_chaos.py, live) agree on *which*
    vertices reset and when — not only on the final match stream."""

    @given(seed=st.integers(0, 200), period=st.integers(2, 6),
           duty=st.integers(1, 5), reports=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_every_engine_resets_by_the_documented_rule(
            self, seed, period, duty, reports):
        n, rounds = 10, 18

        def fault():
            if reports:
                return CrashChurn(n, seed, cycle=period + 1, crash_prob=0.6,
                                  min_outage=1, max_outage=duty,
                                  reset_tokens=True)
            return ResettingSleep(n, seed, period=period,
                                  duty=min(duty, period))

        expected = expected_resets(fault(), rounds)
        for label, build in _engines(n, seed):
            instance = uniform_instance(n=n, k=3, seed=seed)
            nodes = build_nodes("sharedbit", instance, seed=seed)
            log = []
            engine = build(nodes, fault())
            # Resets come before the round's stages: the round being
            # executed is one past the last one the trace closed.
            spy_resets(nodes, log,
                       lambda: engine.trace.total_rounds + 1)
            engine.run(max_rounds=rounds)
            assert log == expected, label

    def test_a_crash_reset_invalidates_the_cached_token_view(self):
        """``known_tokens`` is read (and so cached) at every round or
        window boundary; a reset inside the engine must not leave the
        pre-crash view behind."""
        n, seed, rounds = 12, 4, 40
        for label, build in _engines(n, seed):
            instance = uniform_instance(n=n, k=6, seed=seed)
            nodes = build_nodes("sharedbit", instance, seed=seed)
            fault = CrashChurn(n, seed, cycle=8, crash_prob=0.7,
                               min_outage=2, max_outage=4,
                               reset_tokens=True)
            engine = build(nodes, fault)
            engine.termination_every = 1
            held = {vertex: node.known_tokens
                    for vertex, node in nodes.items()}
            forgot = []

            def boundary(protocols, round_index):
                for vertex, node in protocols.items():
                    view = node.known_tokens
                    assert view == frozenset(node._tokens), label
                    assert node.known_tokens is view
                    forgot.append(not held[vertex] <= view)
                    held[vertex] = view
                return False

            engine.run(max_rounds=rounds, termination=boundary)
            assert any(forgot), label
