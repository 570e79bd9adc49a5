"""One resolver per model family: ``None`` | name | dict | built model.

``sim.faults.build_fault`` and ``asynchrony.timing.build_timing`` are
the only places that decision is made; ``run_gossip``, the live
``Coordinator`` and ``record_run`` all hand their argument to them.  The
table below feeds every accepted form through each entry point and
requires the same model (by ``repr``) and the same run.
"""

import pytest

from repro.asynchrony.timing import Synchronous, UniformJitter, build_timing
from repro.core.problem import uniform_instance
from repro.core.runner import run_gossip
from repro.errors import ConfigurationError
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import expander
from repro.sim.faults import NoFaults, SleepCycle, build_fault

N, SEED = 12, 5

#: (form, the model it must resolve to — ``None`` is the null model)
FAULT_FORMS = [
    (None, None),
    ("none", None),
    ({"kind": "none"}, None),
    ({}, None),
    (NoFaults(N, SEED), None),
    ("sleep", SleepCycle(N, SEED)),
    ({"kind": "sleep"}, SleepCycle(N, SEED)),
    ({"kind": "sleep", "period": 4, "duty": 2},
     SleepCycle(N, SEED, period=4, duty=2)),
    (SleepCycle(N, SEED, period=4, duty=2),
     SleepCycle(N, SEED, period=4, duty=2)),
]
TIMING_FORMS = [
    (None, None),
    ("synchronous", None),
    ({"kind": "synchronous"}, None),
    (Synchronous(N, SEED), None),
    ("jitter", UniformJitter(N, SEED)),
    ({"kind": "jitter", "jitter": 0.25}, UniformJitter(N, SEED, jitter=0.25)),
    (UniformJitter(N, SEED, jitter=0.25), UniformJitter(N, SEED, jitter=0.25)),
]


def run(**regime):
    result = run_gossip(
        "sharedbit", StaticDynamicGraph(expander(N, 4, seed=1)),
        uniform_instance(n=N, k=2, seed=SEED), seed=SEED,
        max_rounds=20_000, **regime,
    )
    assert result.solved
    return result.trace.records


@pytest.mark.parametrize("form, model", FAULT_FORMS, ids=repr)
def test_fault_forms(form, model):
    built = build_fault(form, N, SEED)
    assert repr(built) == repr(model)
    if isinstance(form, SleepCycle):
        assert built is form  # a built model passes through
    assert run(fault=form) == run(fault=model)


@pytest.mark.parametrize("form, model", TIMING_FORMS, ids=repr)
def test_timing_forms(form, model):
    assert repr(build_timing(form, N, SEED)) == repr(model)
    assert run(timing=form) == run(timing=model)


@pytest.mark.parametrize("build, spec, message", [
    (build_fault, {"kind": "sleep", "nope": 1},
     "bad params for fault model 'sleep'"),
    (build_timing, {"kind": "jitter", "nope": 1},
     "bad params for timing model 'jitter'"),
    (build_fault, "nope", "unknown fault model 'nope'"),
    (build_timing, {"kind": "nope"}, "unknown timing model 'nope'"),
])
def test_bad_specs_name_the_definition(build, spec, message):
    with pytest.raises(ConfigurationError, match=message):
        build(spec, N, SEED)
    regime = "fault" if build is build_fault else "timing"
    with pytest.raises(ConfigurationError, match=message):
        run(**{regime: spec})


@pytest.mark.net
@pytest.mark.parametrize("form, model", FAULT_FORMS, ids=repr)
def test_coordinator_resolves_fault_and_chaos_forms(form, model):
    from repro.net import Coordinator

    def coordinator(**regime):
        return Coordinator(
            "sharedbit", StaticDynamicGraph(expander(N, 4, seed=1)),
            uniform_instance(n=N, k=2, seed=SEED), SEED, **regime,
        )

    with coordinator(fault=form) as masked:
        assert masked.plan.reader.active == (model is not None)
        if model is not None:
            assert repr(masked.plan.reader.model) == repr(model)
    if model is None:   # nothing to enact
        with pytest.raises(ConfigurationError, match="chaos"):
            coordinator(fault=form, chaos=True)
        return
    with coordinator(fault=form, chaos=True) as enacted:
        assert repr(enacted.plan.reader.model) == repr(model)
        assert enacted.plan.enactment == "sleep"


def test_record_run_still_wants_a_spec_not_an_instance():
    from repro.net import record_run

    graph = StaticDynamicGraph(expander(N, 4, seed=1))
    instance = uniform_instance(n=N, k=2, seed=SEED)
    with pytest.raises(ConfigurationError, match="spec"):
        record_run("sharedbit", graph, instance, SEED,
                   fault=SleepCycle(N, SEED))
    by_name = record_run("sharedbit", graph, instance, SEED, fault="sleep")
    by_dict = record_run("sharedbit", graph, instance, SEED,
                         fault={"kind": "sleep"})
    assert by_name.match_stream == by_dict.match_stream
