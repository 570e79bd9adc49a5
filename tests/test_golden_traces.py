"""Frozen golden-trace corpus: the engines reproduce recorded bytes.

The differential gates (tests/test_fastpath.py) prove the engine paths
agree with *each other*; they cannot see a change that moves every path
the same way.  This corpus pins each path to a recording instead:
``tests/golden/engine_traces.json`` maps a case id to
``sha256(repr(run_case(...)))`` — every sampled trace record, every
running total, the final round and the end state — over

* the round engine: {ppush, blindmatch, sharedbit} × {static, relabeling,
  geometric} × all four acceptance rules × {object, array}; the four
  fault regimes under ``uniform``;
* the event engine: {sharedbit, blindmatch} × {static, geometric} ×
  {synchronous, jitter, heterogeneous, bursty} × four fault regimes ×
  {scalar hooks (``engine_mode="object"``, ids ending ``/event``),
  window hooks (``"array"``, ids ending ``/batched``)};
* hook-less populations on the event engine's scalar hooks: {multibit,
  simsharedbit} × {static, geometric} × the four timings × {none,
  churn} (MultiBit's ``propose`` reads neighbour tags, SimSharedBit's
  reads private coins — neither has window hooks).

The JSON is a recording, not an expectation to maintain: an engine
refactor must pass it unmodified.  Only a change that *deliberately*
moves random draws (a new stream format) re-records it, by running this
file as a script from the repo root: ``PYTHONPATH=src python
tests/test_golden_traces.py``.

The corpus is also the one differential between the engine's twin
paths, in two tables that survive a careless re-record:

* **classes** — cases that differ only in the path they take (engine
  mode, synchronous timing vs the round engine) must share one recorded
  digest: object == array, scalar hooks == window hooks, synchronous
  event engine == round engine;
* **variants** — a run that must not change the execution (null fault
  model, telemetry on, int64 CSR) must reproduce its base case's
  recorded digest; a cell no case records (SharedBit under faults with
  a non-uniform acceptance rule) must agree across the paths of its
  class.

On failure both name the first divergent round and column
(:func:`~repro.experiments.fastpath.first_divergence`).

At the corpus's n = 24 every round falls under the engine's resolver
split, so the array-mode cases resolve through the dict resolver.  Each
array-mode round-engine case is therefore also run with the split forced
below zero, which sends every round through the array resolver and its
batch lottery draw: it must reproduce the same recorded digest.  The
same holds for stage 3's split: a BlindMatch round at n = 24 compares
its token rows in Python, so forced below zero every round takes the
numpy compare and must still hit the digest.
"""

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from repro.experiments.fastpath import (
    CHECK_ACCEPTANCES,
    CHECK_ALGORITHMS,
    CHECK_ASYNC_ALGORITHMS,
    CHECK_ASYNC_DYNAMICS,
    CHECK_DYNAMICS,
    CHECK_FAULTS,
    CHECK_TIMINGS,
    first_divergence,
    run_case,
)
from repro.sim import engine
from repro.sim.faults import NoFaults

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_traces.json"

#: Populations without ``make_window_hooks``: the event engine can only
#: carry them on their scalar ``advertise`` / ``propose`` hooks.
CHECK_SCALAR_HOOK_ALGORITHMS = ("multibit", "simsharedbit")
#: The last segment of an event-engine case id: the hooks its
#: ``engine_mode`` runs (scalar / window), under their recorded names.
ASYNC_HOOKS = {"object": "event", "array": "batched"}


def golden_cases() -> dict[str, dict]:
    """Case id -> ``run_case`` keyword arguments, in recording order."""
    cases: dict[str, dict] = {}

    def add(prefix: str, algorithm, dynamics, acceptance, engine_mode,
            **extra) -> None:
        parts = [prefix, algorithm, dynamics, acceptance, engine_mode]
        parts += [str(value) for value in extra.values()]
        if prefix == "async":
            parts.append(ASYNC_HOOKS[engine_mode])
        cases["/".join(parts)] = dict(
            algorithm=algorithm, dynamics_kind=dynamics,
            acceptance=acceptance, engine_mode=engine_mode, **extra,
        )

    for algorithm in CHECK_ALGORITHMS:
        for dynamics in CHECK_DYNAMICS:
            for engine_mode in ("object", "array"):
                for acceptance in CHECK_ACCEPTANCES:
                    add("round", algorithm, dynamics, acceptance,
                        engine_mode)
                for fault in CHECK_FAULTS[1:]:
                    add("fault", algorithm, dynamics, "uniform",
                        engine_mode, fault=fault)
    for algorithm in CHECK_ASYNC_ALGORITHMS:
        for dynamics in CHECK_ASYNC_DYNAMICS:
            for timing in ("synchronous",) + CHECK_TIMINGS:
                for fault in CHECK_FAULTS:
                    for engine_mode in ASYNC_HOOKS:
                        add("async", algorithm, dynamics, "uniform",
                            engine_mode, timing=timing, fault=fault)
    for algorithm in CHECK_SCALAR_HOOK_ALGORITHMS:
        for dynamics in CHECK_ASYNC_DYNAMICS:
            for timing in ("synchronous",) + CHECK_TIMINGS:
                for fault in ("none", "churn"):
                    add("async", algorithm, dynamics, "uniform", "object",
                        timing=timing, fault=fault)
    return cases


def case_digest(kwargs: dict) -> str:
    return hashlib.sha256(repr(run_case(**kwargs)).encode()).hexdigest()


def class_key(kwargs: dict) -> tuple:
    """The execution a case runs, without the path it takes there."""
    execution = {key: value for key, value in kwargs.items()
                 if key != "engine_mode"}
    if execution.get("timing") == "synchronous":
        del execution["timing"]  # the round engine's execution
    if execution.get("fault") == "none":
        del execution["fault"]
    return tuple(sorted(execution.items()))


def diverged(label: str, left: dict, right: dict) -> str:
    """Re-run two cases and say where they part."""
    where = first_divergence(run_case(**left), run_case(**right))
    return f"{label}: {where or 'identical when re-run'}"


CASES = golden_cases()
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def members(prefix: str, **allowed) -> list[str]:
    """Case ids under ``prefix`` whose arguments take allowed values."""
    return [
        case_id for case_id, kwargs in CASES.items()
        if case_id.startswith(prefix + "/")
        and all(kwargs.get(key) in values for key, values in allowed.items())
    ]


ROUND_UNIFORM = members("round", acceptance=("uniform",))
#: Round-engine cases on the array path, under all four rules and the
#: fault regimes: the cases the array resolver can serve.
ARRAY_RESOLVER = members("round", engine_mode=("array",)) \
    + members("fault", engine_mode=("array",))
#: Row -> (base case ids, ``run_case`` overrides, pinned).  A pinned
#: row's runs reproduce their base case's recorded digest.  An unpinned
#: row runs a cell no case records, so its runs agree within each class.
VARIANTS = {
    # Sized like run_case's default n and seed.
    "null fault model": (ROUND_UNIFORM, {"fault": NoFaults(24, 7)}, True),
    "telemetry on": (
        ROUND_UNIFORM + members("async", timing=("jitter",),
                                fault=("none",), engine_mode=("array",)),
        {"telemetry": True}, True,
    ),
    "int64 CSR": (
        members("round", engine_mode=("array",)), {"csr_dtype": "int64"},
        True,
    ),
    **{
        f"sharedbit under faults, {rule}": (
            members("fault", algorithm=("sharedbit",)), {"acceptance": rule},
            False,
        )
        for rule in CHECK_ACCEPTANCES[1:]
    },
}


def test_corpus_covers_exactly_the_case_matrix():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case_id", list(CASES))
def test_case_reproduces_its_recorded_trace(case_id):
    assert case_digest(CASES[case_id]) == GOLDEN[case_id]


@pytest.mark.parametrize("case_id", ARRAY_RESOLVER)
def test_array_resolver_reproduces_its_recorded_trace(case_id, monkeypatch):
    monkeypatch.setattr(engine, "_DICT_RESOLVER_MAX_PROPOSALS", -1)
    assert case_digest(CASES[case_id]) == GOLDEN[case_id]


@pytest.mark.parametrize("case_id", ARRAY_RESOLVER)
def test_row_settle_reproduces_its_recorded_trace(case_id, monkeypatch):
    monkeypatch.setattr(engine, "_PER_PAIR_SETTLE_MAX_MATCHES", -1)
    assert case_digest(CASES[case_id]) == GOLDEN[case_id]


def test_each_class_shares_one_recorded_digest():
    grouped = defaultdict(list)
    for case_id, kwargs in CASES.items():
        grouped[class_key(kwargs)].append(case_id)
    assert (len(grouped), sum(len(ids) > 1 for ids in grouped.values())) \
        == (143, 111)
    failures = [
        diverged(f"{ids[0]} vs {other}", CASES[ids[0]], CASES[other])
        for ids in grouped.values()
        for other in ids[1:]
        if GOLDEN[other] != GOLDEN[ids[0]]
    ]
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("row", list(VARIANTS))
def test_variant_reproduces_its_base(row):
    bases, overrides, pinned = VARIANTS[row]
    first_of_class: dict[tuple, tuple] = {}
    failures = []
    for base in bases:
        variant = {**CASES[base], **overrides}
        digest = case_digest(variant)
        expected = (CASES[base], GOLDEN[base]) if pinned else \
            first_of_class.setdefault(class_key(variant), (variant, digest))
        if digest != expected[1]:
            failures.append(diverged(f"{row}: {base}", expected[0], variant))
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {case_id: case_digest(kwargs) for case_id, kwargs in CASES.items()},
        indent=0, sort_keys=True,
    ) + "\n")
    print(f"recorded {len(CASES)} cases into {GOLDEN_PATH}")
