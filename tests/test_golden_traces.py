"""Frozen golden-trace corpus: the engines reproduce recorded bytes.

The differential gates (tests/test_fastpath.py) prove the engine paths
agree with *each other*; they cannot see a change that moves every path
the same way.  This corpus pins each path to a recording instead:
``tests/golden/engine_traces.json`` maps a case id to
``sha256(repr(run_case(...)))`` — every sampled trace record, every
running total, the final round and the end state — over

* the round engine: {ppush, blindmatch, sharedbit} × {static, relabeling,
  geometric} × all four acceptance rules × {object, array}; the four
  fault regimes under ``uniform``; ``acceptance_streams="local"`` under
  the three proposee-side rules;
* the event engine: {sharedbit, blindmatch} × {static, geometric} ×
  {synchronous, jitter, heterogeneous, bursty} × four fault regimes ×
  {scalar hooks, window hooks on the object front half, window hooks on
  the array front half};
* hook-less populations on the event engine's scalar hooks: {multibit,
  simsharedbit} × {static, geometric} × the four timings × {none,
  churn} (MultiBit's ``propose`` reads neighbour tags, SimSharedBit's
  reads private coins — neither has window hooks).

The JSON is a recording, not an expectation to maintain: an engine
refactor must pass it unmodified.  Only a change that *deliberately*
moves random draws (a new stream format) re-records it, by running this
file as a script from the repo root: ``PYTHONPATH=src python
tests/test_golden_traces.py``.
"""

import hashlib
import json
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
    run_case,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine_traces.json"

#: Populations without ``make_window_hooks``: the event engine can only
#: carry them on their scalar ``advertise`` / ``propose`` hooks.
CHECK_SCALAR_HOOK_ALGORITHMS = ("multibit", "simsharedbit")


def golden_cases() -> dict[str, dict]:
    """Case id -> ``run_case`` keyword arguments, in recording order."""
    cases: dict[str, dict] = {}

    def add(prefix: str, algorithm, dynamics, acceptance, engine_mode,
            **extra) -> None:
        parts = [prefix, algorithm, dynamics, acceptance, engine_mode]
        parts += [str(value) for value in extra.values()]
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
                for acceptance in CHECK_ACCEPTANCES[:3]:
                    add("local", algorithm, dynamics, acceptance,
                        engine_mode, acceptance_streams="local")
    for algorithm in CHECK_ASYNC_ALGORITHMS:
        for dynamics in CHECK_ASYNC_DYNAMICS:
            for timing in ("synchronous",) + CHECK_TIMINGS:
                for fault in CHECK_FAULTS:
                    for async_mode, engine_mode in (
                        ("event", "object"),
                        ("batched", "object"),
                        ("batched", "array"),
                    ):
                        add("async", algorithm, dynamics, "uniform",
                            engine_mode, timing=timing, fault=fault,
                            async_mode=async_mode)
    for algorithm in CHECK_SCALAR_HOOK_ALGORITHMS:
        for dynamics in CHECK_ASYNC_DYNAMICS:
            for timing in ("synchronous",) + CHECK_TIMINGS:
                for fault in ("none", "churn"):
                    add("async", algorithm, dynamics, "uniform", "object",
                        timing=timing, fault=fault, async_mode="event")
    return cases


def case_digest(kwargs: dict) -> str:
    return hashlib.sha256(repr(run_case(**kwargs)).encode()).hexdigest()


CASES = golden_cases()
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_corpus_covers_exactly_the_case_matrix():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case_id", list(CASES))
def test_case_reproduces_its_recorded_trace(case_id):
    assert case_digest(CASES[case_id]) == GOLDEN[case_id]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {case_id: case_digest(kwargs) for case_id, kwargs in CASES.items()},
        indent=0, sort_keys=True,
    ) + "\n")
    print(f"recorded {len(CASES)} cases into {GOLDEN_PATH}")
