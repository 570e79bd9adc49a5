"""Frozen user-facing surfaces: what a run description turns into.

``tests/golden/engine_traces.json`` pins the engines; this corpus pins
the layers *above* them — the road from a spec, a builder chain or a
command line to a run — so a refactor of ``cli.py`` / ``api.py`` /
``experiments/specs.py`` / the registry has bytes to answer to:

* ``epsilon`` — ``execute_run`` records of ε-gossip on a 16-node
  expander over ε × seed × ``engine.termination_every``;
* ``parser`` — every subcommand's options as data (option strings,
  default, choices, required, type), not as ``--help`` text, whose
  wrapping differs between Python versions;
* ``stdout`` — four CLI invocations, byte for byte;
* ``figure1_epsilon`` — the records of Figure 1's three ε cells
  (``examples/specs/figures/figure1.json``);
* ``experiment_hashes`` — ``SweepSpec.spec_hash()`` and every run hash
  of ``Experiment(...).sweep(...)`` with and without each ``with_*``.

Recorded from the repo root with ``PYTHONPATH=src python
tests/test_surfaces.py``; re-record only when a surface is *meant* to
move.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

import pytest

from repro import Experiment
from repro.cli import build_parser, main
from repro.experiments import SweepSpec, execute_run
from repro.experiments.specs import run_hash

GOLDEN_PATH = Path(__file__).parent / "golden" / "surfaces.json"
FIGURE1_PATH = (Path(__file__).resolve().parent.parent
                / "examples/specs/figures/figure1.json")

#: Keys a record may carry beyond its recording: since ε-gossip runs on
#: the standard path its records report drops like every other record.
ADDITIVE_RECORD_KEYS = {"dropped_connections"}

EPSILON_CASES = {
    f"eps={epsilon}/seed={seed}/every={every}": {
        "algorithm": "epsilon",
        "graph": {"family": "expander",
                  "params": {"n": 16, "degree": 4, "seed": 1}},
        "instance": {"kind": "everyone"},
        "config": {"epsilon": epsilon},
        "engine": {"termination_every": every},
        "seed": seed,
        "max_rounds": 50_000,
    }
    for epsilon in (0.5, 0.75)
    for seed in (1, 2, 3, 11)
    for every in (1, 4, 48)
}

CLI_COMMANDS = {
    "list": ["list"],
    "run": ["run", "--algorithm", "sharedbit", "--n", "16", "--k", "2",
            "--fault", "sleep", "--timing", "jitter", "--seed", "3"],
    "compare": ["compare", "--n", "12", "--k", "1"],
    "scenario": ["scenario", "--name", "subway"],
}


def _experiment():
    return (
        Experiment("sharedbit")
        .on_graph("expander", n=12, degree=4, seed=1)
        .with_instance("uniform", k=2)
        .rounds(30_000)
    )


#: Builder chains whose sweeps are hashed: the bare chain, then one
#: ``with_*`` at a time (null kinds included — they must stay absent
#: from the payload), then all of them together.
EXPERIMENT_CHAINS = {
    "bare": lambda e: e,
    "fault": lambda e: e.with_fault("sleep", period=4, duty=2),
    "fault_none": lambda e: e.with_fault("none"),
    "timing": lambda e: e.with_timing("jitter", jitter=0.5),
    "timing_synchronous": lambda e: e.with_timing("synchronous"),
    "config": lambda e: e.with_config("practical", group_offset=3),
    "engine": lambda e: e.with_engine(trace_sample_every=64,
                                      gauges=["coverage"]),
    "telemetry": lambda e: e.with_telemetry(),
    "telemetry_off": lambda e: e.with_telemetry().with_telemetry(False),
    "dynamics": lambda e: e.with_dynamics("relabeling", tau=2),
    "all": lambda e: (
        e.with_timing("bursty").with_telemetry(stream="spans.jsonl")
        .with_engine(termination_every=4).with_config(group_offset=1)
        .with_fault("churn", cycle=32).seeded(5)
    ),
}


def epsilon_records() -> dict:
    return {case: execute_run(dict(payload))
            for case, payload in EPSILON_CASES.items()}


def parser_surface() -> dict:
    """``{subcommand: {dest: [option strings, default, choices,
    required, type name]}}`` for every subcommand."""
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        command: {
            action.dest: [
                list(action.option_strings),
                action.default,
                None if action.choices is None else list(action.choices),
                action.required,
                None if action.type is None else action.type.__name__,
            ]
            for action in parser._actions
            if action.dest != "help"
        }
        for command, parser in subparsers.choices.items()
    }


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def figure1_epsilon_cells() -> list:
    """Run payloads of the ε row of the Figure 1 spec."""
    sweep = SweepSpec.from_json(FIGURE1_PATH.read_text())
    return [
        payload for _, point, _, payload in sweep.runs()
        if point["algorithm"] == "epsilon"
    ]


def experiment_hashes(name: str) -> dict:
    sweep = (
        EXPERIMENT_CHAINS[name](_experiment()).sweep(f"surface-{name}")
        .vary("instance.k", [1, 2]).seeds(11, 23).spec()
    )
    return {
        "spec_hash": sweep.spec_hash(),
        "run_hashes": [run_hash(payload)
                       for _, _, _, payload in sweep.runs()],
    }


def record_surfaces() -> dict:
    return {
        "epsilon": epsilon_records(),
        "parser": parser_surface(),
        "stdout": {name: cli_stdout(argv)
                   for name, argv in CLI_COMMANDS.items()},
        "figure1_epsilon": [execute_run(payload)
                            for payload in figure1_epsilon_cells()],
        "experiment_hashes": {name: experiment_hashes(name)
                              for name in EXPERIMENT_CHAINS},
    }


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def assert_record_reproduced(record: dict, recorded: dict) -> None:
    assert {key: record.get(key) for key in recorded} == recorded
    assert set(record) - set(recorded) <= ADDITIVE_RECORD_KEYS


@pytest.mark.parametrize("case", list(EPSILON_CASES))
def test_epsilon_record_reproduced(case):
    assert_record_reproduced(
        execute_run(dict(EPSILON_CASES[case])), GOLDEN["epsilon"][case]
    )


def test_parser_surface_reproduced():
    surface = json.loads(json.dumps(parser_surface()))
    assert sorted(surface) == sorted(GOLDEN["parser"])
    for command, options in GOLDEN["parser"].items():
        assert surface[command] == options, command


@pytest.mark.parametrize("name", list(CLI_COMMANDS))
def test_cli_stdout_reproduced(name):
    assert cli_stdout(CLI_COMMANDS[name]) == GOLDEN["stdout"][name]


def test_figure1_epsilon_cells_reproduced():
    cells = figure1_epsilon_cells()
    assert len(cells) == len(GOLDEN["figure1_epsilon"]) == 3
    for payload, recorded in zip(cells, GOLDEN["figure1_epsilon"]):
        assert_record_reproduced(execute_run(payload), recorded)


@pytest.mark.parametrize("name", list(EXPERIMENT_CHAINS))
def test_experiment_hashes_reproduced(name):
    assert experiment_hashes(name) == GOLDEN["experiment_hashes"][name]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(record_surfaces(), indent=1, sort_keys=True) + "\n"
    )
    print(f"recorded surfaces into {GOLDEN_PATH}")
