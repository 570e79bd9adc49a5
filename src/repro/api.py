"""The documented entry point: a fluent builder over the registry.

:class:`Experiment` assembles a :class:`~repro.experiments.specs.RunSpec`
step by step, validating every name against :mod:`repro.registry` at call
time (so typos fail at the line that made them, with the registered set
in the message), and either runs it directly or widens it into a
:class:`~repro.experiments.specs.SweepSpec` via :meth:`Experiment.sweep`.

Quickstart::

    from repro import Experiment

    record = (
        Experiment("sharedbit")
        .on_graph("expander", n=32, degree=4, seed=1)
        .with_instance("uniform", k=4)
        .seeded(7)
        .rounds(20_000)
        .run()
    )
    print(record["rounds"], record["solved"])

    result = (
        Experiment("sharedbit")
        .on_graph("cycle", n=16)
        .sweep("k-scaling")
        .vary("instance.k", [1, 2, 4])
        .seeds(11, 23, 37)
        .run(jobs=4)
    )
    print(result.table())

Everything the builder produces is an ordinary spec object: call
:meth:`Experiment.run_spec` / :meth:`SweepBuilder.spec` to get the
JSON-able artifact and drop down to :mod:`repro.experiments` directly.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.experiments.runner import execute_run, run_sweep
from repro.experiments.specs import RunSpec, SweepSpec, _deep_copy_jsonable
from repro.registry import (
    ALGORITHM_REGISTRY,
    DYNAMICS_REGISTRY,
    FAULT_REGISTRY,
    INSTANCE_REGISTRY,
    TIMING_REGISTRY,
    TOPOLOGY_REGISTRY,
    TRANSPORT_REGISTRY,
)

__all__ = ["Experiment", "SweepBuilder"]


#: The key order of every payload the builder emits, whatever order the
#: ``with_*`` calls came in (``SweepSpec.to_json`` shows it).
_PAYLOAD_ORDER = ("algorithm", "graph", "dynamic", "instance", "max_rounds",
                  "fault", "timing", "config", "engine", "telemetry")


class Experiment:
    """Fluent builder for one gossip execution.

    Every ``with_*``/``on_graph`` call validates its name against the
    registry immediately, edits the one run payload the builder holds,
    and returns ``self`` for chaining.  Optional blocks (fault, timing,
    config, engine, telemetry) stay absent until set to something other
    than their null value, so an unset block never moves a spec hash.
    """

    def __init__(self, algorithm: str):
        ALGORITHM_REGISTRY.get(algorithm)
        self._seed = 0
        self._payload: dict = {
            "algorithm": algorithm,
            "dynamic": {"kind": "static"},
            "instance": {"kind": "uniform", "k": 1},
            "max_rounds": 200_000,
        }

    def _set(self, key: str, block, null: bool = False) -> "Experiment":
        """Store ``block`` under ``key`` — or drop the key when the block
        is the ``null`` one, which an absent key already means."""
        if null:
            self._payload.pop(key, None)
        else:
            self._payload[key] = block
        return self

    def on_graph(self, family: str, **params) -> "Experiment":
        """Choose the topology family and its parameters."""
        TOPOLOGY_REGISTRY.get(family)
        return self._set("graph", {"family": family, "params": params})

    def with_dynamics(self, kind: str, **params) -> "Experiment":
        """Choose how the topology evolves (default: static)."""
        DYNAMICS_REGISTRY.get(kind)
        return self._set("dynamic", {"kind": kind, **params})

    def with_instance(self, kind: str, **params) -> "Experiment":
        """Choose the initial token assignment (default: uniform, k=1)."""
        INSTANCE_REGISTRY.get(kind)
        return self._set("instance", {"kind": kind, **params})

    def with_fault(self, kind: str, **params) -> "Experiment":
        """Choose the fault regime degrading the run (default: none)."""
        FAULT_REGISTRY.get(kind)
        return self._set("fault", {"kind": kind, **params},
                         null=kind == "none")

    def with_timing(self, kind: str, **params) -> "Experiment":
        """Choose the timing regime scheduling per-node cycles
        (default: synchronous — the paper's lock-step rounds)."""
        TIMING_REGISTRY.get(kind)
        return self._set("timing", {"kind": kind, **params},
                         null=kind == "synchronous")

    def with_config(self, preset: str | None = None, **fields) -> "Experiment":
        """Set algorithm-config preset and/or field overrides."""
        config: dict = {}
        if preset is not None:
            config["preset"] = preset
        config.update(fields)
        return self._set("config", config, null=not config)

    def with_engine(self, **fields) -> "Experiment":
        """Set engine knobs (trace_sample_every, gauges, ...)."""
        return self._set("engine", dict(fields), null=not fields)

    def with_telemetry(self, enabled: bool = True,
                       stream=None) -> "Experiment":
        """Turn on metrics + phase profiling (:mod:`repro.telemetry`).

        The run record gains a ``"profile"`` phase table; ``stream``
        (a path) additionally appends one JSON line per closed span.
        Telemetry draws zero randomness, so results are byte-identical
        with it on or off.  ``with_telemetry(False)`` reverts to the
        default no-op bundle.
        """
        spec: dict = {"enabled": True}
        if stream is not None:
            spec["stream"] = str(stream)
        return self._set("telemetry", spec, null=not enabled)

    def seeded(self, seed: int) -> "Experiment":
        self._seed = seed
        return self

    def rounds(self, max_rounds: int) -> "Experiment":
        return self._set("max_rounds", max_rounds)

    def _base_payload(self) -> dict:
        if "graph" not in self._payload:
            raise ConfigurationError(
                "no graph chosen; call .on_graph(family, **params) first"
            )
        return {
            key: _deep_copy_jsonable(self._payload[key])
            for key in _PAYLOAD_ORDER if key in self._payload
        }

    def run_spec(self) -> RunSpec:
        """The validated, JSON-able spec this builder describes."""
        return RunSpec.from_payload(dict(self._base_payload(),
                                         seed=self._seed))

    def run(self) -> dict:
        """Execute the run and return its JSON-able record."""
        return execute_run(self.run_spec())

    def deploy(self, transport: str = "tcp", chaos: bool = False, **opts):
        """Run this experiment as a *live* cluster of peer servers.

        The same builder settings (graph, dynamics, instance, fault,
        seed, max rounds) boot real socket-backed peers through the
        named transport (see ``TRANSPORT_REGISTRY``; ``"tcp"`` is
        :mod:`repro.net`'s loopback deployment) and return the
        transport's run report.  Timing models are simulator-only and
        are rejected — a live cluster's asynchrony is physical.

        The ``with_fault()`` schedule is masked logically, or with
        ``chaos=True`` enacted **physically** — peers actually killed,
        asleep or interdicted (:class:`~repro.net.chaos.FaultPlan`).
        """
        defn = TRANSPORT_REGISTRY.get(transport)
        if "timing" in self._payload:
            raise ConfigurationError(
                "deploy() cannot apply a simulated timing model; live "
                "clusters are asynchronous by nature — drop with_timing()"
            )
        run = self.run_spec().materialize()
        del run["timing"], run["telemetry"]  # simulator-only notions
        fault, config = run.pop("fault"), run.pop("config")
        if fault is not None:
            opts.setdefault("fault", fault)
        if config is not None:
            opts.setdefault("config", config)
        return defn.build(**run, chaos=chaos, **opts)

    def sweep(self, name: str) -> "SweepBuilder":
        """Widen into a sweep; the current settings become its base."""
        return SweepBuilder(name, self._base_payload())


class SweepBuilder:
    """Fluent builder for a :class:`SweepSpec` (made by Experiment.sweep)."""

    def __init__(self, name: str, base: dict):
        self._name = name
        self._base = base
        self._grid: dict = {}
        self._seeds: tuple = (11, 23, 37)
        self._overrides: list = []

    def vary(self, axis: str, values) -> "SweepBuilder":
        """Add a dotted-key grid axis (e.g. ``"instance.k", [1, 2, 4]``)."""
        self._grid[axis] = list(values)
        return self

    def seeds(self, *seeds: int) -> "SweepBuilder":
        self._seeds = tuple(seeds)
        return self

    def override(self, set: dict, when: dict | None = None) -> "SweepBuilder":
        """Add a declarative per-cell patch (dotted keys, like SweepSpec)."""
        entry: dict = {"set": dict(set)}
        if when is not None:
            entry["when"] = dict(when)
        self._overrides.append(entry)
        return self

    def spec(self) -> SweepSpec:
        """The validated, JSON-able sweep spec."""
        return SweepSpec(
            name=self._name,
            base=_deep_copy_jsonable(self._base),
            grid=_deep_copy_jsonable(self._grid),
            seeds=self._seeds,
            overrides=_deep_copy_jsonable(self._overrides),
        )

    def run(self, jobs: int = 1, cache_dir=None, progress=None, plugins=()):
        """Execute the sweep (see :func:`repro.experiments.run_sweep`)."""
        return run_sweep(
            self.spec(),
            jobs=jobs,
            cache_dir=cache_dir,
            progress=progress,
            plugins=plugins,
        )
