"""Declarative experiment specs: what to run, serialized as plain JSON.

A :class:`RunSpec` names one execution completely — algorithm, graph
family, dynamic-graph recipe, instance recipe, seed, round budget, config
overrides — using only JSON-able values, so a run is reproducible from its
spec alone and a spec can cross a process boundary without pickling any
simulator object (workers rebuild graphs and instances locally).

A :class:`SweepSpec` is a named family of runs: a ``base`` run-spec dict,
a ``grid`` of dotted-key parameter axes expanded as a cartesian product,
declarative ``overrides`` for per-cell adjustments (e.g. CrowdedBin's
τ = ∞ requirement), and the seeds averaged per grid point.  Both layers
round-trip through JSON, and :func:`run_hash` / :meth:`SweepSpec.spec_hash`
give stable content hashes used as cache keys.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import os
from dataclasses import dataclass, field

from repro.asynchrony.timing import build_timing
from repro.core.problem import GossipInstance
from repro.core.runner import coverage_gauge, potential_gauge
from repro.errors import ConfigurationError
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.topologies import _MAX_N, Topology
from repro.registry import (
    ALGORITHM_REGISTRY,
    DYNAMICS_REGISTRY,
    FAULT_REGISTRY,
    INSTANCE_REGISTRY,
    TIMING_REGISTRY,
    TOPOLOGY_REGISTRY,
)
from repro.sim.faults import build_fault

__all__ = [
    "RunSpec",
    "SweepSpec",
    "build_config",
    "build_dynamic_graph",
    "build_fault",
    "build_instance",
    "build_timing",
    "build_topology",
    "canonical_json",
    "run_hash",
]

_ENGINE_KEYS = frozenset(
    {"trace_sample_every", "trace_max_records", "termination_every",
     "gauge_every", "gauges"}
)

#: ``engine.gauges`` names: ``token_ids -> gauge`` factories.
NAMED_GAUGES = {"coverage": coverage_gauge, "potential": potential_gauge}

_TELEMETRY_KEYS = frozenset({"enabled", "stream"})

#: A floor on what one vertex costs a run, in bytes.  A built run holds
#: about 1 KiB per vertex (BlindMatch and SharedBit on ``ring_expander``
#: at n = 2·10^5, two rounds: 0.9–1.1 KiB of peak RSS each), so a size
#: whose floor already exceeds physical memory cannot run.
VERTEX_BYTES_FLOOR = 256


@functools.cache
def physical_memory() -> int | None:
    """This machine's physical memory in bytes, None where the platform
    does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_size_fits(n) -> None:
    """Refuse a vertex count whose footprint floor exceeds physical
    memory, before anything is allocated: such a run would end in a raw
    ``MemoryError``, or page until it is killed.  A count past int64
    vertex ids is left to the topology, whose refusal names that."""
    limit = physical_memory()
    if type(n) is not int or n > _MAX_N or limit is None:
        return
    need = n * VERTEX_BYTES_FLOOR
    if need > limit:
        raise ConfigurationError(
            f"graph.params.n={n} needs at least {need / 2**30:,.1f} GiB "
            f"({VERTEX_BYTES_FLOOR} B per vertex), more than the "
            f"{limit / 2**30:,.1f} GiB of physical memory here"
        )


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_hash(payload) -> str:
    """Stable content hash of a run payload (the result-cache key)."""
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    return f"run-{digest[:20]}"


def _set_dotted(target: dict, dotted: str, value) -> None:
    """Assign ``value`` at a dotted path, creating nested dicts on the way."""
    keys = dotted.split(".")
    for key in keys[:-1]:
        node = target.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigurationError(
                f"cannot descend into {key!r} of {dotted!r}: not a mapping"
            )
        target = node
    target[keys[-1]] = value


def _get_dotted(source: dict, dotted: str, default=None):
    node = source
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def _deep_copy_jsonable(value):
    """Copy a JSON-able structure (dicts/lists/scalars) without pickling."""
    if isinstance(value, dict):
        return {k: _deep_copy_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_deep_copy_jsonable(v) for v in value]
    return value


@dataclass
class RunSpec:
    """One fully-specified execution, built from JSON-able parts only.

    ``graph``    — ``{"family": <TOPOLOGY_REGISTRY name>, "params": {...}}``
    ``dynamic``  — ``{"kind": "static"}``,
                   ``{"kind": "relabeling", "tau": t}``,
                   ``{"kind": "resampled_regular", "tau": t, "degree": d}`` or
                   ``{"kind": "resampled_gnp", "tau": t, "p": p}``
    ``instance`` — ``{"kind": "uniform", "k": k[, "upper_n": N]}``,
                   ``{"kind": "everyone"}``,
                   ``{"kind": "skewed", "k": k, "holders": h}`` or
                   ``{"kind": "token_at", "vertex": v}``
    ``fault``    — ``{"kind": "none"}`` (the clean model, default),
                   ``{"kind": "sleep", "period": p, "duty": d}``,
                   ``{"kind": "churn", "cycle": c, "crash_prob": q, ...}`` or
                   ``{"kind": "lossy", "drop_prob": q}`` — the fault regime
                   degrading the run (sweepable like any dotted key, e.g.
                   ``{"fault.duty": [2, 4, 6]}``)
    ``timing``   — ``{"kind": "synchronous"}`` (the paper's lock-step
                   rounds, default), ``{"kind": "jitter", "jitter": j}``,
                   ``{"kind": "heterogeneous", "rates": [...]}`` or
                   ``{"kind": "bursty", "p_pause": p, ...}`` — the timing
                   regime scheduling per-node cycles (sweepable, e.g.
                   ``{"timing.jitter": [0.0, 0.5, 0.9]}``)
    ``config``   — algorithm-config overrides; an optional ``"preset"`` key
                   selects a classmethod preset (``paper`` / ``practical``)
                   before field overrides apply (ε-gossip's ``epsilon``
                   is a config field like any other).
    ``engine``   — ``trace_sample_every`` / ``trace_max_records`` /
                   ``termination_every`` / ``gauge_every`` / ``gauges``
                   (named gauges, e.g. ``["coverage"]``, serialized into
                   the run result).
    ``telemetry``— ``{"enabled": true[, "stream": path]}`` turns on
                   metrics + phase profiling (:mod:`repro.telemetry`);
                   the run record gains a ``"profile"`` phase table.
                   ``None`` (the default) is the no-op bundle and leaves
                   the run byte-identical — telemetry draws zero
                   randomness, so it never shifts results.
    """

    algorithm: str
    graph: dict
    seed: int
    max_rounds: int
    dynamic: dict = field(default_factory=lambda: {"kind": "static"})
    instance: dict = field(default_factory=lambda: {"kind": "uniform", "k": 1})
    fault: dict = field(default_factory=lambda: {"kind": "none"})
    timing: dict = field(default_factory=lambda: {"kind": "synchronous"})
    config: dict | None = None
    engine: dict = field(default_factory=dict)
    telemetry: dict | None = None

    def __post_init__(self):
        # Shapes first, as direct type tests (this runs once per expanded
        # sweep cell), then eager name resolution: a malformed spec
        # fails here, naming the key or enumerating what *is*
        # registered, before any dispatch.
        for key, block in (
            ("graph", self.graph), ("dynamic", self.dynamic),
            ("instance", self.instance), ("fault", self.fault),
            ("timing", self.timing), ("engine", self.engine),
        ):
            if not isinstance(block, dict):
                raise _wrong_type(key, "a mapping", block)
        if self.config is not None and not isinstance(self.config, dict):
            raise _wrong_type("config", "a mapping or null", self.config)
        if type(self.seed) is not int:
            raise _wrong_type("seed", "an integer", self.seed)
        if type(self.max_rounds) is not int:
            raise _wrong_type("max_rounds", "an integer", self.max_rounds)
        ALGORITHM_REGISTRY.get(self.algorithm)
        TOPOLOGY_REGISTRY.get(self.graph.get("family"))
        DYNAMICS_REGISTRY.get(self.dynamic.get("kind", "static"))
        INSTANCE_REGISTRY.get(self.instance.get("kind", "uniform"))
        FAULT_REGISTRY.get(self.fault.get("kind", "none"))
        TIMING_REGISTRY.get(self.timing.get("kind", "synchronous"))
        if self.max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {self.max_rounds}"
            )
        params = self.graph.get("params")
        if isinstance(params, dict):
            check_size_fits(params.get("n"))
        if self.engine:
            unknown = set(self.engine) - _ENGINE_KEYS
            if unknown:
                raise ConfigurationError(
                    f"unknown engine keys {sorted(unknown)}; legal keys are "
                    f"{sorted(_ENGINE_KEYS)}"
                )
            for key, value in self.engine.items():
                if key == "gauges":
                    expected = f"a list of names from {sorted(NAMED_GAUGES)}"
                    ok = isinstance(value, (list, tuple)) and all(
                        isinstance(name, str) and name in NAMED_GAUGES
                        for name in value
                    )
                else:
                    # Every other knob is a count; only the record bound
                    # may be null (unbounded).
                    expected = "an integer >= 1"
                    ok = (type(value) is int and value >= 1) or (
                        value is None and key == "trace_max_records"
                    )
                if not ok:
                    raise _wrong_type(f"engine.{key}", expected, value)
        if self.telemetry is not None:
            if not isinstance(self.telemetry, dict):
                raise ConfigurationError(
                    "telemetry must be a spec dict "
                    f"({{'enabled': ..., 'stream': ...}}); got "
                    f"{type(self.telemetry).__name__}"
                )
            unknown = set(self.telemetry) - _TELEMETRY_KEYS
            if unknown:
                raise ConfigurationError(
                    f"unknown telemetry keys {sorted(unknown)}; legal keys "
                    f"are {sorted(_TELEMETRY_KEYS)}"
                )
            # open() takes an integer as a file descriptor: a stream
            # that is not a path would write into whatever owns it.
            stream = self.telemetry.get("stream")
            if stream is not None and not isinstance(stream, str):
                raise _wrong_type("telemetry.stream", "a path string", stream)

    def materialize(self) -> dict:
        """:func:`~repro.core.runner.run_gossip`'s keyword arguments for
        this spec — the one place a run description becomes objects.

        Builds the dynamic graph, the instance (sized by the graph), the
        config, and the fault and timing models (``None`` for the null
        kinds); ``telemetry`` passes through as its spec dict.  Engine
        knobs are not here: each caller states its own strides.
        """
        dynamic_graph = build_dynamic_graph(self.graph, self.dynamic,
                                            self.seed)
        n = dynamic_graph.n
        return {
            "algorithm": self.algorithm,
            "dynamic_graph": dynamic_graph,
            "instance": build_instance(self.instance, n, self.seed),
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "config": build_config(self.algorithm, self.config),
            "fault": build_fault(self.fault, n, self.seed),
            "timing": build_timing(self.timing, n, self.seed),
            "telemetry": self.telemetry,
        }

    def to_payload(self) -> dict:
        """The JSON-able dict form (what workers and the cache see)."""
        return {
            "algorithm": self.algorithm,
            "graph": _deep_copy_jsonable(self.graph),
            "dynamic": _deep_copy_jsonable(self.dynamic),
            "instance": _deep_copy_jsonable(self.instance),
            "fault": _deep_copy_jsonable(self.fault),
            "timing": _deep_copy_jsonable(self.timing),
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "config": _deep_copy_jsonable(self.config),
            "engine": _deep_copy_jsonable(self.engine),
            "telemetry": _deep_copy_jsonable(self.telemetry),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RunSpec":
        unknown = set(payload) - _RUN_SPEC_KEYS
        if unknown:
            raise ConfigurationError(f"unknown run-spec keys {sorted(unknown)}")
        missing = _RUN_SPEC_REQUIRED - set(payload)
        if missing:
            raise ConfigurationError(
                f"run spec is missing required keys {sorted(missing)}"
            )
        return cls(**_deep_copy_jsonable(payload))

    def spec_hash(self) -> str:
        return run_hash(self.to_payload())


_RUN_SPEC_KEYS = frozenset(f.name for f in dataclasses.fields(RunSpec))
_RUN_SPEC_REQUIRED = frozenset({"algorithm", "graph", "seed", "max_rounds"})


def _wrong_type(key: str, expected: str, value) -> ConfigurationError:
    return ConfigurationError(
        f"run-spec key {key!r} must be {expected}, got {value!r}"
    )


def build_topology(graph_spec: dict) -> Topology:
    """Instantiate the named topology family from its params dict."""
    return TOPOLOGY_REGISTRY.invoke(
        graph_spec.get("family"), "build",
        params=graph_spec.get("params", {}),
    )


@dataclass(frozen=True)
class _SizeOnlyTopology:
    """Stand-in passed to topology-free dynamics builders.

    Dynamics kinds flagged ``topology_free`` (resampled families,
    geometric mobility) read nothing but ``topology.n`` — they generate
    their own graphs.  At n = 10^6 materializing the nx topology they
    would ignore costs minutes and gigabytes, so the builder gets this
    shim instead whenever the graph params carry an explicit size.
    """

    n: int


def build_dynamic_graph(
    graph_spec: dict, dynamic_spec: dict, seed: int
) -> DynamicGraph:
    """Build the dynamic graph a run spec describes.

    Two scale bypasses sit in front of the general
    ``build_topology`` → ``defn.build`` path, both behavior-preserving:

    - a family with a ``build_dynamic`` hook (``ring_expander``) builds
      its :class:`DynamicGraph` directly for static runs — no nx graph,
      no redundant connectivity check;
    - a ``topology_free`` dynamics kind gets a size-only shim when the
      graph params name ``n``, skipping the nx topology it would ignore.
    """
    defn = DYNAMICS_REGISTRY.get(dynamic_spec.get("kind", "static"))
    family = TOPOLOGY_REGISTRY.get(graph_spec.get("family"))
    graph_params = graph_spec.get("params", {})
    if family.build_dynamic is not None and defn.name == "static":
        return TOPOLOGY_REGISTRY.invoke(
            family.name, "build_dynamic", params=graph_params
        )
    if (defn.topology_free and isinstance(graph_params, dict)
            and isinstance(graph_params.get("n"), int)):
        topo = _SizeOnlyTopology(n=graph_params["n"])
    else:
        topo = build_topology(graph_spec)
    return DYNAMICS_REGISTRY.build(dynamic_spec, topo, seed,
                                   default="static")


def build_instance(instance_spec: dict, n: int, seed: int) -> GossipInstance:
    """Build the gossip instance a run spec describes (n from the graph)."""
    return INSTANCE_REGISTRY.build(instance_spec, n, seed, default="uniform")


def build_config(algorithm: str, config_spec: dict | None):
    """Materialize an algorithm config from preset name + field overrides."""
    defn = ALGORITHM_REGISTRY.get(algorithm)
    if config_spec is None:
        return None
    spec = dict(config_spec)
    cls = defn.config_class
    if cls is None:
        if spec:
            raise ConfigurationError(
                f"algorithm {algorithm!r} takes no config; got keys "
                f"{sorted(spec)}"
            )
        return None
    preset = spec.pop("preset", None)
    if preset is not None:
        # Presets are the config class's classmethods (paper, practical).
        if not isinstance(preset, str) or not isinstance(
            inspect.getattr_static(cls, preset, None), classmethod
        ):
            raise ConfigurationError(
                f"config class {cls.__name__} has no preset {preset!r}"
            )
        base = getattr(cls, preset)()
    else:
        base = cls()
    if not spec:
        return base
    try:
        return dataclasses.replace(base, **spec)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad config overrides for {cls.__name__}: {exc}"
        ) from exc


@dataclass
class SweepSpec:
    """A named, serializable family of runs.

    ``base``      — a :class:`RunSpec`-shaped dict without ``seed``;
    ``grid``      — dotted-key axes (``{"instance.k": [1, 2, 4]}``) expanded
                    as a cartesian product in declaration order;
    ``seeds``     — seeds run (and aggregated over) per grid point;
    ``overrides`` — declarative per-cell patches: each entry's ``when``
                    dotted-key conditions are matched against the expanded
                    run, and on a match its ``set`` patches apply.  This is
                    how a sweep over algorithms states "CrowdedBin rows run
                    static with the practical preset" inside the spec.
    """

    name: str
    base: dict
    grid: dict = field(default_factory=dict)
    seeds: tuple = (11, 23, 37)
    overrides: list = field(default_factory=list)

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("a sweep needs a name")
        self.seeds = tuple(self.seeds)
        if not self.seeds:
            raise ConfigurationError("a sweep needs at least one seed")
        if "seed" in self.base or "seed" in self.grid:
            raise ConfigurationError(
                "seeds belong in SweepSpec.seeds, not base/grid"
            )
        for axis, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"grid axis {axis!r} must be a non-empty list"
                )
        for entry in self.overrides:
            if not isinstance(entry, dict) or "set" not in entry:
                raise ConfigurationError(
                    "each override must be a dict with a 'set' mapping "
                    "(and an optional 'when' mapping)"
                )
            # Overrides apply after the per-seed assignment; letting one
            # assign "seed" would silently collapse every seed of a cell
            # onto the same run.
            if any(
                dotted == "seed" or dotted.startswith("seed.")
                for dotted in entry["set"]
            ):
                raise ConfigurationError(
                    "overrides must not set 'seed'; seeds belong in "
                    "SweepSpec.seeds"
                )

    @property
    def axes(self) -> tuple:
        return tuple(self.grid)

    def points(self) -> list[dict]:
        """Grid cells in deterministic (declaration) order."""
        if not self.grid:
            return [{}]
        axes = list(self.grid)
        return [
            dict(zip(axes, combo))
            for combo in itertools.product(*(self.grid[a] for a in axes))
        ]

    def run_payload(self, point: dict, seed: int) -> dict:
        """The fully-merged run payload for one grid cell and seed."""
        payload = _deep_copy_jsonable(self.base)
        for dotted, value in point.items():
            _set_dotted(payload, dotted, _deep_copy_jsonable(value))
        payload["seed"] = seed
        for entry in self.overrides:
            when = entry.get("when", {})
            if all(
                _get_dotted(payload, dotted) == expected
                for dotted, expected in when.items()
            ):
                for dotted, value in entry["set"].items():
                    _set_dotted(payload, dotted, _deep_copy_jsonable(value))
        # Validate eagerly so malformed cells fail before dispatch.
        RunSpec.from_payload(payload)
        return payload

    def runs(self) -> list[tuple[int, dict, int, dict]]:
        """All (point_index, point, seed, run_payload) in sweep order."""
        out = []
        for index, point in enumerate(self.points()):
            for seed in self.seeds:
                out.append((index, point, seed, self.run_payload(point, seed)))
        return out

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "base": _deep_copy_jsonable(self.base),
            "grid": _deep_copy_jsonable(self.grid),
            "seeds": list(self.seeds),
            "overrides": _deep_copy_jsonable(self.overrides),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent)

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepSpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise ConfigurationError(
                f"unknown sweep-spec keys {sorted(unknown)}"
            )
        return cls(**_deep_copy_jsonable(payload))

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        return cls.from_payload(json.loads(text))

    def spec_hash(self) -> str:
        """Content hash of the whole sweep (reports embed it)."""
        digest = hashlib.sha256(
            canonical_json(self.to_payload()).encode()
        ).hexdigest()
        return f"sweep-{digest[:20]}"
