"""The one extension surface: registries of first-class definition objects.

Everything runnable in this repo — gossip algorithms, topology families,
dynamic-graph kinds, instance kinds, fault regimes, timing regimes,
motivating scenarios, and deployment transports — is a
:class:`Definition` registered here and resolved *by name*
from every layer: :func:`repro.core.runner.run_gossip`, the declarative
specs in :mod:`repro.experiments`, and the ``repro-gossip`` CLI.  The
paper's model is deliberately open-ended (follow-up work swaps in new
gossip processes and connectivity regimes on the same round structure),
and the registry is how that openness survives in code: adding an
algorithm is one registration in one file, not parallel edits to four
dispatch tables.

Model requirements live in the declaration, not in scattered checks:
``AlgorithmDef.requires_stable_topology`` is the single statement of
CrowdedBin's τ = ∞ assumption — ``run_gossip`` enforces it, the sweep
normalization pass substitutes for it, and ``repro-gossip list`` prints
it, all from the same field.  ``AlgorithmDef.goal`` is the single
statement of what "solved" means when it is not plain gossip (§7's
ε-gossip is SharedBit's nodes run toward a weaker goal).

A spec value becomes an object here too: :meth:`Registry.build` is the
one "strip ``kind``, call the definition, report bad params" block and
:meth:`Registry.resolve` the one "``None``, name, dict or built model"
decision (behind ``build_fault`` and ``build_timing``).

Third-party extension needs no edits to repro itself::

    # my_plugin.py — an out-of-tree algorithm
    from repro.registry import register_algorithm
    from repro.core.sharedbit import SharedBitConfig, SharedBitNode
    from repro.rng import SharedRandomness

    @register_algorithm(
        name="my_gossip",
        description="SharedBit with my twist",
        config_class=SharedBitConfig,
        tag_length=1,
    )
    def build_my_gossip(ctx):
        shared = SharedRandomness(
            ctx.tree.key("shared-string"), ctx.instance.upper_n
        )
        transfer = ctx.transfer_protocol()  # one per population
        return {
            v: SharedBitNode(shared=shared, config=ctx.config,
                             transfer=transfer, **ctx.common(v))
            for v in ctx.vertices()
        }

then ``repro-gossip --plugin my_plugin.py run --algorithm my_gossip ...``
or ``import my_plugin`` before using the Python API.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import importlib.util
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigurationError

__all__ = [
    "Definition",
    "AlgorithmDef",
    "TopologyDef",
    "DynamicsDef",
    "NodeBuildContext",
    "Registry",
    "RegistryNames",
    "ALGORITHM_REGISTRY",
    "TOPOLOGY_REGISTRY",
    "DYNAMICS_REGISTRY",
    "INSTANCE_REGISTRY",
    "SCENARIO_REGISTRY",
    "FAULT_REGISTRY",
    "TIMING_REGISTRY",
    "TRANSPORT_REGISTRY",
    "register_algorithm",
    "register_topology",
    "register_dynamics",
    "register_instance",
    "register_scenario",
    "register_fault",
    "register_timing",
    "register_transport",
    "ensure_builtins",
    "load_plugin",
]


@dataclass
class NodeBuildContext:
    """What an algorithm's node builder gets to work with.

    ``instance`` is the :class:`~repro.core.problem.GossipInstance`,
    ``tree`` the run's root :class:`~repro.rng.SeedTree` (derive shared
    objects from named child streams so adding a consumer never perturbs
    existing ones), and ``config`` the already-resolved algorithm config
    (never ``None`` when the definition has a ``config_class``).
    """

    instance: Any
    tree: Any
    config: Any

    def vertices(self) -> range:
        return range(self.instance.n)

    def transfer_protocol(self, config=None):
        """The one Transfer(ε) machine a builder hands to every node of
        the population (``config`` defaults to the algorithm's own; it
        supplies ``transfer_epsilon``)."""
        from repro.commcplx.transfer import TransferProtocol

        upper_n = self.instance.upper_n
        config = self.config if config is None else config
        return TransferProtocol(upper_n, config.transfer_epsilon(upper_n))

    def common(self, vertex: int) -> dict:
        """The constructor kwargs every :class:`GossipNode` shares.

        The private stream is a :class:`~repro.rng.LazyStream`: draw-
        for-draw identical to ``tree.stream("node", uid)`` but not
        materialized until first use — array-path runs of bulk-hook
        algorithms never touch per-node streams, and at n = 10^6 the
        eager Mersenne states alone would cost ~2.5 GB.
        """
        uid = self.instance.uid_of(vertex)
        return {
            "uid": uid,
            "upper_n": self.instance.upper_n,
            "initial_tokens": self.instance.tokens_for(vertex),
            "rng": self.tree.lazy_stream("node", uid),
        }


@dataclass(frozen=True)
class Definition:
    """One registered thing: its name, a one-line description, and the
    callable that builds it.  What ``build`` takes and returns depends on
    the kind — see the table beside the registries below."""

    name: str
    description: str
    build: Callable[..., Any]


@dataclass(frozen=True)
class AlgorithmDef(Definition):
    """A gossip algorithm, declared once.

    ``tag_length`` is the advertising-bit count ``b`` — an int, or a
    callable on the config for algorithms whose ``b`` is a tunable
    (MultiBit).  ``requires_stable_topology`` is the declarative home of
    τ = ∞ model assumptions (CrowdedBin): ``run_gossip`` rejects, sweeps
    substitute-and-note, the CLI prints it.  ``goal(instance, config)``
    returns the run's termination condition (and rejects instances the
    goal is not defined on); ``None`` is plain gossip — every node holds
    all k tokens.  A condition with a ``report(nodes) -> dict`` method
    adds those keys to the run record (ε-gossip's ``core_size``).
    Goal-carrying algorithms run everywhere a name is accepted but stay
    out of the ``ALGORITHMS`` view, which means "solves plain gossip".
    ``token_list_stage3`` says Stage 3 reads and changes the responder
    only through its token list (``known_tokens``/``token``/
    ``store_token``) — all a live server pulls and pushes over the wire;
    algorithms whose ``interact`` reads other responder state
    (SimSharedBit's election, CrowdedBin's pushed tags) declare False,
    the live coordinator refuses them, and the CLI prints it.
    """

    config_class: type | None = None
    tag_length: int | Callable[[Any], int] = 1
    requires_stable_topology: bool = False
    token_list_stage3: bool = True
    goal: Callable[[Any, Any], Callable] | None = None

    def make_config(self):
        return self.config_class() if self.config_class is not None else None

    def resolve_tag_length(self, config) -> int:
        if callable(self.tag_length):
            return self.tag_length(config)
        return self.tag_length

    @property
    def tag_length_label(self) -> str:
        return "cfg" if callable(self.tag_length) else str(self.tag_length)

    @property
    def model_label(self) -> str:
        return "tau=inf" if self.requires_stable_topology else "tau>=1"


@dataclass(frozen=True)
class TopologyDef(Definition):
    """A named static topology family.

    ``from_size(n, seed) -> params`` is the optional CLI convention: a
    family that knows how to size itself from a single ``--n`` appears as
    a ``--graph`` choice.

    ``build_dynamic(**params)`` is the optional scale path: it returns a
    ready :class:`~repro.graphs.dynamic.DynamicGraph` directly — no
    ``nx`` Topology, no connectivity check — for families that certify
    connectivity by construction (``ring_expander``).  The experiments
    layer uses it for ``static`` dynamics, and for any dynamics kind
    declaring ``topology_free`` (which only needs the size); other
    kinds still go through ``build``.
    """

    from_size: Callable[[int, int], dict] | None = None
    build_dynamic: Callable[..., Any] | None = None


@dataclass(frozen=True)
class DynamicsDef(Definition):
    """A dynamic-graph kind: how a topology evolves over rounds.

    ``topology_free=True`` declares that ``build`` reads nothing but
    ``topology.n`` — the experiments layer may then hand it a size-only
    shim instead of materializing a million-node ``nx`` graph it would
    ignore (geometric mobility, resampled families).
    """

    topology_free: bool = False


class Registry:
    """Name -> definition, with duplicate protection and enumerated errors.

    ``definition`` is the kind's :class:`Definition` class;
    :meth:`decorator` registers one around the decorated function.
    """

    def __init__(self, kind: str, plural: str, definition=Definition):
        self.kind = kind
        self.plural = plural
        self.definition = definition
        self._keywords = frozenset(
            f.name for f in dataclasses.fields(definition)
        ) - {"build"}
        self._defs: dict[str, Any] = {}

    def register(self, defn):
        """Add a definition; duplicate names are an error, never a shadow.

        A definition built outside the builtin modules loads the builtins
        first, so a name shadowing a not-yet-imported builtin fails here
        and not in every later lookup.  (Builtin modules must not: that
        would import every builtin module from ``import repro``.)
        """
        name = defn.name
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"a {self.kind} definition needs a non-empty name string, "
                f"got {name!r}"
            )
        if getattr(defn.build, "__module__", None) not in _BUILTIN_MODULES:
            ensure_builtins()
        if name in self._defs:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered"
            )
        self._defs[name] = defn
        return defn

    def decorator(self, **fields):
        """``@decorator(name=..., description=..., **extras)`` registers
        a definition whose ``build`` is the decorated function and hands
        the function back unchanged.  A keyword that is not a field of
        this kind's definition is a :class:`ConfigurationError`."""
        unknown = sorted(set(fields) - self._keywords)
        if unknown:
            raise ConfigurationError(
                f"a {self.kind} definition has no field {unknown[0]!r}; "
                f"its fields are {', '.join(sorted(self._keywords))}"
            )

        def decorate(fn):
            self.register(self.definition(build=fn, **fields))
            return fn

        return decorate

    def find(self, name):
        """The definition, or ``None`` — never raises on unknown names
        (a name that is not a string is unknown, not a ``TypeError``)."""
        ensure_builtins()
        return self._defs.get(name) if isinstance(name, str) else None

    def get(self, name):
        """The definition; unknown names raise with the registered set."""
        defn = self.find(name)
        if defn is None:
            known = ", ".join(sorted(self._defs)) or "(none)"
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered {self.plural}: "
                f"{known}"
            )
        return defn

    def names(self) -> tuple:
        """Registered names in registration order."""
        ensure_builtins()
        return tuple(self._defs)

    def values(self) -> tuple:
        ensure_builtins()
        return tuple(self._defs.values())

    def invoke(self, name, field: str, *args, params: Mapping):
        """Call ``field(*args, **params)`` of definition ``name``;
        parameters it does not take are a :class:`ConfigurationError`
        naming it."""
        defn = self.get(name)
        try:
            return getattr(defn, field)(*args, **params)
        except TypeError as exc:
            raise ConfigurationError(
                f"bad params for {self.kind} {defn.name!r}: {exc}"
            ) from exc

    def build(self, spec: Mapping, *args, default=None):
        """``build(*args, **params)`` of the definition a
        ``{"kind": name, **params}`` spec names (``default`` is the kind
        when the key is absent)."""
        params = dict(spec)
        return self.invoke(params.pop("kind", default), "build", *args,
                           params=params)

    def resolve(self, model, *args, default: str):
        """The model for ``None``, a registered name, a ``{"kind": ...,
        **params}`` dict (both built with leading ``args``) or a built
        model.  The null model — ``None``, kind ``default``, ``is_null``
        set — comes back as ``None``, ready to hand to an engine."""
        if model is None:
            return None
        if isinstance(model, str):
            model = {"kind": model}
        if isinstance(model, Mapping):
            model = self.build(model, *args, default=default)
        return None if model.is_null else model


class RegistryNames(Sequence):
    """A live, ordered view of the names of a registry's definitions
    that satisfy ``predicate`` (``ALGORITHMS``: the plain-gossip ones).

    Indexing, iteration, ``in``, and ``len`` all reflect the registry
    *now*, so third-party registrations appear without any edit to the
    modules exporting the view (the CLI's ``--plugin`` choices).
    """

    def __init__(self, registry: Registry, predicate):
        self._registry = registry
        self._predicate = predicate

    def _names(self) -> tuple:
        return tuple(
            defn.name
            for defn in self._registry.values()
            if self._predicate(defn)
        )

    def __getitem__(self, index):
        return self._names()[index]

    def __len__(self) -> int:
        return len(self._names())

    def __iter__(self):
        return iter(self._names())

    def __repr__(self) -> str:
        return repr(self._names())


# What each kind's ``build`` takes and returns:
#
# algorithm        build(ctx: NodeBuildContext) -> {vertex: node}, one
#                  protocol object per vertex.
# topology family  build(**params) -> graphs.topologies.Topology.
# dynamics kind    build(topology, seed, **params) -> graphs.dynamic.
#                  DynamicGraph.  Kinds that resample their own shapes
#                  each epoch still receive the built topology and read
#                  ``topology.n`` from it, so every spec names its size
#                  the same way.
# instance kind    An initial token-assignment recipe: build(n, seed,
#                  **params) -> core.problem.GossipInstance (``n`` comes
#                  from the built graph).
# scenario         A motivating workload: build(seed=..., **kw) ->
#                  workloads.scenarios.Scenario.
# fault model      A fault regime, how the clean model degrades during a
#                  run: build(n, seed, **params) -> sim.faults.FaultModel
#                  bound to the run's population size and seed (the model
#                  derives its own ("faults", kind) streams from the seed,
#                  so fault draws never perturb engine or node streams).
# timing model     A timing regime, when each node's local scan/connect
#                  cycle fires: build(n, seed, **params) ->
#                  asynchrony.timing.TimingModel bound to the run's
#                  population size and seed (the model derives its own
#                  ("async", kind) streams from the seed, so clock jitter
#                  never perturbs engine, fault, or node streams).  The
#                  null model ("synchronous") is the paper's lock-step
#                  round structure and runs on the round engine itself.
# transport        A deployment transport, how a cluster of live peer
#                  servers runs the registered protocols over real message
#                  passing: build(scenario_or_spec, **opts) boots a
#                  cluster (e.g. loopback TCP peer servers, repro.net),
#                  drives the round loop, and returns the transport's run
#                  report.  The simulator never calls this; it is the
#                  execution target for ``repro-gossip serve``,
#                  ``Experiment.deploy()``, and the replay bridge.
ALGORITHM_REGISTRY = Registry("algorithm", "algorithms", AlgorithmDef)
TOPOLOGY_REGISTRY = Registry("topology family", "topology families",
                             TopologyDef)
DYNAMICS_REGISTRY = Registry("dynamics kind", "dynamics kinds", DynamicsDef)
INSTANCE_REGISTRY = Registry("instance kind", "instance kinds")
SCENARIO_REGISTRY = Registry("scenario", "scenarios")
FAULT_REGISTRY = Registry("fault model", "fault models")
TIMING_REGISTRY = Registry("timing model", "timing models")
TRANSPORT_REGISTRY = Registry("transport", "transports")

register_algorithm = ALGORITHM_REGISTRY.decorator
register_topology = TOPOLOGY_REGISTRY.decorator
register_dynamics = DYNAMICS_REGISTRY.decorator
register_instance = INSTANCE_REGISTRY.decorator
register_scenario = SCENARIO_REGISTRY.decorator
register_fault = FAULT_REGISTRY.decorator
register_timing = TIMING_REGISTRY.decorator
register_transport = TRANSPORT_REGISTRY.decorator


#: Modules whose import registers the built-in definitions.  Algorithm
#: order here fixes the display/grid order of the name views (the paper's
#: Figure 1 order, then MultiBit — our b ≥ 1 generalization — then the
#: single-rumor PPUSH primitive from §6).
_BUILTIN_MODULES = (
    "repro.graphs.topologies",
    "repro.graphs.dynamic",
    "repro.sim.faults",
    "repro.asynchrony.timing",
    "repro.core.problem",
    "repro.core.blindmatch",
    "repro.core.sharedbit",
    "repro.core.simsharedbit",
    "repro.core.crowdedbin",
    "repro.core.multibit",
    "repro.core.epsilon",
    "repro.core.ppush",
    "repro.workloads.scenarios",
    "repro.net.coordinator",
)

_builtins_loaded = False
_builtins_loading = False


def ensure_builtins() -> None:
    """Import every module that registers built-in definitions (once).

    Normal package imports do this implicitly; the guard exists so that
    resolving names works even when only ``repro.registry`` was imported.
    A separate in-progress flag stops recursion from registration calls
    made during those imports; the loaded flag is only set after every
    import succeeded, so a failed import surfaces again on the next
    lookup instead of leaving the registries half-empty for good.
    """
    global _builtins_loaded, _builtins_loading
    if _builtins_loaded or _builtins_loading:
        return
    _builtins_loading = True
    try:
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)
    finally:
        _builtins_loading = False
    _builtins_loaded = True


def load_plugin(spec: str):
    """Import a plugin module that registers out-of-tree definitions.

    ``spec`` is either an importable module name or a path to a ``.py``
    file.  File plugins are loaded under a stable synthetic module name
    derived from their resolved path, so loading the same file twice
    (e.g. two CLI invocations in one process) is a no-op rather than a
    duplicate registration.
    """
    path = Path(spec)
    if path.suffix == ".py":
        if not path.exists():
            raise ConfigurationError(f"plugin file {spec!r} does not exist")
        resolved = str(path.resolve())
        digest = hashlib.sha1(resolved.encode()).hexdigest()[:8]
        module_name = f"repro_plugin_{path.stem}_{digest}"
        if module_name in sys.modules:
            return sys.modules[module_name]
        module_spec = importlib.util.spec_from_file_location(
            module_name, resolved
        )
        if module_spec is None or module_spec.loader is None:
            raise ConfigurationError(f"cannot load plugin file {spec!r}")
        module = importlib.util.module_from_spec(module_spec)
        sys.modules[module_name] = module
        try:
            module_spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[module_name]
            raise
        return module
    try:
        return importlib.import_module(spec)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import plugin module {spec!r}: {exc}"
        ) from exc
