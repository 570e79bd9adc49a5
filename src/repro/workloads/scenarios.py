"""Concrete (dynamic graph, instance, fault regime, timing regime)
quadruples for the paper's motivating settings.

The clean scenarios model the paper's idealized crowd; the faulty
variants (``subway``, ``protest_lossy``, ``festival_nightfall``) add the
degradation those settings actually exhibit — churn, lossy links,
duty-cycled radios — through the fault layer (:mod:`repro.sim.faults`);
the asynchronous variants (``commute_mixed_devices``,
``stadium_desync``) drop the lock-step round assumption through the
asynchrony layer (:mod:`repro.asynchrony`), so the same algorithms run
under every combination of regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asynchrony.timing import (
    GilbertElliottPauses,
    HeterogeneousRates,
    TimingModel,
)
from repro.core.problem import GossipInstance, uniform_instance, skewed_instance
from repro.errors import ConfigurationError
from repro.graphs.dynamic import (
    DynamicGraph,
    GeometricMobilityGraph,
    PeriodicRewireGraph,
    StaticDynamicGraph,
)
from repro.graphs.topologies import expander, grid
from repro.registry import SCENARIO_REGISTRY, register_scenario
from repro.sim.faults import CrashChurn, FaultModel, LossyLinks, SleepCycle

__all__ = [
    "Scenario",
    "protest_scenario",
    "festival_scenario",
    "disaster_scenario",
    "rural_mesh_scenario",
    "live_smoke_scenario",
    "subway_scenario",
    "protest_lossy_scenario",
    "festival_nightfall_scenario",
    "commute_mixed_devices_scenario",
    "stadium_desync_scenario",
]


@dataclass(frozen=True)
class Scenario:
    """A named workload: topology dynamics, a token assignment, an
    optional fault regime, and an optional timing regime (``None`` =
    the paper's clean, lock-step model)."""

    name: str
    description: str
    dynamic_graph: DynamicGraph
    instance: GossipInstance
    recommended_algorithm: str
    fault: FaultModel | None = None
    timing: TimingModel | None = None


def _scenario(name: str, **fields) -> Scenario:
    """The :class:`Scenario` registered as ``name``: its name and
    description are read from the registration, where they are written."""
    defn = SCENARIO_REGISTRY.get(name)
    return Scenario(name=defn.name, description=defn.description, **fields)


@register_scenario(
    name="protest",
    description="mobile crowd, censored infrastructure, few sources",
)
def protest_scenario(n: int = 40, k: int = 5, seed: int = 0,
                     tau: int = 4) -> Scenario:
    """A moving crowd under censored infrastructure.

    Phones drift through a square (random-waypoint mobility); a handful of
    organizers hold messages to spread.  The topology changes every ``tau``
    rounds, so the τ ≥ 1 algorithms apply; SimSharedBit is the recommended
    choice because no shared-randomness service can be assumed.
    """
    if n < 8:
        raise ConfigurationError(f"protest needs n >= 8, got {n}")
    graph = GeometricMobilityGraph(
        n=n, radius=0.35, step=0.05, tau=tau, seed=seed
    )
    instance = uniform_instance(n=n, k=k, seed=seed)
    return _scenario(
        "protest",
        dynamic_graph=graph,
        instance=instance,
        recommended_algorithm="simsharedbit",
    )


@register_scenario(
    name="festival",
    description="dense stable mesh, no infrastructure, several sources",
)
def festival_scenario(n: int = 48, k: int = 8, seed: int = 0) -> Scenario:
    """A dense, mostly-stationary festival crowd (Burning Man, far from towers).

    Stable, well-connected topology — the τ = ∞, large-α regime where
    CrowdedBin's O((k/α)·polylog) shines.
    """
    topo = expander(n=n, degree=6, seed=seed)
    instance = uniform_instance(n=n, k=k, seed=seed)
    return _scenario(
        "festival",
        dynamic_graph=StaticDynamicGraph(topo),
        instance=instance,
        recommended_algorithm="crowdedbin",
    )


@register_scenario(
    name="disaster",
    description="sparse grid mesh, one staging source with k messages",
)
def disaster_scenario(n: int = 36, k: int = 3, seed: int = 0) -> Scenario:
    """Post-disaster relay: sparse, elongated topology, few working phones.

    A grid-like street layout with low expansion; messages originate at a
    single staging node (multiple tokens per holder exercises the paper's
    multi-token allowance).
    """
    cols = max(n // 4, 2)
    rows = max(n // cols, 2)
    topo = grid(rows=rows, cols=cols)
    actual_n = topo.n
    instance = skewed_instance(n=actual_n, k=k, seed=seed, holders=1)
    return _scenario(
        "disaster",
        dynamic_graph=StaticDynamicGraph(topo),
        instance=instance,
        recommended_algorithm="sharedbit",
    )


@register_scenario(
    name="rural_mesh",
    description="periodically rewired mesh, cellular-data-free gossip",
)
def rural_mesh_scenario(n: int = 32, k: int = 4, seed: int = 0,
                        tau: int = 8) -> Scenario:
    """Data-budget conservation: periodic rewiring as phones come and go.

    Moderate density, topology resampled every τ rounds — the general
    τ ≥ 1 setting with α and Δ known per epoch.
    """
    graph = PeriodicRewireGraph.resampled_gnp(n=n, p=0.2, tau=tau, seed=seed)
    instance = uniform_instance(n=n, k=k, seed=seed)
    return _scenario(
        "rural_mesh",
        dynamic_graph=graph,
        instance=instance,
        recommended_algorithm="sharedbit",
    )


@register_scenario(
    name="subway",
    description="commuter churn: riders board and alight mid-gossip, "
                "phones crash and rejoin",
)
def subway_scenario(n: int = 36, k: int = 4, seed: int = 0,
                    tau: int = 3) -> Scenario:
    """A subway platform at rush hour.

    A moving crowd (random-waypoint mobility, bridged into connectivity)
    whose members keep leaving and arriving: every few dozen rounds a
    fraction of the phones drop out for a stretch — a rider stepping onto
    a train, a phone dying in a pocket — and rejoin with their tokens
    intact.  The first scenario built on the fault layer's churn model.
    """
    if n < 8:
        raise ConfigurationError(f"subway needs n >= 8, got {n}")
    graph = GeometricMobilityGraph(
        n=n, radius=0.35, step=0.06, tau=tau, seed=seed
    )
    instance = uniform_instance(n=n, k=k, seed=seed)
    return _scenario(
        "subway",
        dynamic_graph=graph,
        instance=instance,
        recommended_algorithm="sharedbit",
        fault=CrashChurn(n=n, seed=seed, cycle=48, crash_prob=0.25,
                         min_outage=6, max_outage=18),
    )


@register_scenario(
    name="protest_lossy",
    description="the protest crowd under interference: connections "
                "fail after acceptance",
)
def protest_lossy_scenario(n: int = 40, k: int = 5, seed: int = 0,
                           tau: int = 4,
                           drop_prob: float = 0.25) -> Scenario:
    """The protest workload with a hostile RF environment.

    Same mobility and token assignment as :func:`protest_scenario`, but a
    quarter of accepted connections fail before any data moves — jammed
    or congested spectrum at street level.
    """
    clean = protest_scenario(n=n, k=k, seed=seed, tau=tau)
    return _scenario(
        "protest_lossy",
        dynamic_graph=clean.dynamic_graph,
        instance=clean.instance,
        recommended_algorithm=clean.recommended_algorithm,
        fault=LossyLinks(n=n, seed=seed, drop_prob=drop_prob),
    )


@register_scenario(
    name="festival_nightfall",
    description="the festival mesh on overnight battery rations: "
                "duty-cycled radios",
)
def festival_nightfall_scenario(n: int = 48, k: int = 8, seed: int = 0,
                                period: int = 8,
                                duty: int = 5) -> Scenario:
    """The festival workload after dark, phones conserving battery.

    Same stable expander and sources as :func:`festival_scenario`, but
    every phone sleeps its radio ``period - duty`` of every ``period``
    rounds on a staggered schedule.  The stable-topology assumption still
    holds (τ = ∞ — the *graph* never changes; the fault layer masks who
    is awake on it), but the effective per-round degree shrinks, so the
    recommendation moves to SharedBit, which tolerates sparse rounds.
    """
    clean = festival_scenario(n=n, k=k, seed=seed)
    return _scenario(
        "festival_nightfall",
        dynamic_graph=clean.dynamic_graph,
        instance=clean.instance,
        recommended_algorithm="sharedbit",
        fault=SleepCycle(n=n, seed=seed, period=period, duty=duty),
    )


@register_scenario(
    name="live_smoke",
    description="small stable expander sized for a loopback live "
                "deployment (repro-gossip serve / repro.net)",
)
def live_smoke_scenario(n: int = 8, k: int = 2, seed: int = 0) -> Scenario:
    """The live layer's smoke workload: real sockets, tiny cluster.

    A stable degree-4 expander small enough that a laptop can run one
    OS thread per peer server comfortably; SharedBit is recommended
    because its in-process shared randomness makes the replay bridge's
    equivalence assertion cover the subtlest protocol (PRF tags plus
    shared selection indices) at no extra cost.
    """
    if n < 6:
        raise ConfigurationError(f"live_smoke needs n >= 6, got {n}")
    topo = expander(n=n, degree=4, seed=seed)
    instance = uniform_instance(n=n, k=k, seed=seed)
    return _scenario(
        "live_smoke",
        dynamic_graph=StaticDynamicGraph(topo),
        instance=instance,
        recommended_algorithm="sharedbit",
    )


@register_scenario(
    name="commute_mixed_devices",
    description="rush-hour commuters with mismatched phones: slow and "
                "fast device classes on unsynchronized clocks",
)
def commute_mixed_devices_scenario(n: int = 36, k: int = 4, seed: int = 0,
                                   tau: int = 4) -> Scenario:
    """A commuting crowd whose phones disagree about time.

    The same random-waypoint mobility as the protest workload, but run
    asynchronously: device classes scan at 0.6x, 1x, and 1.5x the
    nominal rate (old handsets with throttled BLE stacks next to
    flagships), each with its own phase.  Advertisements are read stale
    and no two phones share a round boundary — the asynchronous mobile
    telephone model of Newport–Weaver–Zheng.  The first scenario built
    on the asynchrony layer's heterogeneous-rate clocks.
    """
    if n < 8:
        raise ConfigurationError(
            f"commute_mixed_devices needs n >= 8, got {n}"
        )
    graph = GeometricMobilityGraph(
        n=n, radius=0.35, step=0.05, tau=tau, seed=seed
    )
    instance = uniform_instance(n=n, k=k, seed=seed)
    return _scenario(
        "commute_mixed_devices",
        dynamic_graph=graph,
        instance=instance,
        recommended_algorithm="sharedbit",
        timing=HeterogeneousRates(n=n, seed=seed, rates=(0.6, 1.0, 1.5)),
    )


@register_scenario(
    name="stadium_desync",
    description="a stadium crowd on desynced, stalling clocks and "
                "battery-saving radios: bursty timing + sleep cycling",
)
def stadium_desync_scenario(n: int = 48, k: int = 6, seed: int = 0,
                            period: int = 8, duty: int = 6) -> Scenario:
    """A stadium crowd streaming out after the final whistle.

    A dense stable mesh, but nothing is synchronized: the OS backgrounds
    the gossip app unpredictably (Gilbert–Elliott bursty pauses — most
    cycles fire on time, occasional multi-round stalls), *and* phones
    duty-cycle their radios to save battery.  Demonstrates the
    asynchrony layer composing with the fault layer: the timing model
    decides when a phone's cycles fire, the sleep cycle masks which of
    those cycles participate.
    """
    topo = expander(n=n, degree=6, seed=seed)
    instance = uniform_instance(n=n, k=k, seed=seed)
    return _scenario(
        "stadium_desync",
        dynamic_graph=StaticDynamicGraph(topo),
        instance=instance,
        recommended_algorithm="sharedbit",
        fault=SleepCycle(n=n, seed=seed, period=period, duty=duty),
        timing=GilbertElliottPauses(n=n, seed=seed, p_pause=0.08,
                                    p_resume=0.6, pause_scale=2.5),
    )
