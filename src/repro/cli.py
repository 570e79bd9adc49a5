"""Command-line experiment runner.

Examples::

    repro-gossip run --algorithm sharedbit --n 32 --k 4 --graph expander
    repro-gossip scenario --name festival
    repro-gossip compare --n 24 --k 3
    repro-gossip sweep --spec examples/specs/tiny.json --jobs 4
    repro-gossip list
    repro-gossip --plugin my_plugin.py run --algorithm my_gossip --n 16
    python -m repro.cli run --algorithm blindmatch --n 16 --k 2 --graph star

Every choice list (algorithms, graph families, scenarios) is derived from
:mod:`repro.registry`, so ``--plugin`` files that register out-of-tree
definitions extend the CLI without any edit here.  ``--plugin`` is a
top-level flag and must precede the subcommand.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.tables import render_table
from repro.core.runner import ALGORITHMS, run_gossip
from repro.errors import ConfigurationError
from repro.experiments import (
    RunSpec,
    SweepSpec,
    build_dynamic_graph,
    run_sweep,
)
from repro.registry import (
    ALGORITHM_REGISTRY,
    DYNAMICS_REGISTRY,
    FAULT_REGISTRY,
    INSTANCE_REGISTRY,
    SCENARIO_REGISTRY,
    TIMING_REGISTRY,
    TOPOLOGY_REGISTRY,
    TRANSPORT_REGISTRY,
    load_plugin,
)

__all__ = ["main"]


def _sized_graph_choices() -> tuple:
    """Families usable via a bare ``--n`` (those declaring ``from_size``)."""
    return tuple(
        defn.name
        for defn in TOPOLOGY_REGISTRY.values()
        if defn.from_size is not None
    )


def _graph_spec(name: str, n: int, seed: int) -> dict:
    """The experiments-layer graph spec matching this CLI's conventions."""
    defn = TOPOLOGY_REGISTRY.get(name)
    if defn.from_size is None:
        raise ConfigurationError(
            f"topology family {name!r} declares no --n sizing rule; "
            f"choose from {sorted(_sized_graph_choices())}"
        )
    return {"family": name, "params": defn.from_size(n, seed)}


def _run_spec(args, algorithm=None) -> RunSpec:
    """The run a subcommand's shared flags describe (``--graph --n --k
    --tau --seed --max-rounds``, plus ``--algorithm`` / ``--fault`` /
    ``--timing`` / ``--profile`` where the subcommand has them)."""
    if args.tau == 0:  # 0 encodes tau = infinity on the command line
        dynamic = {"kind": "static"}
    else:
        dynamic = {"kind": "relabeling", "tau": args.tau}
    return RunSpec(
        algorithm=algorithm or args.algorithm,
        graph=_graph_spec(args.graph, args.n, args.seed),
        dynamic=dynamic,
        instance={"kind": "uniform", "k": args.k},
        seed=args.seed,
        max_rounds=args.max_rounds,
        fault={"kind": getattr(args, "fault", None) or "none"},
        timing={"kind": getattr(args, "timing", "synchronous")},
        telemetry={"enabled": True} if getattr(args, "profile", False)
        else None,
    )


def _cmd_run(args) -> int:
    result = run_gossip(**_run_spec(args).materialize())
    status = "solved" if result.solved else "NOT solved (round limit)"
    fault_label = "" if args.fault == "none" else f", fault={args.fault}"
    timing_label = (
        "" if args.timing == "synchronous" else f", timing={args.timing}"
    )
    print(
        f"{args.algorithm} on {args.graph} (n={result.instance.n}, "
        f"k={args.k}, tau={'inf' if args.tau == 0 else args.tau}"
        f"{fault_label}{timing_label}): {result.rounds} rounds, {status}"
    )
    print(
        f"connections={result.trace.total_connections} "
        f"tokens_moved={result.trace.total_tokens_moved} "
        f"control_bits={result.trace.total_control_bits}"
        + (
            f" dropped_connections="
            f"{result.trace.total_dropped_connections}"
            if args.fault != "none" else ""
        )
        + (
            f" events={int(result.event_counts.sum())}"
            if result.event_counts is not None else ""
        )
    )
    if args.profile:
        from repro.sim.engine import settled_connections
        from repro.telemetry import render_phase_table

        print(render_phase_table(result.profile))
        print(
            f"settled_connections="
            f"{settled_connections(result.telemetry.metrics)} of "
            f"{result.trace.total_connections} connections"
        )
    return 0 if result.solved else 1


def _cmd_scenario(args) -> int:
    scenario = SCENARIO_REGISTRY.get(args.name).build(seed=args.seed)
    result = run_gossip(
        algorithm=args.algorithm or scenario.recommended_algorithm,
        dynamic_graph=scenario.dynamic_graph,
        instance=scenario.instance,
        seed=args.seed,
        max_rounds=args.max_rounds,
        fault=scenario.fault,
        timing=scenario.timing,
    )
    status = "solved" if result.solved else "NOT solved (round limit)"
    print(f"scenario {scenario.name}: {scenario.description}")
    if scenario.fault is not None:
        print(
            f"fault regime: {scenario.fault!r} "
            f"(dropped_connections="
            f"{result.trace.total_dropped_connections})"
        )
    if scenario.timing is not None and result.event_counts is not None:
        print(
            f"timing regime: {scenario.timing!r} "
            f"(events={int(result.event_counts.sum())})"
        )
    print(
        f"{result.algorithm}: {result.rounds} rounds, {status} "
        f"(n={scenario.instance.n}, k={scenario.instance.k})"
    )
    return 0 if result.solved else 1


def _cmd_compare(args) -> int:
    # PPUSH is single-rumor only; it joins the comparison when k = 1.
    algorithms = [a for a in ALGORITHMS if a != "ppush" or args.k == 1]
    base = _run_spec(args, algorithm=algorithms[0]).to_payload()
    del base["seed"]  # a sweep carries its seeds itself
    sweep = SweepSpec(
        name=f"compare-{args.graph}-n{args.n}-k{args.k}",
        base=base,
        grid={"algorithm": algorithms},
        seeds=(args.seed,),
    )
    result = run_sweep(sweep, jobs=args.jobs, plugins=args.plugin)
    rows = []
    for summary in result.points:
        # A τ = ∞ substitution is recorded in the run notes; surface it
        # so side-by-side numbers aren't silently apples/oranges.
        substituted = bool(summary.notes)
        tau = "inf" if args.tau == 0 or substituted else args.tau
        median = summary.median_rounds
        rows.append(
            (
                summary.point["algorithm"],
                tau,
                int(median) if median == int(median) else median,
                "yes" if summary.all_solved else "no",
                "; ".join(summary.notes) or "-",
            )
        )
    print(
        render_table(
            headers=("algorithm", "tau", "rounds", "solved", "notes"),
            rows=rows,
            title=f"gossip comparison: {args.graph}, n={args.n}, k={args.k}",
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    spec_text = Path(args.spec).read_text()
    sweep = SweepSpec.from_json(spec_text)
    progress = print if args.verbose else None
    result = run_sweep(
        sweep,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        progress=progress,
        plugins=args.plugin,
    )
    print(result.table())
    if args.cache_dir:
        print(
            f"cache: {result.cache_hits} hits, "
            f"{result.cache_misses} misses ({args.cache_dir})"
        )
    if args.out:
        Path(args.out).write_text(result.to_json(indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0 if all(summary.all_solved for summary in result.points) else 1


def _cmd_list(args) -> int:
    """Print every registered definition with its one-line description."""

    def algorithm_tags(defn) -> str:
        # The markers say ``run --algorithm`` will not offer this one
        # (its goal is not plain gossip), or ``serve`` will refuse it.
        marker = "[experiments-layer only] " if defn.goal is not None else ""
        if not defn.token_list_stage3:
            marker += "[no live serve] "
        return f"b={defn.tag_length_label:<3} {defn.model_label:<8} {marker}"

    def topology_tags(defn) -> str:
        return "[--graph choice] " if defn.from_size is not None else ""

    # (registry, name column width, what a row says before the description)
    sections = (
        (ALGORITHM_REGISTRY, 14, algorithm_tags),
        (TOPOLOGY_REGISTRY, 14, topology_tags),
        (DYNAMICS_REGISTRY, 18, None),
        (INSTANCE_REGISTRY, 10, None),
        (FAULT_REGISTRY, 8, None),
        (TIMING_REGISTRY, 14, None),
        (SCENARIO_REGISTRY, 18, None),
        (TRANSPORT_REGISTRY, 8, None),
    )
    for registry, width, tags in sections:
        print(f"{registry.plural}:")
        for defn in registry.values():
            print(f"  {defn.name:<{width}} {tags(defn) if tags else ''}"
                  f"{defn.description}")
        print()
    return 0


def _cmd_serve(args) -> int:
    """Deploy a live cluster through a registered transport."""
    defn = TRANSPORT_REGISTRY.get(args.transport)
    opts = {}
    # Bare --chaos enacts the scenario's (or --fault's) schedule
    # physically, --chaos KIND is --fault KIND enacted, and --chaos none
    # masks the schedule as if --chaos were absent.
    fault = args.fault
    if args.chaos not in (None, "auto", "none"):
        if fault not in (None, "none", args.chaos):
            raise ConfigurationError(
                f"--chaos {args.chaos} names the schedule to enact; it "
                f"cannot also be --fault {fault} (use a bare --chaos)"
            )
        fault = args.chaos
    if fault not in (None, "none"):
        opts["fault"] = fault
    opts["chaos"] = args.chaos not in (None, "none")
    pieces = {}  # a scenario name brings its own graph and instance
    if args.scenario:
        label = f"scenario {args.scenario}"
    else:
        if args.algorithm is None:
            raise ConfigurationError(
                "serve needs --algorithm when no --scenario is given"
            )
        # The schedule stays a name in ``opts``: the coordinator builds
        # it, to mask or (--chaos) enact.
        run = _run_spec(args).materialize()
        pieces = {"dynamic_graph": run["dynamic_graph"],
                  "instance": run["instance"]}
        label = f"{args.graph} (n={run['instance'].n}, k={args.k})"
    report = defn.build(
        args.scenario,
        algorithm=args.algorithm,
        seed=args.seed,
        max_rounds=args.max_rounds,
        **pieces,
        **opts,
    )
    status = "solved" if report.solved else "NOT solved (round limit)"
    print(
        f"live {report.algorithm} on {label} via {args.transport}: "
        f"{report.rounds} rounds, {status}"
    )
    rps = report.rounds_per_second
    rpr = report.trace.requests_per_round()
    stats = report.trace.latency_stats()
    print(
        f"wall={report.wall_seconds:.3f}s"
        + (f" rounds/s={rps:.1f}" if rps else "")
        + (f" requests/round={rpr:.1f}" if rpr else "")
        + (
            f" connections={stats['connections']}"
            f" latency_mean={stats['mean_s'] * 1e3:.2f}ms"
            f" latency_p50={stats['p50_s'] * 1e3:.2f}ms"
            f" latency_p99={stats['p99_s'] * 1e3:.2f}ms"
            f" latency_max={stats['max_s'] * 1e3:.2f}ms"
            if stats else ""
        )
    )
    if report.degraded or report.retries or report.chaos_kills:
        print(
            f"robustness: retries={report.retries} "
            f"timeouts={report.timeouts} "
            f"suspects={len(report.suspects)} "
            f"(events={report.suspect_events}, rejoins={report.rejoins}) "
            f"degraded_rounds={report.degraded_rounds} "
            f"chaos_kills={report.chaos_kills} "
            f"chaos_revives={report.chaos_revives}"
        )
    return 0 if report.solved else 1


def _cmd_top(args) -> int:
    """Poll a live server's ``metrics`` op; render a refreshing status.

    Any endpoint of a running cluster works: every server answers for
    itself (visible neighbors, inbox, robustness counters, connect-latency
    quantiles) and relays the coordinator's last cluster view (round,
    suspects; during a run it trails the node's own round by one).
    ``--iterations 0`` polls until interrupted.
    """
    import time

    from repro.net.errors import TransportError
    from repro.net.framing import request as net_request

    host, _, port_text = args.address.rpartition(":")
    if not host or not port_text.isdigit():
        raise ConfigurationError(
            f"top needs HOST:PORT, got {args.address!r}"
        )
    port = int(port_text)

    def ms(seconds) -> str:
        return "-" if seconds is None else f"{seconds * 1e3:.2f}ms"

    iteration = 0
    while True:
        iteration += 1
        try:
            snap = net_request(host, port, {"op": "metrics"},
                               timeout=args.timeout)
        except TransportError as exc:
            print(f"poll {iteration}: {args.address} unreachable ({exc})")
            if args.iterations and iteration >= args.iterations:
                return 1
            time.sleep(args.interval)
            continue
        if "error" in snap:
            print(f"poll {iteration}: {args.address}: {snap['error']}")
            return 1
        cluster = snap.get("cluster", {})
        stats = snap.get("stats", {})
        latency = snap.get("latency", {})
        if iteration > 1 and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        rows = [
            ("cluster round", cluster.get("round", "-")),
            (
                "cluster active",
                f"{cluster.get('active', '-')}/{cluster.get('n', '-')}",
            ),
            ("cluster suspects", cluster.get("suspects", "-")),
            ("peer uid", snap["uid"]),
            ("peer round", snap["round"]),
            ("peer neighbors", snap["neighbors"]),
            ("inbox depth", snap["inbox"]),
            ("retries", stats.get("retries", 0)),
            ("timeouts", stats.get("timeouts", 0)),
            ("failed deliveries", stats.get("failed_deliveries", 0)),
            ("connects", latency.get("count", 0)),
            ("connect p50", ms(latency.get("p50"))),
            ("connect p99", ms(latency.get("p99"))),
        ]
        print(
            render_table(
                headers=("metric", "value"),
                rows=rows,
                title=f"repro-gossip top {args.address} "
                      f"(poll {iteration})",
            )
        )
        if args.iterations and iteration >= args.iterations:
            return 0
        time.sleep(args.interval)


def _cmd_replay(args) -> int:
    """Record a simulation, replay it live, assert equivalence."""
    from repro.net.bridge import record_run, replay

    spec = _run_spec(args)

    def factory():  # a recording needs a fresh graph per side
        return build_dynamic_graph(spec.graph, spec.dynamic, spec.seed)

    instance = spec.materialize()["instance"]
    fault = None if args.fault in (None, "none") else args.fault
    record = record_run(
        args.algorithm, factory, instance, args.seed,
        max_rounds=args.max_rounds, fault=fault,
    )
    print(
        f"recorded {args.algorithm} on {args.graph} (n={instance.n}, "
        f"k={instance.k}, seed={args.seed}"
        + (f", fault={fault}" if fault else "")
        + f"): {record.rounds} rounds, "
        f"{'solved' if record.solved else 'NOT solved'}"
    )
    report = replay(record, chaos=args.chaos)
    if report.equivalent:
        rps = report.live.rounds_per_second
        rpr = report.live.trace.requests_per_round()
        mode = (
            "through physically enacted chaos "
            f"({report.live.chaos_kills} kills, "
            f"{report.live.chaos_revives} revives)"
            if args.chaos
            else "equal the simulation"
        )
        print(
            "replay EQUIVALENT: live match stream and final token sets "
            + mode
            + (f" ({rps:.1f} live rounds/s, {rpr:.1f} requests/round)"
               if rps else "")
        )
        return 0
    print(f"replay DIVERGED ({len(report.divergences)} divergences):")
    for divergence in report.divergences[:20]:
        print(f"  {divergence}")
    return 1


def _add_run_flags(sub_parser, *, n: int, k: int, tau: int,
                   max_rounds: int) -> None:
    """The flag block :func:`_run_spec` reads, with one subcommand's
    defaults."""
    sub_parser.add_argument("--graph", choices=sorted(_sized_graph_choices()),
                            default="expander")
    sub_parser.add_argument("--n", type=int, default=n)
    sub_parser.add_argument("--k", type=int, default=k)
    sub_parser.add_argument("--tau", type=int, default=tau,
                            help="stability factor; 0 means infinity")
    sub_parser.add_argument("--seed", type=int, default=0)
    sub_parser.add_argument("--max-rounds", type=int, default=max_rounds)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gossip",
        description="Gossip in the mobile telephone model (Newport, PODC 2017)",
    )
    parser.add_argument(
        "--plugin",
        action="append",
        default=[],
        metavar="MODULE_OR_FILE",
        help="plugin module name or .py file registering out-of-tree "
             "definitions (repeatable; must precede the subcommand)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    algorithm_choices = list(ALGORITHMS)
    scenario_choices = sorted(SCENARIO_REGISTRY.names())

    run_p = sub.add_parser("run", help="run one algorithm on one graph")
    run_p.add_argument("--algorithm", choices=algorithm_choices,
                       required=True)
    _add_run_flags(run_p, n=32, k=4, tau=0, max_rounds=200_000)
    run_p.add_argument(
        "--fault", choices=sorted(FAULT_REGISTRY.names()), default="none",
        help="fault regime degrading the run (default parameters; "
             "use sweep specs for tuned fault params)",
    )
    run_p.add_argument(
        "--timing", choices=sorted(TIMING_REGISTRY.names()),
        default="synchronous",
        help="timing regime scheduling per-node cycles (default "
             "parameters; use sweep specs for tuned timing params)",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="enable telemetry and print the per-phase wall-clock "
             "profile after the run (results stay byte-identical)",
    )
    run_p.set_defaults(func=_cmd_run)

    sc_p = sub.add_parser("scenario", help="run a motivating workload")
    sc_p.add_argument("--name", choices=scenario_choices, required=True)
    sc_p.add_argument("--algorithm", choices=algorithm_choices, default=None)
    sc_p.add_argument("--seed", type=int, default=0)
    sc_p.add_argument("--max-rounds", type=int, default=200_000)
    sc_p.set_defaults(func=_cmd_scenario)

    cmp_p = sub.add_parser("compare", help="run all algorithms side by side")
    _add_run_flags(cmp_p, n=24, k=3, tau=1, max_rounds=400_000)
    cmp_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the comparison runs")
    cmp_p.set_defaults(func=_cmd_compare)

    sw_p = sub.add_parser(
        "sweep", help="run a declarative sweep from a JSON spec file"
    )
    sw_p.add_argument("--spec", required=True,
                      help="path to a SweepSpec JSON file")
    sw_p.add_argument("--jobs", type=int, default=1,
                      help="worker processes (1 = in-process serial)")
    sw_p.add_argument("--cache-dir", default=None,
                      help="on-disk result cache keyed by run-spec hash")
    sw_p.add_argument("--out", default=None,
                      help="write the aggregated results as JSON here")
    sw_p.add_argument("--verbose", action="store_true",
                      help="print one line per completed run")
    sw_p.set_defaults(func=_cmd_sweep)

    ls_p = sub.add_parser(
        "list",
        help="print registered algorithms, graphs, dynamics, instances, "
             "fault models, timing models, scenarios, and transports",
    )
    ls_p.set_defaults(func=_cmd_list)

    transport_choices = sorted(TRANSPORT_REGISTRY.names())

    srv_p = sub.add_parser(
        "serve",
        help="deploy a live peer-server cluster and run it to completion",
    )
    srv_p.add_argument("--transport", choices=transport_choices,
                       default="tcp")
    srv_p.add_argument("--scenario", choices=scenario_choices, default=None,
                       help="boot the cluster from a registered scenario")
    srv_p.add_argument("--algorithm", choices=algorithm_choices,
                       default=None,
                       help="protocol to serve (scenario's recommendation "
                            "when omitted)")
    _add_run_flags(srv_p, n=8, k=2, tau=0, max_rounds=512)
    srv_p.add_argument(
        "--fault", choices=sorted(FAULT_REGISTRY.names()), default=None,
        help="fault regime masked logically during the live run",
    )
    srv_p.add_argument(
        "--chaos", nargs="?", const="auto", default=None,
        choices=sorted(FAULT_REGISTRY.names()) + ["auto"],
        help="enact a fault schedule PHYSICALLY (killed endpoints, "
             "sleeping radios, dropped handshakes); with no value, "
             "enacts the scenario's or --fault's schedule",
    )
    srv_p.set_defaults(func=_cmd_serve)

    top_p = sub.add_parser(
        "top",
        help="poll a running peer server's metrics op and render a "
             "refreshing cluster status table",
    )
    top_p.add_argument("address", metavar="HOST:PORT",
                       help="any live peer endpoint of the cluster")
    top_p.add_argument("--interval", type=float, default=1.0,
                       help="seconds between polls")
    top_p.add_argument("--iterations", type=int, default=0,
                       help="stop after this many polls (0 = forever)")
    top_p.add_argument("--timeout", type=float, default=2.0,
                       help="per-poll request timeout in seconds")
    top_p.set_defaults(func=_cmd_top)

    rp_p = sub.add_parser(
        "replay",
        help="record a simulated run, replay it on a live cluster, and "
             "assert match-stream and token-set equivalence",
    )
    rp_p.add_argument("--algorithm", choices=algorithm_choices,
                      required=True)
    _add_run_flags(rp_p, n=8, k=2, tau=0, max_rounds=512)
    rp_p.add_argument(
        "--fault", choices=sorted(FAULT_REGISTRY.names()), default="none",
        help="record the simulation under this fault regime and replay "
             "it under the same schedule",
    )
    rp_p.add_argument(
        "--chaos", action="store_true",
        help="enact the recorded fault schedule physically during the "
             "live replay (requires --fault)",
    )
    rp_p.set_defaults(func=_cmd_replay)

    return parser


def _preload_plugins(argv) -> None:
    """Load ``--plugin`` values before the parser is built.

    Choice lists are computed at parser-build time, so a plugin's
    registrations must land first for its names to be accepted.
    """
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == "--plugin" and index + 1 < len(argv):
            load_plugin(argv[index + 1])
            index += 2
            continue
        if arg.startswith("--plugin="):
            load_plugin(arg.split("=", 1)[1])
        index += 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _preload_plugins(argv)
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
