"""Output checks for the benchmark, written against the paper's model.

Imports nothing from ``repro``: every function takes plain numbers,
lists and dicts that the workloads read off a finished run, and asserts
what the mobile telephone model promises about them.  Each assertion is
one *op*; ops that fail are listed by message, and the benchmark's
failure rate is ``failed / attempted`` over executed rounds/runs plus
these assertions.
"""

from __future__ import annotations


class Checks:
    """Counts attempted ops and collects the messages of failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def ops(self, count: int) -> None:
        """``count`` program operations (rounds, runs) that completed."""
        self.attempted += count

    def that(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def check_sim(checks: Checks, facts: dict) -> None:
    """One simulated run (round engine or async engine).

    ``facts``: ``n``, ``k``, ``rounds``, ``expected_rounds``,
    ``expect_solved``, ``solved_round`` (or None), ``initial_holdings``
    (wanted tokens held in total before round 1), ``final_holdings``
    (per node, wanted tokens held at the end), ``totals``
    (``proposals``/``connections``/``tokens_moved``/``dropped``),
    ``records`` (``[round, proposals, connections, tokens_moved,
    active, dropped]`` per kept round) and ``pairing`` — ``"round"``
    when a node joins at most one connection per record (lock-step
    rounds: connections <= floor(active/2)), ``"window"`` when a record
    is an async window and only initiators are bounded by activations.
    """
    n, k = facts["n"], facts["k"]
    totals = facts["totals"]
    checks.ops(facts["rounds"])
    checks.that(
        facts["rounds"] == facts["expected_rounds"],
        f"ran {facts['rounds']} rounds, expected {facts['expected_rounds']}",
    )
    final = facts["final_holdings"]
    checks.that(len(final) == n, f"{len(final)} nodes reported, n={n}")
    if facts["expect_solved"]:
        checks.that(
            facts["solved_round"] is not None,
            f"not solved within {facts['rounds']} rounds",
        )
        short = sum(1 for held in final if held != k)
        checks.that(short == 0, f"{short} nodes do not hold all {k} tokens")
        checks.that(
            totals["tokens_moved"] == n * k - facts["initial_holdings"],
            f"tokens_moved={totals['tokens_moved']} but n*k - initial = "
            f"{n * k - facts['initial_holdings']}",
        )
    # Conservation holds solved or not: no workload here resets state,
    # so every token a node gained arrived over exactly one connection.
    gained = sum(final) - facts["initial_holdings"]
    checks.that(
        totals["tokens_moved"] == gained,
        f"tokens_moved={totals['tokens_moved']} but nodes gained {gained}",
    )
    checks.that(
        totals["connections"] <= totals["proposals"],
        f"{totals['connections']} connections from "
        f"{totals['proposals']} proposals",
    )
    records = facts["records"]
    checks.that(
        len(records) == facts["rounds"],
        f"{len(records)} round records for {facts['rounds']} rounds",
    )
    for column, index in (("proposals", 1), ("connections", 2),
                          ("tokens_moved", 3), ("dropped", 5)):
        summed = sum(record[index] for record in records)
        checks.that(
            summed == totals[column],
            f"round records sum {column}={summed}, totals say "
            f"{totals[column]}",
        )
    half = facts["pairing"] == "round"
    for rnd, proposals, connections, moved, active, dropped in records:
        limit = active // 2 if half else active
        checks.that(
            0 <= connections + dropped <= min(limit, proposals)
            and 0 <= active <= (n if half else active)
            and moved >= 0,
            f"round {rnd}: {connections}+{dropped} connections, "
            f"{proposals} proposals, {active} active, {moved} moved",
        )


def check_sweep(checks: Checks, facts: dict) -> None:
    """One cold sweep plus its warm re-run.

    ``facts``: ``runs`` (``[algorithm, rounds, solved, max_rounds]`` per
    run in sweep order), ``cold_hits``/``cold_misses``,
    ``warm_hits``/``warm_misses``, ``points`` (aggregated grid points),
    ``expected_points`` and ``warm_identical`` (the warm result
    serialises to the same bytes as the cold one).
    """
    runs = facts["runs"]
    checks.ops(len(runs))
    for index, (algorithm, rounds, solved, max_rounds) in enumerate(runs):
        checks.that(
            solved and 1 <= rounds <= max_rounds,
            f"run {index} ({algorithm}): solved={solved} after {rounds} "
            f"rounds (cap {max_rounds})",
        )
    checks.that(
        facts["points"] == facts["expected_points"],
        f"aggregated {facts['points']} points, expected "
        f"{facts['expected_points']}",
    )
    checks.that(
        facts["cold_hits"] == 0 and facts["cold_misses"] == len(runs),
        f"cold pass: {facts['cold_hits']} hits / "
        f"{facts['cold_misses']} misses over {len(runs)} runs",
    )
    checks.that(
        facts["warm_hits"] == len(runs) and facts["warm_misses"] == 0,
        f"warm pass: {facts['warm_hits']} hits / "
        f"{facts['warm_misses']} misses over {len(runs)} runs",
    )
    checks.that(facts["warm_identical"],
                "warm re-run result differs from the cold result")


def check_live(checks: Checks, facts: dict) -> None:
    """A live replay against its recording — the comparison
    ``repro.net.replay`` makes: per-round match *sets* and final token
    sets must be equal.

    ``facts``: ``rounds``, ``recorded_matches`` / ``live_matches``
    (per round, lists of ``[initiator, responder]``),
    ``recorded_tokens`` / ``live_tokens`` (``{uid: [token ids]}``),
    ``retry_budget_exhausted`` (peers suspected during the run).
    """
    checks.ops(facts["rounds"])
    recorded, live = facts["recorded_matches"], facts["live_matches"]
    checks.that(
        len(recorded) == len(live) == facts["rounds"],
        f"{len(recorded)} recorded / {len(live)} live rounds, drove "
        f"{facts['rounds']}",
    )
    for index, (want, got) in enumerate(zip(recorded, live)):
        checks.that(
            {tuple(pair) for pair in want} == {tuple(pair) for pair in got},
            f"round {index + 1}: live matches {sorted(map(tuple, got))} != "
            f"recorded {sorted(map(tuple, want))}",
        )
        touched = [uid for pair in got for uid in pair]
        checks.that(
            len(touched) == len(set(touched)),
            f"round {index + 1}: a node is in two live matches",
        )
    want_tokens, got_tokens = facts["recorded_tokens"], facts["live_tokens"]
    checks.that(
        set(want_tokens) == set(got_tokens),
        "live cluster and recording disagree on the node set",
    )
    for uid in sorted(want_tokens):
        checks.that(
            list(want_tokens[uid]) == list(got_tokens.get(uid, ())),
            f"node {uid}: live tokens {got_tokens.get(uid)} != recorded "
            f"{want_tokens[uid]}",
        )
    checks.that(
        facts["retry_budget_exhausted"] == 0,
        f"{facts['retry_budget_exhausted']} peers exhausted their retry "
        "budget",
    )


def check_repeats_agree(checks: Checks, workload: str, counts: list) -> None:
    """Passes of one workload share a seed, so their simulated
    statistics must be identical — a difference is nondeterminism."""
    if not counts:
        return
    first = counts[0]
    for name in sorted(first):
        values = [count.get(name) for count in counts]
        checks.that(
            all(value == values[0] for value in values),
            f"{workload}: passes disagree on {name}: {values}",
        )


#: What makes each simulator workload worth having, as shares of the
#: traced run: (layer metric, at least, at most).
LAYER_SHARES = {
    "sharedbit_solve": [("core.stage3_s", 0.60, 1.0)],
    "sharedbit_ring_scan": [("core.advertise_s", 0.70, 1.0),
                            ("core.stage3_s", 0.0, 0.05)],
}


def check_layers(checks: Checks, workload: str, layers: dict,
                 traced_run_s: float, full_size: bool) -> list[str]:
    """The traced pass's sanity table.  The layer self times of a
    simulator workload must cover the traced run to within 5%; at full
    size the shares that justify the workload must hold.  Returns the
    table's lines."""
    lines = []

    def row(ok: bool, text: str) -> None:
        checks.that(ok, f"{workload}: {text}")
        lines.append(f"{'ok' if ok else 'FAILED':<7}{text}")

    if "sim.unattributed_s" in layers:
        share = abs(layers["sim.unattributed_s"]) / traced_run_s
        row(share <= 0.05,
            f"self times cover all but {100 * share:.2f}% of run_s")
    if not full_size:
        return lines
    for name, low, high in LAYER_SHARES.get(workload, ()):
        share = layers[name] / traced_run_s
        row(low <= share <= high,
            f"{name} is {100 * share:.1f}% of run_s "
            f"(wanted {100 * low:.0f}..{100 * high:.0f}%)")
    if workload == "blindmatch_mobile_faulty":
        row(layers["sim.csr_binds"] >= 10,
            f"sim.csr_binds = {layers['sim.csr_binds']} (wanted >= 10)")
    return lines
