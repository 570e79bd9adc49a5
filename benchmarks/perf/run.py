"""The repo's benchmark: six workloads, end-to-end and per-layer metrics.

    python3 benchmarks/perf/run.py                  # every workload, untraced
    python3 benchmarks/perf/run.py --trace          # plus the per-layer pass
    python3 benchmarks/perf/run.py --workload sharedbit_solve --seed 7
    python3 benchmarks/perf/run.py --quick          # sizes / 10, one repeat
    python3 benchmarks/perf/run.py --selfcheck      # two sets, compared

Method: a closed loop driven by one process.  Each of ``--repeats``
fresh child interpreters (``child.py``), pinned to one core, runs
measured passes of the workload until its share of ``--seconds`` is
used.  Between the rounds of a pass a fixed reference slice is timed;
every timing of the pass is scaled by it, and the value printed is the
median over all passes, with the fastest and slowest pass next to it.
The end-to-end numbers come from untraced passes; ``--trace`` runs
``telemetry=True`` passes next to untraced ones and reports the
per-layer numbers and the tracing overhead.  Metric names, units,
directions and bounds are read from ``BENCHMARK.json``; ``README.md``
defines each of them.

With ``--workload`` the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``).  Exit status is non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from check import Checks, check_layers, check_repeats_agree  # noqa: E402

QUICK_SCALE = 0.1
#: Timings read as seconds on a machine where the reference slice of
#: ``spans.Reference`` takes this long, as it does on the authoring host
#: when its neighbours are quiet.
REFERENCE_S = 0.0007
TIME_UNITS = ("s", "ms", "us", "ns")
#: A child that has not finished by then is stuck; the measured section
#: itself is bounded by ``--seconds``.
CHILD_TIMEOUT_S = 150


def load_catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def spawn_child(workload: str, seed: int, scale: float, seconds: float,
                traced: bool, extra: str | None = None) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--scale", repr(scale),
        "--seconds", repr(seconds), "--trace", str(int(traced)),
    ]
    if extra:
        command += ["--extra", extra]
    done = subprocess.run(
        command, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def cli_help_s() -> float:
    """Wall seconds of ``python -m repro.cli --help`` (best of 3)."""
    walls = []
    for _ in range(3):
        started = perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "--help"], env=child_env(),
            cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
        )
        walls.append(perf_counter() - started)
    return min(walls)


def at_reference_speed(value, unit: str, reference_s: float):
    """``value`` as it would read on a machine that runs the reference
    slice in ``REFERENCE_S``, given the ``reference_s`` it took next to
    the measurement."""
    if unit in TIME_UNITS:
        return value * REFERENCE_S / reference_s
    if unit == "1/s":
        return value * reference_s / REFERENCE_S
    return value


def pass_metrics(one: dict) -> dict:
    """The end-to-end values of one measured pass, as measured."""
    counts, run_s = one["counts"], one["run_s"]
    return {
        "setup_s": one["setup_s"],
        "run_s": run_s,
        "run_cpu_s": one["run_cpu_s"],
        "rounds_per_s": counts["rounds"] / run_s,
        "node_rounds_per_s": counts["node_rounds"] / run_s,
        "connections_per_s": counts["connections"] / run_s,
        "runs_per_s": counts["runs"] / (one["setup_s"] + run_s),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool,
            repeats: int, scale: float, catalogue: dict) -> dict:
    """One set of runs of one workload: ``repeats`` fresh interpreters
    sharing ``seconds`` of measuring.  Returns the metrics of the mode
    (end-to-end when untraced, per-layer when traced), the per-pass
    values behind them, and the checker's verdict.

    Every timing is first scaled by how fast its pass ran the reference
    slice (README, "How a value is made"); an end-to-end value is then
    the median over the passes.
    """
    units = {m["name"]: m["unit"]
             for m in catalogue["end_to_end"] + catalogue["per_layer"]}
    children = [
        spawn_child(workload, seed, scale, seconds / repeats, traced)
        for _ in range(repeats)
    ]
    passes = [one for child in children for one in child["passes"]]
    checks = Checks()
    for one in passes:
        checks.attempted += one["attempted"]
        checks.failures += one["failures"]
    check_repeats_agree(checks, workload, [one["counts"] for one in passes])

    # Per interpreter, what was measured: the import, then each untraced
    # pass, each with the reference slice time it is scaled by.
    values: dict[str, list] = {}
    for child in children:
        child["measured"] = [
            {"import_s": child["import_s"],
             "reference_s": child["import_reference_s"]}
        ] + [
            {**pass_metrics(one), "reference_s": one["reference_s"]}
            for one in child["passes"] if not one["traced"]
        ]
        for row in child["measured"]:
            for name, value in row.items():
                if name != "reference_s":
                    values.setdefault(name, []).append(at_reference_speed(
                        value, units[name], row["reference_s"]))
    values["peak_rss_mb"] = [child["peak_rss_mb"] for child in children]

    sanity: list[str] = []
    if not traced:
        wanted = catalogue["end_to_end"]
        metrics = {m["name"]: median(values[m["name"]]) for m in wanted}
    else:
        # One coherent partition: the layers of the median traced pass.
        by_run_s = sorted(
            (one for one in passes if one["traced"]),
            key=lambda one: one["run_s"] / one["reference_s"])
        typical = by_run_s[(len(by_run_s) - 1) // 2]
        sanity = check_layers(checks, workload, typical["layers"],
                              typical["run_s"], full_size=scale == 1.0)
        layers = {
            name: at_reference_speed(value, units.get(name),
                                     typical["reference_s"])
            for name, value in typical["layers"].items()
        }
        layers["telemetry.overhead_pct"] = 100.0 * (
            at_reference_speed(typical["run_s"], "s", typical["reference_s"])
            / median(values["run_s"]) - 1)
        layers["cli.import_s"] = median(values["import_s"])
        if workload == "sweep_mixed":
            # The command line is how a sweep is typed.
            layers["cli.help_s"] = cli_help_s()
            layers["experiments.pool_speedup_jobs2"] = spawn_child(
                workload, seed, scale, 0.0, False, extra="pool_speedup",
            )["pool_speedup_jobs2"]
        # A layer this workload never enters spent no time and did no
        # work there: it reads 0.
        wanted = catalogue["per_layer"]
        metrics = {m["name"]: layers.pop(m["name"], 0) for m in wanted}
        for name in sorted(layers):
            checks.that(False, f"{workload}: layer metric {name} is not "
                               "in BENCHMARK.json")
    return {
        "workload": workload,
        "traced": traced,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
        # Every pass's value at reference speed, and what each fresh
        # interpreter measured before scaling.
        "values": values,
        "repeats": [
            {"peak_rss_mb": child["peak_rss_mb"],
             "measured": child["measured"]}
            for child in children
        ],
        "sanity": sanity,
        "passes": len(passes),
        "round_samples": sum(
            len(one["round_ms"]) for one in passes if not one["traced"]),
        "counts": passes[0]["counts"],
        "attempted": checks.attempted,
        "failures": checks.failures,
    }


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": result["metrics"],
    })


def print_result(result: dict, catalogue: dict) -> None:
    kind = "per-layer (traced)" if result["traced"] else "end-to-end"
    slices = [1e3 * row["reference_s"] for repeat in result["repeats"]
              for row in repeat["measured"]]
    print(f"\n== {result['workload']}: {kind}, {result['passes']} passes in "
          f"{len(result['repeats'])} interpreters, {result['round_samples']} "
          f"round samples; reference slice {min(slices):.3f}.."
          f"{max(slices):.3f} ms (timings are scaled to "
          f"{1e3 * REFERENCE_S:.1f} ms) ==")
    bounds = {m["name"]: m["bound"] for m in catalogue["end_to_end"]}
    for name, cell in result["metrics"].items():
        value = cell["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        line = f"  {name:<44}{shown:>14} {cell['unit']:<6}"
        if not result["traced"]:
            values = result["values"][name]
            line += (f" (passes {min(values):.6g}..{max(values):.6g}, "
                     f"bound {100 * bounds[name]:.0f}%)")
        print(line)
    failed = len(result["failures"])
    print(f"  {'failure_rate':<44}"
          f"{failed / result['attempted']:>14.6g} ratio  "
          f"({failed} of {result['attempted']} ops)")
    for line in result["sanity"]:
        print(f"  sanity: {line}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def git_state() -> dict:
    def git(*args):
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    try:
        rev = git("rev-parse", "--short", "HEAD")
        status = git("status", "--porcelain")
    except OSError:
        rev = status = None
    return {"rev": rev, "dirty": None if status is None else bool(status)}


def provenance(args) -> dict:
    import networkx
    import numpy

    return {
        "git": git_state(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "scale": args.scale,
        "loadavg_1min_start": os.getloadavg()[0],
    }


def run_set(args, names, traced: bool, catalogue: dict) -> list[dict]:
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, traced,
                         args.repeats, args.scale, catalogue)
        print_result(result, catalogue)
        results.append(result)
    return results


def selfcheck(first: list[dict], second: list[dict], catalogue: dict) -> int:
    """Two sets of runs of the same code must agree within each
    metric's bound, and on every count exactly."""
    print("\n== selfcheck: second set against the first ==")
    print(f"  {'workload':<26}{'metric':<20}{'first':>12}{'second':>12}"
          f"{'diff':>9}{'bound':>7}")
    unresolved = 0
    for a, b in zip(first, second):
        for m in catalogue["end_to_end"]:
            x = a["metrics"][m["name"]]["value"]
            y = b["metrics"][m["name"]]["value"]
            diff = (y - x) / x
            ok = abs(diff) <= m["bound"]
            unresolved += not ok
            print(f"  {a['workload']:<26}{m['name']:<20}{x:>12.6g}{y:>12.6g}"
                  f"{100 * diff:>8.1f}%{100 * m['bound']:>6.0f}%  "
                  f"{'ok' if ok else 'unresolved'}")
        same = a["counts"] == b["counts"]
        unresolved += not same
        print(f"  {a['workload']:<26}{'counts':<20}"
              f"{'identical' if same else 'DIFFER':>24}{'':>16}  "
              f"{'ok' if same else 'unresolved'}")
    print(f"  {unresolved} unresolved")
    return unresolved


def main() -> int:
    catalogue = load_catalogue()
    names = [w["name"] for w in catalogue["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(catalogue["run_seconds"]),
                        help="measuring time per workload and mode")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh interpreters per workload and mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10, one repeat, one pass")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--json", metavar="OUT",
                        help="write every result, with provenance")
    args = parser.parse_args()
    args.scale = 1.0
    if args.quick:
        args.scale, args.repeats, args.seconds = QUICK_SCALE, 1, 0.0
    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2

    stamp = provenance(args)
    if args.workload:
        # The driver's form: one workload, one mode, the result last.
        results = run_set(args, [args.workload], bool(args.trace), catalogue)
    else:
        results = run_set(args, names, False, catalogue)
        if args.trace:
            results += run_set(args, names, True, catalogue)
    unresolved = 0
    if args.selfcheck:
        untraced = [r for r in results if not r["traced"]]
        again = run_set(args, [r["workload"] for r in untraced], False,
                        catalogue)
        unresolved = selfcheck(untraced, again, catalogue)
        results += again
    stamp["loadavg_1min_end"] = os.getloadavg()[0]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"provenance": stamp, "results": results}, handle,
                      indent=1)
    failed = sum(len(r["failures"]) for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"\nfailure_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} ops)")
    if args.workload:
        print(contract_line(results[0]))
    return 1 if failed or unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
