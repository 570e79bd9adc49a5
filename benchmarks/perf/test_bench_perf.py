"""Shape checks for the benchmark.  Not part of tier-1 (``testpaths`` is
``tests``); run it explicitly:

    python3 -m pytest benchmarks/perf/test_bench_perf.py -q

One ``--quick --trace`` run (sizes / 10, one pass) feeds every test.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done


@pytest.fixture(scope="module")
def catalogue() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    run_benchmark("--quick", "--trace", "--json", str(out))
    return json.loads(out.read_text())


def test_catalogue_is_well_formed(catalogue):
    assert set(catalogue) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert catalogue["paths"] == ["benchmarks/perf"]
    assert 2 <= len(catalogue["workloads"]) <= 8
    for workload in catalogue["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in catalogue["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in catalogue["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = catalogue["end_to_end"] + catalogue["per_layer"]
    for entry in catalogue["workloads"] + metrics:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    names = [entry["name"] for entry in catalogue["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in catalogue["end_to_end"]
             if m["name"] == "setup_s").items()


def test_every_workload_and_metric_is_emitted(quick, catalogue):
    for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
        results = {r["workload"]: r for r in quick["results"]
                   if r["traced"] == traced}
        assert list(results) == [w["name"] for w in catalogue["workloads"]]
        for result in results.values():
            assert result["failures"] == []
            assert result["attempted"] >= 1
            emitted = result["metrics"]
            assert list(emitted) == [m["name"] for m in catalogue[kind]]
            for metric in catalogue[kind]:
                cell = emitted[metric["name"]]
                assert cell["unit"] == metric["unit"]
                assert isinstance(cell["value"], (int, float))
                assert not isinstance(cell["value"], bool)
                if not traced:
                    assert cell["value"] > 0, (result["workload"], metric)


def test_counts_are_integers(quick, catalogue):
    counts = [m["name"] for m in catalogue["per_layer"]
              if m["unit"] == "count"]
    assert counts
    for result in quick["results"]:
        if result["traced"]:
            for name in counts:
                assert isinstance(result["metrics"][name]["value"], int), (
                    result["workload"], name)


def test_provenance_is_stamped(quick):
    stamp = quick["provenance"]
    assert {"git", "nproc", "python", "numpy", "networkx", "seed", "repeats",
            "loadavg_1min_start", "loadavg_1min_end"} <= set(stamp)
    assert {"rev", "dirty"} == set(stamp["git"])
    for result in quick["results"]:
        # Per-repeat raw values: the import, then one row per pass, each
        # with the reference slice time it was scaled by.
        rows = [row for repeat in result["repeats"]
                for row in repeat["measured"]]
        assert len(result["repeats"]) == stamp["repeats"]
        assert all(row["reference_s"] > 0 for row in rows)
        assert len(result["values"]["run_s"]) == sum(
            "run_s" in row for row in rows) >= 1


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_form_ends_with_the_result_line(catalogue, trace):
    done = run_benchmark("--quick", "--workload", "async_jitter",
                         "--seed", "3", "--seconds", "1", "--trace", trace)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in catalogue[kind]]
