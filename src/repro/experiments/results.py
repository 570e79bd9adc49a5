"""Sweep results: per-run records, per-point aggregates, tables, cache.

The runner produces one JSON-able *run record* per (grid point, seed);
:func:`aggregate` folds records into :class:`PointSummary` rows (median /
percentile round counts, solve rates) and :class:`SweepResult` renders the
sweep table and serializes everything.

:class:`ResultCache` is the on-disk memo: one JSON file per run, keyed by
the stable spec hash, so re-running a sweep only pays for cells whose spec
actually changed.  Corrupt or unreadable entries degrade to cache misses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.bounds import BOUND_TEXT
from repro.analysis.fits import loglog_slope
from repro.analysis.tables import render_table
from repro.errors import ConfigurationError
from repro.experiments.specs import SweepSpec, canonical_json
from repro.registry import ALGORITHM_REGISTRY

__all__ = [
    "PointSummary",
    "ResultCache",
    "ShardedRunLog",
    "SweepResult",
    "aggregate",
    "load_streamed",
    "percentile",
]

#: Result-format version; bump to invalidate every cached run record.
#: 2: BlindMatch's coins and targets come from keyed counters.
#: 3: contested targets draw the keyed acceptance lottery.
RESULT_FORMAT = 3


def _short(axis: str) -> str:
    """A grid axis as a column header: its last dotted segment."""
    return axis.rsplit(".", 1)[-1]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a small sample."""
    if not values:
        raise ConfigurationError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ConfigurationError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class ResultCache:
    """One JSON file per run record under ``cache_dir``, keyed by run hash."""

    def __init__(self, cache_dir):
        self.dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def get(self, key: str) -> dict | None:
        try:
            payload = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != RESULT_FORMAT
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload["record"]

    def put(self, key: str, record: dict) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps({"format": RESULT_FORMAT, "record": record})
        )
        tmp.replace(path)


class ShardedRunLog:
    """Append-only JSONL shards + index for a streamed sweep.

    The bounded-memory counterpart of the runner's in-memory record
    dict: each completed run is appended to the current shard file as
    one canonical-JSON line (``{"index": flat_run_index, "record":
    ...}``) the moment it finishes, and :meth:`finalize` seals the
    stream with an ``index.json`` naming every shard.  Aggregation then
    happens from a re-read (:func:`load_streamed`), so a million-node
    sweep never holds more than one run record in the parent process —
    and a crashed sweep leaves every completed run on disk.

    Appends open/write/close per record: slow-path-proof (a worker
    crash loses at most the in-flight line) and trivially correct; at
    sweep granularity the cost is noise.  A fresh log *truncates* any
    prior shards in the directory — resumability is the result cache's
    job, the stream is one sweep's output.
    """

    def __init__(self, directory, shard_size: int = 256):
        if shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        self.dir = Path(directory)
        self.shard_size = shard_size
        self.count = 0
        self.shards: list[str] = []
        self.dir.mkdir(parents=True, exist_ok=True)
        for stale in self.dir.glob("shard-*.jsonl"):
            stale.unlink()
        index = self.dir / "index.json"
        if index.exists():
            index.unlink()

    def append(self, flat_index: int, record: dict) -> None:
        shard_number = self.count // self.shard_size
        if shard_number == len(self.shards):
            self.shards.append(f"shard-{shard_number:05d}.jsonl")
        line = canonical_json({"index": flat_index, "record": record})
        with open(self.dir / self.shards[shard_number], "a") as handle:
            handle.write(line + "\n")
        self.count += 1

    def finalize(self, spec: SweepSpec) -> Path:
        """Seal the stream: write ``index.json`` naming every shard."""
        path = self.dir / "index.json"
        path.write_text(
            json.dumps(
                {
                    "format": RESULT_FORMAT,
                    "sweep_hash": spec.spec_hash(),
                    "total_runs": self.count,
                    "shard_size": self.shard_size,
                    "shards": list(self.shards),
                },
                indent=2,
            )
            + "\n"
        )
        return path


def load_streamed(directory) -> dict:
    """Re-read a sealed stream into the runner's records-by-index form.

    The dict this returns is exactly what :func:`aggregate` consumes, so
    ``aggregate(spec, load_streamed(d))`` over a streamed sweep is
    byte-identical (``SweepResult.to_json``) to the in-memory path —
    record values are JSON-native, and a JSON round-trip preserves them
    exactly.  Raises :class:`ConfigurationError` on a missing or
    unsealed stream.
    """
    directory = Path(directory)
    index_path = directory / "index.json"
    try:
        index = json.loads(index_path.read_text())
    except OSError as exc:
        raise ConfigurationError(
            f"no sealed stream at {directory}: {exc}"
        ) from exc
    except ValueError as exc:
        raise ConfigurationError(
            f"corrupt stream index {index_path}: {exc}"
        ) from exc
    if index.get("format") != RESULT_FORMAT:
        raise ConfigurationError(
            f"stream {directory} has format {index.get('format')!r}; "
            f"this reader expects {RESULT_FORMAT}"
        )
    records: dict[int, dict] = {}
    for shard in index.get("shards", ()):
        with open(directory / shard) as handle:
            for line in handle:
                if not line.strip():
                    continue
                entry = json.loads(line)
                records[entry["index"]] = entry["record"]
    total = index.get("total_runs")
    if total is not None and len(records) != total:
        raise ConfigurationError(
            f"stream {directory} is incomplete: index.json promises "
            f"{total} runs, shards hold {len(records)}"
        )
    return records


@dataclass
class PointSummary:
    """Aggregated outcome of one grid cell across its seeds."""

    point: dict                 # dotted grid keys -> values for this cell
    seeds: tuple
    rounds: tuple               # per-seed round counts, in seed order
    solved: tuple               # per-seed solved flags, in seed order
    notes: tuple = ()           # deduplicated run notes (e.g. τ substitution)
    runs: tuple = ()            # the full per-seed run records, in seed order

    @property
    def median_rounds(self) -> float:
        return percentile(self.rounds, 50)

    @property
    def p90_rounds(self) -> float:
        return percentile(self.rounds, 90)

    @property
    def min_rounds(self) -> int:
        return min(self.rounds)

    @property
    def max_rounds(self) -> int:
        return max(self.rounds)

    @property
    def all_solved(self) -> bool:
        return all(self.solved)

    def to_payload(self) -> dict:
        payload = {
            "point": dict(self.point),
            "seeds": list(self.seeds),
            "rounds": list(self.rounds),
            "solved": list(self.solved),
            "median_rounds": self.median_rounds,
            "p90_rounds": self.p90_rounds,
            "notes": list(self.notes),
        }
        # Gauge series the spec asked the engine to collect travel with
        # the serialized result (one entry per seed, in seed order).
        gauges = [record.get("gauges") for record in self.runs]
        if any(gauges):
            payload["gauges"] = [g or {} for g in gauges]
        return payload


@dataclass
class SweepResult:
    """Everything a finished sweep produced, renderable and serializable."""

    spec: SweepSpec
    points: list = field(default_factory=list)   # PointSummary, sweep order
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1

    def point_for(self, **match) -> PointSummary:
        """The summary whose grid cell contains all of ``match``.

        Keys may be full dotted axes or their last segment (``k`` for
        ``instance.k``) when unambiguous.
        """
        def cell_view(point: dict) -> dict:
            view = dict(point)
            for dotted, value in point.items():
                view.setdefault(dotted.rsplit(".", 1)[-1], value)
            return view

        found = [
            summary
            for summary in self.points
            if all(
                cell_view(summary.point).get(key) == value
                for key, value in match.items()
            )
        ]
        if len(found) != 1:
            raise ConfigurationError(
                f"{len(found)} grid cells match {match!r}"
            )
        return found[0]

    def table(self, title: str | None = None) -> str:
        """The sweep as a fixed-width table (one row per grid cell).

        An ``algorithm`` axis adds the paper's assumptions (tag length,
        topology model) and proven bound for each row.  Below the table,
        every numeric axis with at least three values gets the log-log
        slope of median rounds along it, one line per combination of the
        other axes.
        """
        axes = self.spec.axes
        paper = ("b", "model", "proven bound") if "algorithm" in axes else ()
        rows = []
        for summary in self.points:
            row = tuple(summary.point[axis] for axis in axes)
            if paper:
                defn = ALGORITHM_REGISTRY.get(summary.point["algorithm"])
                row += (defn.tag_length_label, defn.model_label,
                        BOUND_TEXT.get(defn.name, "-"))
            rows.append(row + (
                summary.median_rounds,
                summary.p90_rounds,
                f"{sum(summary.solved)}/{len(summary.solved)}",
                "; ".join(summary.notes) or "-",
            ))
        text = render_table(
            headers=tuple(map(_short, axes)) + paper
            + ("median rounds", "p90", "solved", "notes"),
            rows=rows,
            title=title
            or f"sweep {self.spec.name} ({len(self.spec.seeds)} seeds/cell)",
        )
        return "\n".join([text, *self._slope_lines()])

    def _slope_lines(self) -> list[str]:
        lines = []
        for axis, values in self.spec.grid.items():
            if len(values) < 3 or not all(
                type(value) in (int, float) and value > 0 for value in values
            ):
                continue
            others = [other for other in self.spec.axes if other != axis]
            groups: dict[str, list] = {}
            for summary in self.points:
                label = ", ".join(
                    f"{_short(other)}={summary.point[other]}"
                    for other in others
                )
                groups.setdefault(label, []).append(summary)
            for label, cells in groups.items():
                slope = loglog_slope(
                    [cell.point[axis] for cell in cells],
                    [cell.median_rounds for cell in cells],
                )
                where = f" ({label})" if label else ""
                lines.append(
                    f"log-log slope in {_short(axis)}{where}: {slope:.2f}"
                )
        return lines

    def phase_totals(self) -> dict:
        """Merged phase profile across every run of the sweep.

        Sums the ``"profile"`` dicts telemetry-enabled runs carry in
        their records (see :func:`repro.telemetry.merge_profiles`) —
        a commutative fold over per-run records in sweep order, so the
        merged call counts are invariant to what ``jobs`` was.  Empty
        when the sweep ran without telemetry.
        """
        from repro.telemetry import merge_profiles

        return merge_profiles(
            record.get("profile")
            for summary in self.points
            for record in summary.runs
        )

    def to_payload(self) -> dict:
        return {
            "sweep": self.spec.to_payload(),
            "sweep_hash": self.spec.spec_hash(),
            "points": [summary.to_payload() for summary in self.points],
        }

    def to_json(self, indent: int | None = None) -> str:
        """Canonical JSON (byte-identical for identical sweep outcomes)."""
        if indent is None:
            return canonical_json(self.to_payload())
        return json.dumps(self.to_payload(), sort_keys=True, indent=indent)


def aggregate(
    spec: SweepSpec, records_by_index: dict, runs: list | None = None
) -> SweepResult:
    """Fold per-run records into per-point summaries, in sweep order.

    ``records_by_index`` maps the flat run index (the order of
    ``spec.runs()``) to that run's record dict.  Pass the already-expanded
    ``runs`` list to avoid re-expanding (and re-validating) the grid.
    """
    if runs is None:
        runs = spec.runs()
    by_point: dict[int, list] = {}
    points: dict[int, dict] = {}
    for flat_index, (point_index, point, seed, _payload) in enumerate(runs):
        record = records_by_index[flat_index]
        points[point_index] = point
        by_point.setdefault(point_index, []).append((seed, record))
    summaries = []
    for point_index in sorted(by_point):
        cell = by_point[point_index]
        notes: list[str] = []
        for _seed, record in cell:
            for note in record.get("notes", ()):
                if note not in notes:
                    notes.append(note)
        summaries.append(
            PointSummary(
                point=points[point_index],
                seeds=tuple(seed for seed, _ in cell),
                rounds=tuple(record["rounds"] for _, record in cell),
                solved=tuple(record["solved"] for _, record in cell),
                notes=tuple(notes),
                runs=tuple(record for _, record in cell),
            )
        )
    return SweepResult(spec=spec, points=summaries)

