"""Trajectory datasets: logging, loading, merging, mixing, splitting.

One agent<->environment exchange is one TrajectoryRecord; one trial writes
one UTF-8 file with one JSON record per line (schema_version 1).  Reals
round-trip bit-exactly because json serializes floats with shortest
round-trip precision.  Aggregation across trials is an explicit merge of
per-trial files, never concurrent writes to one file.

`TrajectoryWriter` encodes each trial's constants once, when it opens, and
each parameter's grid values once per space; a step then encodes only its
observation, reward and wall time.  It writes a finite `float` with
`float.__repr__`, an `int` with `int.__repr__` and each metric name from a
per-writer cache: the text json writes for them, without a call to the
encoder, which builds a new C encoder each time.  Any other value goes
through the encoder.  `TrajectoryWriter.append` and `TrajectoryRecord.to_json` emit identical
bytes for the same fields: both use one encoder and the field order of
`_FIELDS`.
"""

from __future__ import annotations

import json
import math
import warnings
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Mapping

import numpy as np

from .core import METRICS, NATURAL, REAL, STRING, read_json, whole_number
from .spaces import DesignPoint, ParameterSpace

SCHEMA_VERSION = 1


class DataError(ValueError):
    """A trajectory or model file whose contents cannot be used: a corrupt
    or repeated record, a malformed model file or sweep summary."""


@contextmanager
def reading(path):
    """The text of the file `path`, for the block to parse; a `ValueError`
    of the block, a decode error too, is raised as a `DataError` naming it."""
    try:
        yield Path(path).read_text(encoding="utf-8")
    except DataError:
        raise
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


_RECORD_FIELDS = {
    "schema_version": ((int,), SCHEMA_VERSION.__eq__, str(SCHEMA_VERSION)),
    "experiment_id": STRING,
    "env_id": STRING,
    "workload_id": STRING,
    "agent_type": STRING,
    "hyperparam_digest": STRING,
    "seed": NATURAL,
    "step_index": NATURAL,
    "design": ((dict,), None, "a JSON object"),
    "observation": METRICS,
    "reward": REAL,
    "wall_time_ms": ((int,), whole_number, "an int64"),
}
_FIELDS = tuple(_RECORD_FIELDS)
# Fields every record of one trial shares; a line starts with them.
_TRIAL_FIELDS = _FIELDS[: _FIELDS.index("step_index")]

_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def _encode_value(value) -> str:
    """`_ENCODER.encode(value)`, without the encoder for a finite float or an int."""
    kind = type(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    return _ENCODER.encode(value)


@dataclass(frozen=True)
class TrajectoryRecord:
    """One logged agent<->environment exchange."""

    experiment_id: str
    env_id: str
    workload_id: str
    agent_type: str
    hyperparam_digest: str
    seed: int
    step_index: int
    design: dict
    observation: dict
    reward: float
    wall_time_ms: int
    schema_version: ClassVar[int] = SCHEMA_VERSION

    def to_json(self) -> str:
        return _ENCODER.encode({name: getattr(self, name) for name in _FIELDS})

    @classmethod
    def from_json(cls, line: str) -> "TrajectoryRecord":
        data = read_json(line, _RECORD_FIELDS, "trajectory record")
        del data["schema_version"]
        record = object.__new__(cls)  # `data`, checked, skips the frozen __init__'s setattrs
        object.__setattr__(record, "__dict__", data)
        return record


# Fragment tables by space object, not by equal space: a grid of 0, 5, 10
# equals one of 0.0, 5.0, 10.0 but encodes differently.  An entry goes when
# its space is collected, so an id is never reused while its entry lives.
_fragment_tables: dict[int, tuple[tuple[str, ...], ...]] = {}


def _design_fragments(space: ParameterSpace) -> tuple[tuple[str, ...], ...]:
    """Per parameter, the `"name":value` text of every grid value, exactly
    as the encoder writes that item inside a record's `design` object."""
    key = id(space)
    table = _fragment_tables.get(key)
    if table is None:
        table = tuple(
            tuple(_ENCODER.encode({spec.name: spec.value(k)})[1:-1] for k in range(spec.size))
            for spec in space.parameters
        )
        _fragment_tables[key] = table
        weakref.finalize(space, _fragment_tables.pop, key, None)
    return table


class TrajectoryWriter:
    """Single-writer sink for one trial's records.

    Opening truncates the file: a trial always writes its records from
    step 0, so a rerun replaces an earlier file instead of extending it.
    `constants` are the per-trial fields of every record (`experiment_id`,
    `env_id`, `workload_id`, `agent_type`, `hyperparam_digest`, `seed`).
    """

    def __init__(self, path, space: ParameterSpace, **constants):
        fields = {"schema_version": SCHEMA_VERSION, **constants}
        if "schema_version" in constants or set(fields) != set(_TRIAL_FIELDS):
            raise TypeError(
                f"expected the per-trial fields {list(_TRIAL_FIELDS[1:])}, got {sorted(constants)}"
            )
        head = _ENCODER.encode({name: fields[name] for name in _TRIAL_FIELDS})
        self._prefix = head[:-1] + ',"step_index":'
        self._space = space
        self._fragments = _design_fragments(space)
        self._names: dict[str, str] = {}  # metric name -> '"name":' as json writes it
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "w", encoding="utf-8")

    def append(
        self,
        step_index: int,
        point: DesignPoint,
        metrics: Mapping[str, float],
        reward: float,
        wall_time_ms: int,
    ) -> None:
        """Write and flush one record; raises, writing nothing, on a negative
        step index, a reward that is not finite and an index off the grid."""
        if step_index < 0:
            raise ValueError(f"step_index must be >= 0, got {step_index}")
        if not math.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        fragments = self._fragments
        # a negative index would wrap; one past the grid raises IndexError
        if len(point) != len(fragments) or min(point, default=0) < 0:
            self._space.validate_point(point)
        try:
            design = ",".join([table[k] for table, k in zip(fragments, point)])
        except IndexError:
            self._space.validate_point(point)
            raise
        observation = self._encode_metrics(metrics)
        self._file.write(
            f'{self._prefix}{step_index:d},"design":{{{design}}},"observation":{observation},'
            f'"reward":{_encode_value(reward)},"wall_time_ms":{_encode_value(wall_time_ms)}}}\n'
        )
        self._file.flush()

    def _encode_metrics(self, metrics: Mapping[str, float]) -> str:
        """`_ENCODER.encode(metrics)`, built from parts for a dict with str keys."""
        if type(metrics) is dict:
            names = self._names
            items = []
            for name, value in metrics.items():
                head = names.get(name)
                if head is None:
                    if type(name) is not str:
                        break
                    head = names[name] = _ENCODER.encode(name) + ":"
                items.append(head + _encode_value(value))
            else:
                return "{" + ",".join(items) + "}"
        return _ENCODER.encode(metrics)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Dataset:
    """Ordered record collection; every record is of one environment and
    one workload, since each workload is a different cost function."""

    records: list[TrajectoryRecord] = field(default_factory=list)

    def __post_init__(self):
        env_ids = {r.env_id for r in self.records}
        if len(env_ids) > 1:
            raise ValueError(f"records of more than one environment: {sorted(env_ids)}")
        workload_ids = {r.workload_id for r in self.records}
        if len(workload_ids) > 1:
            raise ValueError(f"records of more than one workload: {sorted(workload_ids)}")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def env_id(self) -> str | None:
        return self.records[0].env_id if self.records else None

    @property
    def workload_id(self) -> str | None:
        return self.records[0].workload_id if self.records else None

    @property
    def provenance(self) -> Counter:
        """Record count per (agent_type, experiment_id)."""
        return Counter((r.agent_type, r.experiment_id) for r in self.records)

    def agent_counts(self) -> Counter:
        return Counter(r.agent_type for r in self.records)

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for record in self.records:
                f.write(record.to_json() + "\n")


def load_dataset(path, validate: bool = True) -> Dataset:
    """Load a trajectory file, recovering from a truncated final line.

    Records of more than one environment or workload are an error, and with
    `validate` so is a repeated (experiment, step) pair.
    """
    with reading(path) as raw:
        *lines, tail = raw.split("\n")  # `tail`: a last line without its newline
        if tail:
            lines.append(tail)
        records = []
        for i, line in enumerate(lines):
            try:
                records.append(TrajectoryRecord.from_json(line))
            except ValueError as exc:
                if i == len(lines) - 1 and tail:
                    warnings.warn(f"dropping partial trailing line in {path}")
                    break
                raise DataError(f"{path}:{i + 1}: corrupt record: {exc}") from exc
        if validate:  # gaps and any order are fine: a mixture or a split shuffles a trial
            steps = Counter((r.experiment_id, r.step_index) for r in records)
            for (experiment, step), n in steps.items():
                if n > 1:
                    raise ValueError(f"experiment {experiment!r} step_index {step} occurs twice")
        return Dataset(records)


def merge(datasets: list[Dataset]) -> Dataset:
    """Concatenate datasets of one environment and workload."""
    if not datasets:
        raise ValueError("nothing to merge")
    return Dataset([r for d in datasets for r in d.records])


def sample_mixture(
    per_agent: Mapping[str, Dataset],
    proportions: Mapping[str, float],
    size: int,
    rng: np.random.Generator,
) -> Dataset:
    """Without-replacement sample of round(p*size) records per agent, shuffled.

    The rounding residue goes one record at a time to the largest sources
    (ties in name order) whose count stays >= 0 and within 1 of p*size.  A
    `Dataset` refuses a mixture of records of more than one environment or
    workload.
    """
    for agent, p in proportions.items():
        if not 0.0 <= p <= 1.0:  # also refuses NaN
            raise ValueError(f"proportion of {agent!r} must lie in [0, 1], got {p}")
    if abs(sum(proportions.values()) - 1.0) > 1e-9:
        raise ValueError(f"proportions must sum to 1, got {sum(proportions.values())}")
    if size < 0:
        raise ValueError(f"mixture size must be >= 0, got {size}")
    agents = sorted(proportions)
    counts = {a: int(math.floor(proportions[a] * size + 0.5)) for a in agents}
    residue = size - sum(counts.values())
    step = 1 if residue > 0 else -1
    for agent in sorted(agents, key=lambda a: -proportions[a]):
        moved = counts[agent] + step
        if residue and moved >= 0 and abs(moved - proportions[agent] * size) <= 1:
            counts[agent] = moved
            residue -= step
    picked: list[TrajectoryRecord] = []
    for agent in agents:
        if agent not in per_agent:
            raise ValueError(f"no source dataset for agent {agent!r}")
        source = per_agent[agent]
        if counts[agent] > len(source):
            raise ValueError(
                f"insufficient records from {agent!r}: need {counts[agent]}, "
                f"have {len(source)}"
            )
        idx = rng.choice(len(source), size=counts[agent], replace=False)
        picked.extend(source.records[int(i)] for i in idx)
    order = rng.permutation(len(picked))
    return Dataset([picked[int(i)] for i in order])


def split(
    dataset: Dataset, test_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Disjoint uniform split into (train, test); union is the input multiset."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    n = len(dataset)
    n_test = int(math.floor(test_fraction * n + 0.5))
    perm = rng.permutation(n)
    test_idx = sorted(int(i) for i in perm[:n_test])
    train_idx = sorted(int(i) for i in perm[n_test:])
    return (
        Dataset([dataset.records[i] for i in train_idx]),
        Dataset([dataset.records[i] for i in test_idx]),
    )


# ---------------------------------------------------------------------------
# Manifest files


def write_manifest(path, files: list[str], dataset: Dataset) -> None:
    """Record member files plus provenance counts for an aggregated dataset."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "env_id": dataset.env_id,
        "workload_id": dataset.workload_id,
        "record_count": len(dataset),
        "files": sorted(files),
        "provenance": [
            {"agent_type": a, "experiment_id": e, "count": c}
            for (a, e), c in sorted(dataset.provenance.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
