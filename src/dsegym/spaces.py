"""Parameter spaces: the action vocabulary of every environment.

A space is an ordered list of named parameters, each either categorical
(a set of string labels) or numeric (a finite stepped grid ``min + k*step``).
Designs have two representations, both made of per-parameter grid indices:

* a design point is a plain ``tuple`` of Python ints, one per parameter
  (`DesignPoint` is only its annotation); agents propose and envs step it;
* a batch of points is an ``(n, len(space))`` int64 array, one point per
  row; the samplers and the encoder work on batches, and their one-point
  forms (`sample_uniform`, `encode`) are the one-row case.

Helpers convert a point to and from the concrete label/value form used in
trajectory records and in the subprocess protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np
import yaml

# Tolerance used when deciding whether a value sits on the step grid and
# whether max is an exact multiple of step away from min.
_GRID_RTOL = 1e-9


# Elements of one row block of `encode_batch`: 64 KiB per int64 temporary.
_ENCODE_BLOCK = 8192

# One design: its grid index for every parameter, in space order.
DesignPoint = tuple[int, ...]


class SpaceTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class Categorical:
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("categorical parameter needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"duplicate categorical values: {self.values}")

    @property
    def size(self) -> int:
        return len(self.values)

    def value(self, k: int):
        return self.values[k]

    def index_of(self, value) -> int:
        try:
            return self.values.index(value)
        except ValueError:
            raise ValueError(f"label {value!r} not in {self.values}") from None


@dataclass(frozen=True)
class Numeric:
    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"numeric bounds inverted: ({self.lo}, {self.hi})")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")

    @cached_property
    def size(self) -> int:
        span = (self.hi - self.lo) / self.step
        return int(np.floor(span + _GRID_RTOL * max(1.0, abs(span)))) + 1

    def value(self, k: int):
        # int lo/step stay int, so integer grids export as ints
        return self.lo + k * self.step

    def index_of(self, value) -> int:
        k = int(round((value - self.lo) / self.step))
        if k < 0 or k >= self.size:
            raise ValueError(f"value {value} outside grid ({self.lo}, {self.hi}, {self.step})")
        grid = self.value(k)
        if abs(value - grid) > _GRID_RTOL * max(1.0, abs(grid)):
            raise ValueError(f"value {value} not on step grid ({self.lo}, {self.hi}, {self.step})")
        return k


@dataclass(frozen=True)
class ParameterSpec:
    name: str
    kind: Categorical | Numeric

    @property
    def size(self) -> int:
        return self.kind.size

    def value(self, k: int):
        return self.kind.value(k)

    def index_of(self, value) -> int:
        return self.kind.index_of(value)


@dataclass(frozen=True)
class ParameterSpace:
    parameters: tuple[ParameterSpec, ...]

    def __post_init__(self):
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(p.size for p in self.parameters)

    @cached_property
    def _bounds(self) -> np.ndarray:
        """`sizes` as an int64 array: the samplers' bounds and the encoder's range check."""
        return np.array(self.sizes, dtype=np.int64)

    @cached_property
    def _encoding(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """`encode`'s output width and a flat table over (parameter, grid index).

        Grid index k of parameter j sets column `columns[offsets[j] + k]` of
        the output to `values[offsets[j] + k]`: 1.0 in its own one-hot column
        for a categorical parameter, its min-max value in the parameter's
        one column for a numeric one.
        """
        offsets, columns, values = [], [], []
        pos = 0
        for spec in self.parameters:
            offsets.append(len(columns))
            if isinstance(spec.kind, Categorical):
                columns += range(pos, pos + spec.size)
                values += [1.0] * spec.size
                pos += spec.size
            else:
                lo, span = spec.kind.lo, spec.kind.hi - spec.kind.lo
                columns += [pos] * spec.size
                values += [(spec.value(k) - lo) / span if span else 0.0 for k in range(spec.size)]
                pos += 1
        return (
            pos,
            np.array(offsets, dtype=np.int64),
            np.array(columns, dtype=np.int64),
            np.array(values, dtype=float),
        )

    @cached_property
    def _grid_values(self) -> tuple[tuple[str, tuple], ...]:
        """Per parameter: its name and the concrete value of every grid index."""
        return tuple(
            (spec.name, tuple(spec.value(k) for k in range(spec.size))) for spec in self.parameters
        )

    def __len__(self) -> int:
        return len(self.parameters)

    def validate_point(self, point: DesignPoint) -> None:
        if len(point) != len(self.parameters):
            raise ValueError(f"point has {len(point)} values, space has {len(self.parameters)}")
        for spec, size, k in zip(self.parameters, self.sizes, point):
            if not 0 <= k < size:
                raise ValueError(f"index {k} out of range for parameter {spec.name!r}")


def cardinality(space: ParameterSpace) -> int:
    """Exact number of points (arbitrary-precision integer)."""
    n = 1
    for p in space.parameters:
        n *= p.size
    return n


def sample_uniform(space: ParameterSpace, rng: np.random.Generator) -> DesignPoint:
    """One point: row 0 of `sample_uniform_indices(space, rng, 1)`, draw for draw.

    Given an array of bounds, numpy draws each element on its own, as a
    one-row batch draws each column, so one call replaces one per parameter.
    """
    return tuple(rng.integers(0, space._bounds).tolist())


def sample_uniform_indices(space: ParameterSpace, rng: np.random.Generator, n: int) -> np.ndarray:
    """An (n, len(space)) grid-index array.

    One draw of a (len(space), n) array fills parameter by parameter, n
    draws each, so it consumes the generator exactly as one `integers(0,
    size, n)` call per parameter would.
    """
    return rng.integers(0, space._bounds[:, None], size=(len(space), n)).T


def enumerate_points(space: ParameterSpace, limit: int) -> Iterator[DesignPoint]:
    """Every point exactly once, first parameter varying slowest."""
    if cardinality(space) > limit:
        raise SpaceTooLargeError(
            f"space too large to enumerate: {cardinality(space)} > limit {limit}"
        )
    yield from itertools.product(*(range(s) for s in space.sizes))


def encode_dim(space: ParameterSpace) -> int:
    return space._encoding[0]


def encode(space: ParameterSpace, point: DesignPoint) -> np.ndarray:
    """One-hot per categorical parameter, min-max scalar per numeric one."""
    return encode_batch(space, [point])[0]


def check_indices(space: ParameterSpace, indices) -> np.ndarray:
    """`indices` as an (n, len(space)) integer array of in-range grid indices."""
    indices = np.asarray(indices)
    if indices.size == 0:  # an empty batch, or points of a space without parameters
        indices = indices.astype(np.int64)
    if indices.ndim != 2 or indices.shape[1] != len(space) or indices.dtype.kind not in "iu":
        raise ValueError(
            f"expected an (n, {len(space)}) integer index array, "
            f"got shape {indices.shape} of {indices.dtype}"
        )
    bad = (indices < 0) | (indices >= space._bounds)
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))  # the first parameter, then its first row
        k = indices[bad[:, j], j][0]
        raise ValueError(f"index {k} out of range for parameter {space.parameters[j].name!r}")
    return indices


def encode_batch(space: ParameterSpace, indices) -> np.ndarray:
    """`encode` of every row of an (n, len(space)) grid-index array."""
    indices = check_indices(space, indices)
    width, offsets, columns, values = space._encoding
    out = np.zeros((len(indices), width))
    # Row blocks keep the (rows, len(space)) temporaries small: glibc may
    # serve an allocation over 128 KiB with a fresh mmap, whose page faults
    # cost more than the scatter itself (3x on full dram at 4,000 rows).
    step = max(1, _ENCODE_BLOCK // max(1, len(space)))
    for start in range(0, len(indices), step):
        flat = indices[start : start + step].astype(np.int64, copy=False) + offsets
        cells = columns[flat] + width * np.arange(start, start + len(flat))[:, None]
        out.ravel()[cells] = values[flat]
    return out


def resample_position(
    space: ParameterSpace, point: DesignPoint, pos: int, rng: np.random.Generator
) -> DesignPoint:
    """Resample one position uniformly over its domain excluding the current value."""
    size = space.parameters[pos].size
    if size == 1:
        return point
    new = int(rng.integers(0, size - 1))
    if new >= point[pos]:
        new += 1
    return point[:pos] + (new,) + point[pos + 1 :]


def neighbor(space: ParameterSpace, point: DesignPoint, rng: np.random.Generator) -> DesignPoint:
    """Copy of point with exactly one uniformly chosen parameter resampled."""
    space.validate_point(point)
    pos = int(rng.integers(0, len(space.parameters)))
    return resample_position(space, point, pos, rng)


def design_map(space: ParameterSpace, point: DesignPoint) -> dict:
    """Name -> concrete value view used in records and wire formats.

    The point's indices must lie on the grid (see `validate_point`).
    """
    return {name: values[k] for (name, values), k in zip(space._grid_values, point)}


def point_from_map(space: ParameterSpace, values: Mapping) -> DesignPoint:
    indices = []
    for spec in space.parameters:
        if spec.name not in values:
            raise ValueError(f"missing parameter {spec.name!r}")
        indices.append(spec.index_of(values[spec.name]))
    point = tuple(indices)
    space.validate_point(point)
    return point


# ---------------------------------------------------------------------------
# Space definition files


def space_from_config(config: Sequence[Mapping]) -> ParameterSpace:
    """Build a space from the parameter-list schema used in fixture files.

    Each entry is either
      {name: ..., kind: categorical, values: [...]}
    or
      {name: ..., kind: numeric, min: ..., max: ..., step: ...}
    (`kind` may be omitted; it is inferred from the keys.)
    """
    params = []
    for entry in config:
        name = entry["name"]
        kind = entry.get("kind")
        if kind is None:
            kind = "categorical" if "values" in entry else "numeric"
        if kind == "categorical":
            params.append(ParameterSpec(name, Categorical(tuple(str(v) for v in entry["values"]))))
        elif kind == "numeric":
            params.append(ParameterSpec(name, Numeric(entry["min"], entry["max"], entry["step"])))
        else:
            raise ValueError(f"unknown parameter kind {kind!r} for {name!r}")
    return ParameterSpace(tuple(params))


def space_to_config(space: ParameterSpace) -> list[dict]:
    out = []
    for p in space.parameters:
        if isinstance(p.kind, Categorical):
            out.append({"name": p.name, "kind": "categorical", "values": list(p.kind.values)})
        else:
            out.append(
                {
                    "name": p.name,
                    "kind": "numeric",
                    "min": p.kind.lo,
                    "max": p.kind.hi,
                    "step": p.kind.step,
                }
            )
    return out


def load_space(path) -> ParameterSpace:
    with open(path, encoding="utf-8") as f:
        doc = yaml.safe_load(f)
    if isinstance(doc, dict):
        doc = doc["parameters"]
    return space_from_config(doc)
