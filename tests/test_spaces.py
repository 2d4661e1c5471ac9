import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.stats import chisquare

from dsegym.rng import make_rng
from dsegym.spaces import (
    Categorical,
    Numeric,
    ParameterSpace,
    cardinality,
    design_map,
    encode,
    encode_dim,
    point_from_map,
    resample_position,
    sample_uniform,
    sample_uniform_indices,
    space_from_config,
    space_to_config,
)

from .strategies import spaces


def make_space(*parameters):
    return ParameterSpace(tuple(parameters))


TWO_BY_TWO = make_space(
    Categorical("A", ("x", "y")),
    Numeric("B", 1, 2, 1),
)


class TestCardinality:
    def test_numeric_grid_enumerated(self):
        # oracle: count the grid values directly
        space = make_space(Numeric("NumPEs", 14, 336, 14))
        grid = [14 + 14 * k for k in range(1000) if 14 + 14 * k <= 336]
        assert len(grid) == 24
        assert cardinality(space) == 24

    def test_categorical_count(self):
        space = make_space(Categorical("S", ("Fifo", "FrFcFs", "FrFcFsGrp")))
        assert cardinality(space) == 3

    def test_full_memory_controller_space_matches_documented_total(self):
        from dsegym.envs import get_space

        assert f"{cardinality(get_space('dram')):.1e}" == "1.9e+07"

    def test_non_multiple_span_truncates(self):
        assert cardinality(make_space(Numeric("n", 0, 10, 3))) == 4  # 0,3,6,9

    @given(spaces())
    @settings(max_examples=60)
    def test_matches_enumeration_length(self, space):
        n = cardinality(space)
        if n <= 10_000:
            assert n == sum(1 for _ in itertools.product(*map(range, space.sizes)))


class TestSampleUniform:
    def test_single_value_space(self):
        space = make_space(Categorical("A", ("x",)))
        rng = make_rng(0)
        assert all(sample_uniform(space, rng) == (0,) for _ in range(10))

    def test_deterministic_per_seed(self):
        points = [sample_uniform(TWO_BY_TWO, make_rng(42)) for _ in range(2)]
        assert points[0] == points[1]

    def test_uniform_frequencies_chi_square(self):
        space = make_space(Numeric("n", 14, 336, 14))
        rng = make_rng(7)
        draws = [sample_uniform(space, rng)[0] for _ in range(24_000)]
        counts = np.bincount(draws, minlength=24)
        # 3 sigma for one cell is ~3*sqrt(1000*(1-1/24)) ~ 94; chi-square is stricter
        assert chisquare(counts).pvalue > 1e-4
        assert np.all(np.abs(counts - 1000) < 3 * np.sqrt(1000 * (1 - 1 / 24)) + 1e-9)

    @given(spaces())
    @settings(max_examples=30)
    def test_samples_always_valid(self, space):
        rng = make_rng(3)
        for _ in range(50):
            space.validate_point(sample_uniform(space, rng))

    def test_batch_matches_domain(self):
        batch = sample_uniform_indices(TWO_BY_TWO, make_rng(5), 100)
        assert batch.shape == (100, 2) and batch.dtype == np.int64
        for row in batch.tolist():
            TWO_BY_TWO.validate_point(tuple(row))


class TestEncode:
    def test_one_hot(self):
        space = make_space(Categorical("A", ("x", "y")))
        assert encode(space, (0,)).tolist() == [1.0, 0.0]

    def test_numeric_min_max_scaling(self):
        space = make_space(Numeric("n", 0, 10, 5))
        assert encode(space, (1,)).tolist() == [0.5]

    def test_dimension(self):
        space = make_space(
            Categorical("A", ("x", "y", "z")),
            Numeric("B", 0, 10, 5),
        )
        assert encode_dim(space) == 4

    def test_invalid_point_rejected(self):
        with pytest.raises(ValueError):
            encode(TWO_BY_TWO, (2, 0))


class TestResamplePosition:
    def test_single_value_space_returns_same_point(self):
        space = make_space(Categorical("A", ("x",)))
        point = (0,)
        assert resample_position(space, point, 0, make_rng(0)) == point

    def test_changes_at_most_one_position(self):
        space = make_space(
            Categorical("a", ("1", "2", "3")),
            Numeric("b", 0, 8, 1),
            Categorical("c", ("u", "v")),
        )
        rng = make_rng(11)
        point = sample_uniform(space, rng)
        for _ in range(200):
            pos = int(rng.integers(0, len(space)))
            new = resample_position(space, point, pos, rng)
            diffs = [k for k, (a, b) in enumerate(zip(new, point)) if a != b]
            assert diffs == [pos]  # every domain here has >= 2 values


class TestGridSemantics:
    def test_max_included_iff_exact_multiple(self):
        exact = Numeric("n", 0, 9, 3)
        assert exact.value(exact.size - 1) == 9
        truncated = Numeric("n", 0, 10, 3)
        assert truncated.value(truncated.size - 1) == 9 <= 10

    def test_float_step_no_drift(self):
        p = Numeric("x", 0.0, 0.3, 0.1)
        assert p.size == 4
        assert p.index_of(p.value(3)) == 3

    def test_off_grid_value_rejected(self):
        with pytest.raises(ValueError, match="not on step grid"):
            Numeric("n", 1, 16, 1).index_of(4.5)


class TestDesignMaps:
    def test_round_trip(self):
        point = (1, 0)
        mapping = design_map(TWO_BY_TWO, point)
        assert mapping == {"A": "y", "B": 1}
        assert point_from_map(TWO_BY_TWO, mapping) == point

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing parameter"):
            point_from_map(TWO_BY_TWO, {"A": "x"})

    def test_integer_grid_values_stay_integers(self):
        assert design_map(TWO_BY_TWO, (0, 1))["B"] == 2
        assert isinstance(design_map(TWO_BY_TWO, (0, 1))["B"], int)


class TestSpaceConfig:
    def test_yaml_round_trip(self, tmp_path):
        import yaml

        config = space_to_config(TWO_BY_TWO)
        path = tmp_path / "space.yaml"
        path.write_text(yaml.safe_dump({"parameters": config}), encoding="utf-8")
        from dsegym.spaces import load_space

        assert load_space(path) == TWO_BY_TWO

    def test_kind_is_required(self):
        entries = [{"name": "A", "kind": "categorical", "values": ["x"]},
                   {"name": "B", "kind": "numeric", "min": 0, "max": 1, "step": 1}]
        space = space_from_config(entries)
        assert space.parameters == (Categorical("A", ("x",)), Numeric("B", 0, 1, 1))
        for entry in entries:
            del entry["kind"]
            message = f"unknown parameter kind None for '{entry['name']}'"
            with pytest.raises(ValueError, match=message):
                space_from_config([entry])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter names"):
            space_from_config([{"name": "A", "kind": "categorical", "values": ["x"]},
                               {"name": "A", "kind": "categorical", "values": ["y"]}])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Categorical("A", ()), "parameter 'A': categorical needs at least one value"),
        (lambda: Categorical("A", ("x", "y", "x")),
         "parameter 'A': duplicate categorical values: ('x', 'y', 'x')"),
        (lambda: Categorical("A", ("x", "y")).index_of("z"),
         "parameter 'A': label 'z' not in ('x', 'y')"),
        (lambda: Numeric("A", 4, 2, 1), "parameter 'A': numeric bounds inverted: (4, 2)"),
        (lambda: Numeric("A", 0, 4, 0), "parameter 'A': step must be positive, got 0"),
        (lambda: Numeric("A", 0, 4, -2), "parameter 'A': step must be positive, got -2"),
        (lambda: Numeric("A", 0, 1, math.inf),
         "parameter 'A': numeric grid must be finite, got (0, 1, inf)"),
        (lambda: Numeric("A", 0, 4, math.nan),
         "parameter 'A': numeric grid must be finite, got (0, 4, nan)"),
        (lambda: Numeric("A", -math.inf, 4, 1),
         "parameter 'A': numeric grid must be finite, got (-inf, 4, 1)"),
        (lambda: Numeric("A", 0, math.inf, 1),
         "parameter 'A': numeric grid must be finite, got (0, inf, 1)"),
        (lambda: Numeric("A", 0, 4, 10**400),
         f"parameter 'A': numeric grid must be finite, got (0, 4, {10**400})"),
        (lambda: space_from_config(
            [{"name": "A", "kind": "numeric", "min": 0, "max": 4, "step": math.nan}]),
         "parameter 'A': numeric grid must be finite, got (0, 4, nan)"),
        (lambda: space_from_config(
            [{"name": "a", "kind": "numeric", "min": 4, "max": 2, "step": 1}]),
         "parameter 'a': numeric bounds inverted: (4, 2)"),
        (lambda: Numeric("A", 0, 4, 2).index_of(-2),
         "parameter 'A': value -2 outside grid (0, 4, 2)"),
        (lambda: Numeric("A", 0, 4, 2).index_of(6),
         "parameter 'A': value 6 outside grid (0, 4, 2)"),
        (lambda: space_from_config([{"name": "A", "kind": "ordinal", "values": ["x"]}]),
         "unknown parameter kind 'ordinal' for 'A'"),
        (lambda: space_from_config([{"name": "A", "kind": ["numeric"], "values": ["x"]}]),
         "unknown parameter kind ['numeric'] for 'A'"),
        (lambda: space_from_config([{"name": "A", "kind": "categorical", "values": [True, 2]}]),
         "values is not a list of strings, got [True, 2]"),
    ],
    ids=["empty-categorical", "duplicate-label", "unknown-label", "inverted-bounds",
         "zero-step", "negative-step", "infinite-step", "nan-step", "infinite-lo", "infinite-hi",
         "huge-int-step", "nan-step-from-config", "inverted-bounds-from-config",
         "below-grid", "above-grid", "unknown-kind", "list-kind", "bool-int-labels"],
)
def test_a_bad_parameter_or_value_is_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
