"""Shared hypothesis strategies for randomly generated parameter spaces."""

from __future__ import annotations

import string

from hypothesis import strategies as st

from dsegym.spaces import Categorical, Numeric, ParameterSpace

_NAMES = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@st.composite
def categoricals(draw, name: str, max_values: int = 5):
    n = draw(st.integers(1, max_values))
    return Categorical(name, tuple(f"v{i}" for i in range(n)))


@st.composite
def numerics(draw, name: str, max_count: int = 8):
    lo = draw(st.integers(-10, 10))
    step = draw(st.sampled_from([1, 2, 5, 0.5, 0.25]))
    count = draw(st.integers(1, max_count))
    # hi lands exactly on the grid top or slightly beyond it
    overshoot = draw(st.sampled_from([0.0, 0.5])) * step
    return Numeric(name, lo, lo + (count - 1) * step + overshoot, step)


@st.composite
def spaces(draw, max_params: int = 4, max_values: int = 5, max_count: int = 8):
    n = draw(st.integers(1, max_params))
    return ParameterSpace(tuple(
        draw(st.one_of(categoricals(f"p{i}", max_values), numerics(f"p{i}", max_count)))
        for i in range(n)
    ))


@st.composite
def spaces_with_points(draw, **kwargs):
    space = draw(spaces(**kwargs))
    return space, tuple(draw(st.integers(0, p.size - 1)) for p in space.parameters)
