"""Seeding helpers.

Every stochastic operation in the package takes an explicit
``numpy.random.Generator``.  All generators are built here on top of the
Philox counter-based bit generator so that trials running in parallel get
independent, bitwise-reproducible streams.
"""

from __future__ import annotations

import numpy as np

from .core import natural_number, shown


def make_rng(*entropy: int) -> np.random.Generator:
    """Build a Generator from one or more integer seed components.

    Components are combined through a SeedSequence, so ``make_rng(7)`` and
    ``make_rng(7, 1)`` are independent streams.
    """
    if not entropy:
        raise ValueError("at least one seed component is required")
    seq = np.random.SeedSequence(_words(entropy))
    return np.random.Generator(np.random.Philox(seq))


def spawn_seeds(master: int, n: int) -> list[int]:
    """Derive n child seeds from a master seed (stable across runs)."""
    children = np.random.SeedSequence(_words((master,))).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def _words(entropy) -> list[int]:
    """Seed components as ints in [0, 2**64); any other is refused, not
    wrapped, so two distinct seeds never give one stream."""
    words = [int(e) for e in entropy]
    for word in words:
        if not 0 <= word < 2**64:
            raise ValueError(f"seed component must lie in [0, 2**64), got {shown(word)}")
    return words


def check_seed(seed) -> None:
    """A seed a caller passes is an int64 >= 0, so two seeds never share one stream."""
    if not natural_number(seed):
        raise ValueError(f"seed must be an int64 >= 0, got {shown(seed)}")


def digest_stream(digest: str) -> int:
    """Map a hyperparameter digest string to a 64-bit stream id."""
    if not digest:
        return 0
    return int(digest[:16], 16)
