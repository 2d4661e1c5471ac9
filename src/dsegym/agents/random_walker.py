"""Random walker: uniform sampling with a random number generator as policy."""

from __future__ import annotations

import numpy as np

from ..spaces import DesignPoint, sample_uniform_indices
from .base import Agent

_BLOCK = 512


class RandomWalker(Agent):
    agent_type = "RW"

    def __init__(self, space, hyperparams=None):
        super().__init__(space, hyperparams)
        self._buffer: list[DesignPoint] = []

    def propose(self, rng: np.random.Generator) -> DesignPoint:
        # draw in blocks so long trials stay cheap; the stream is still a
        # pure function of the generator state
        if not self._buffer:
            block = sample_uniform_indices(self.space, rng, _BLOCK).tolist()
            self._buffer = list(map(tuple, reversed(block)))
        return self._buffer.pop()
