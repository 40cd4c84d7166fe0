"""Reproducible random substreams.

Rng hands out path-addressed substreams, so a draw depends on the seed and
the path alone.  A depletion run and the speedup estimate each key one
substream, monotonicity one per trial and SimTransport one per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Rng"]


@dataclass(frozen=True, slots=True)
class Rng:
    """Root of a splittable random stream.

    substream(i, j, ...) derives an independent generator addressed purely
    by the integer path.  split() extends the path prefix, giving each
    experiment its own namespace under one seed.
    """

    seed: int
    path: tuple[int, ...] = ()

    def split(self, *path: int) -> "Rng":
        return Rng(self.seed, self.path + path)

    def substream(self, *path: int) -> np.random.Generator:
        # PCG64 named outright, not default_rng's choice, so a numpy that
        # changes its default bit generator cannot move a pinned digest.
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path + path)
        return np.random.Generator(np.random.PCG64(seq))
