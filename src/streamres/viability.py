"""Reproducible random substreams.

Rng hands out path-addressed substreams, so a draw depends on the seed and
the path alone, never on how work is scheduled.  Depletion keys one
substream per TRIAL_BLOCK trials, the speedup estimate one for all its
trials, monotonicity one per trial and SimTransport one per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Rng", "TRIAL_BLOCK"]

# Trials per depletion substream.  Even, so antithetic pairs never straddle
# two blocks.
TRIAL_BLOCK = 256


@dataclass(frozen=True, slots=True)
class Rng:
    """Root of a splittable random stream.

    substream(i, j, ...) derives an independent generator addressed purely
    by the integer path, so trial i draws identically whether trials run
    serially, threaded, or in any order.  split() extends the path prefix,
    giving each experiment its own namespace under one seed.
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
