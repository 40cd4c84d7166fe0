"""Random substreams: reproducible, path-addressed, seed-dependent."""

from dataclasses import replace

import numpy as np
import pytest

from streamres import simulator
from streamres.simulator import DepletionConfig, _depletion_times, run_depletion
from streamres.viability import Rng


class TestRng:
    def test_substream_reproducible(self):
        a = Rng(42).substream(7).random(16)
        b = Rng(42).substream(7).random(16)
        assert np.array_equal(a, b)

    def test_substreams_differ_by_path(self):
        a = Rng(42).substream(1).random(16)
        b = Rng(42).substream(2).random(16)
        assert not np.array_equal(a, b)

    def test_streams_differ_by_seed(self):
        a = Rng(1).substream(0).random(16)
        b = Rng(2).substream(0).random(16)
        assert not np.array_equal(a, b)

    def test_split_extends_path(self):
        direct = Rng(42).substream(3, 9).random(8)
        via_split = Rng(42).split(3).substream(9).random(8)
        assert np.array_equal(direct, via_split)
        assert Rng(42).split(3).split(9).path == (3, 9)

    def test_sibling_namespaces_independent(self):
        # A trial index under one namespace never collides with another.
        a = Rng(42).split(31).substream(5).random(8)
        b = Rng(42).split(34).substream(5).random(8)
        assert not np.array_equal(a, b)


class TestSubstreams:
    """The one substream a depletion run draws, read in chunks of pairs."""

    @pytest.mark.parametrize("seed", [0, 42, 2**32 + 5, 2**128 + 7])
    @pytest.mark.parametrize("path", [(), (31,), (2**32 + 1, 3)])
    def test_equal_scalar_substreams_across_a_block_edge(self, seed, path):
        rng = Rng(seed, path)
        # Two drained slots read rows of two uniforms, so a chunk of
        # _UNIFORM_CHUNK uniforms covers that many trials.
        edge = 2 * (simulator._UNIFORM_CHUNK // 2)
        lo, hi = edge - 3, edge + 3
        rates = np.array([0.3, 0.4])
        config = DepletionConfig(tuple(rates), horizon=1000, trials=hi, refill=False)
        times = _depletion_times(config, rng)
        # Trial i inverts row i // 2 of the run's scalar substream, or the
        # antithetic partner of that row for odd i.
        rows = rng.substream(0, 2).random(((hi + 1) // 2, 2))
        for index in range(lo, hi):
            row = rows[index // 2]
            uniforms = row if index % 2 == 0 else 1.0 - row
            expected = min((-np.log1p(-uniforms) / rates).max(), config.horizon)
            assert times[index] == pytest.approx(expected, rel=1e-12, abs=0)
        # A shorter run draws a prefix of the same substream.
        shorter = _depletion_times(replace(config, trials=lo), rng)
        assert np.array_equal(shorter, times[:lo])

    def test_bad_seed_raises_like_substream(self):
        with pytest.raises(ValueError):
            Rng(-1).substream(0)
        with pytest.raises(ValueError):
            run_depletion(DepletionConfig((0.5,), trials=10), Rng(-1))
