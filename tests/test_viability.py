"""Random substreams: reproducible, path-addressed, seed-dependent."""

import numpy as np
import pytest

from streamres.viability import TRIAL_BLOCK, Rng


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


def same_stream(a, b):
    return a.bit_generator.state == b.bit_generator.state and np.array_equal(
        a.random(8), b.random(8)
    )


class TestSubstreams:
    @pytest.mark.parametrize("seed", [0, 42, 2**32 + 5, 2**128 + 7])
    @pytest.mark.parametrize("path", [(), (31,), (2**32 + 1, 3)])
    def test_equal_scalar_substreams_across_a_block_edge(self, seed, path):
        rng = Rng(seed, path)
        lo, hi = TRIAL_BLOCK - 3, TRIAL_BLOCK + 3
        block = rng.substreams(lo, hi)
        assert len(block) == hi - lo
        for index, gen in zip(range(lo, hi), block):
            assert same_stream(gen, rng.substream(index))

    def test_largest_index_and_empty_range(self):
        rng = Rng(7, (2,))
        (last,) = rng.substreams(2**32 - 1, 2**32)
        assert same_stream(last, rng.substream(2**32 - 1))
        assert rng.substreams(5, 5) == []

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (0, 2**32 + 1), (3, 2)])
    def test_indices_outside_one_word_raise(self, lo, hi):
        with pytest.raises(ValueError):
            Rng(1).substreams(lo, hi)

    def test_bad_seed_raises_like_substream(self):
        with pytest.raises(ValueError):
            Rng(-1).substream(0)
        with pytest.raises(ValueError):
            Rng(-1).substreams(0, 1)
