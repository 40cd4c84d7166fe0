"""Random substreams: reproducible, path-addressed, seed-dependent."""

import numpy as np

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
