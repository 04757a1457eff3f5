"""Unit tests for :mod:`repro.utils.random`."""

import numpy as np

from repro.utils.random import derive_rng, make_rng


class TestMakeRng:
    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_integer_seed_is_reproducible(self):
        assert make_rng(42).integers(0, 1000) == make_rng(42).integers(0, 1000)

    def test_existing_generator_passthrough(self):
        generator = np.random.default_rng(7)
        assert make_rng(generator) is generator


class TestDeriveRng:
    def test_same_keys_same_stream(self):
        a = derive_rng(5, 1, 2).integers(0, 10**9)
        b = derive_rng(5, 1, 2).integers(0, 10**9)
        assert a == b

    def test_different_keys_different_stream(self):
        a = derive_rng(5, 1, 2).integers(0, 10**9)
        b = derive_rng(5, 1, 3).integers(0, 10**9)
        assert a != b

    def test_large_keys_do_not_overflow(self):
        generator = derive_rng(2**40, 2**50, 2**60)
        assert 0 <= generator.random() < 1

    def test_none_seed_supported(self):
        assert isinstance(derive_rng(None, 1), np.random.Generator)
