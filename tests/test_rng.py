"""Seed mixing and stream reproducibility."""

import numpy as np

from swissmc import RngStream, mix_seed
from swissmc.rng import splitmix64


def test_splitmix64_stays_in_64_bits():
    state = 0
    for _ in range(1000):
        state = splitmix64(state)
        assert 0 <= state < 2**64


def test_mix_seed_deterministic_and_order_sensitive():
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    assert mix_seed(1, 2, 3) != mix_seed(3, 2, 1)
    assert mix_seed(0) != mix_seed(1)


def test_mix_seed_accepts_negative_parts():
    assert mix_seed(-1, 5) == mix_seed(2**64 - 1, 5)


def test_streams_replay_identically():
    a = RngStream(42, 3).generator().standard_normal(100)
    b = RngStream(42, 3).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(42, 0).generator().standard_normal(100)
    b = RngStream(42, 1).generator().standard_normal(100)
    c = RngStream(43, 0).generator().standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_streams_look_independent():
    # crude cross-correlation check across 200 stream pairs
    rho = []
    for stream in range(200):
        x = RngStream(7, stream).generator().standard_normal(500)
        y = RngStream(7, stream + 1).generator().standard_normal(500)
        rho.append(np.corrcoef(x, y)[0, 1])
    assert np.max(np.abs(rho)) < 0.25
    assert abs(np.mean(rho)) < 0.01
