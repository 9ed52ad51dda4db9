import numpy as np

from taskload import RandomSource


def test_same_key_same_sequence():
    a = RandomSource(123, 7).standard_normal(1000)
    b = RandomSource(123, 7).standard_normal(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RandomSource(123, 0).standard_normal(1000)
    b = RandomSource(123, 1).standard_normal(1000)
    assert not np.array_equal(a, b)
    # crude independence check: correlation of long streams near zero
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_substreams_never_collide_across_parents():
    a = RandomSource(5, 0).substream(3).standard_normal(100)
    b = RandomSource(5, 1).substream(3).standard_normal(100)
    assert not np.array_equal(a, b)


def test_substream_is_reproducible():
    a = RandomSource(5, 2).substream(9).standard_normal(64)
    b = RandomSource(5, 2).substream(9).standard_normal(64)
    assert np.array_equal(a, b)

