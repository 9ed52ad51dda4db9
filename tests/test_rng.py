import numpy as np
import pytest

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


def test_clone_rewinds():
    src = RandomSource(11)
    first = src.standard_normal(10)
    src.standard_normal(1000)
    again = src.clone().standard_normal(10)
    assert np.array_equal(first, again)


def draws(src):
    """The first draws of each kind the harness makes, over several
    shapes, in one fixed order."""
    return [src.poisson(3.5), src.poisson(40.0, 6), src.uniform(),
            src.uniform(7), src.standard_normal(),
            src.standard_normal((4, 3, 3)), src.standard_normal(5)]


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 3, 2**130])
@pytest.mark.parametrize("stream_id", [0, 2**32 - 1, 2**33])
@pytest.mark.parametrize("nested", [False, True])
def test_substreams_match_substream(seed, stream_id, nested):
    # seed 2**130 has five entropy words, more than the pool holds, and
    # stream id 2**32 - 1 is the largest one-word key; the index ranges
    # cover one-, two- and three-word indices, a chunk boundary and the
    # 2**32 word boundary, each from a nonzero start except the first
    src = RandomSource(seed, stream_id)
    if nested:
        src = src.substream(2**35 + 9).substream(4)
    for start, count in ((0, 3), (2**32 - 2, 4), (2**40, 2), (2**64, 1),
                         (4094, 4)):
        for index, child in zip(range(start, start + count),
                                src.substreams(start, count), strict=True):
            ref = src.substream(index)
            assert isinstance(child, RandomSource)
            assert repr(child) == repr(ref)
            assert (child.generator.bit_generator.state
                    == ref.generator.bit_generator.state)
            for got, want in zip(draws(child), draws(ref)):
                assert np.array_equal(got, want)


def test_substreams_of_an_empty_range_and_bad_arguments():
    assert list(RandomSource(3).substreams(10, 0)) == []
    for start, count in ((-1, 2), (0, -1)):
        with pytest.raises(ValueError):
            next(RandomSource(3).substreams(start, count))
