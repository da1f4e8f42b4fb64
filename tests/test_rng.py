import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhplab.rng import RngStream


def test_same_stream_reproduces_bitwise():
    a = RngStream(123, 4).generator().random(100)
    b = RngStream(123, 4).generator().random(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, 0).generator().random(100)
    b = RngStream(123, 1).generator().random(100)
    assert not np.array_equal(a, b)


def test_partition_is_disjoint_and_deterministic():
    parts = RngStream(9).partition(8)
    assert len({p.stream for p in parts}) == 8
    again = RngStream(9).partition(8)
    assert parts == again


@given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 20),
       st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_substreams_of_distinct_streams_never_collide(seed, s, i, j):
    a = RngStream(seed, s).substream(i)
    b = RngStream(seed, s + 1).substream(j)
    assert a.stream != b.stream


def test_substream_index_range():
    # the largest index stays below the next stream's first substream
    top = RngStream(1, 0).substream(1_000_002)
    assert top.stream != RngStream(1, 1).substream(0).stream
    RngStream(1, 0).substream(0)
    for i in (-1, 1_000_003):
        with pytest.raises(ValueError):
            RngStream(1, 0).substream(i)


def test_invalid_seed_rejected():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(0, -2)
