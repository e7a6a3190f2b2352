import numpy as np
import pytest

from rdsgls.seeding import STREAM_NETWORK, derive_rng

# offsets on both sides of each four-draw Philox block, plus a far one
OFFSETS = list(range(10)) + [4 * j + d for j in (3, 17, 250) for d in (-1, 1)] + [1_000_003]


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("m", [1, 5, 11])
def test_offset_continues_the_stream(offset, m):
    seed = 20170
    tail = derive_rng(seed, STREAM_NETWORK, offset=offset).random(m)
    full = derive_rng(seed, STREAM_NETWORK).random(offset + m)
    assert np.array_equal(tail, full[offset:])


def test_zero_offset_is_the_plain_stream():
    for stream in range(4):
        a = derive_rng(7, stream).random(9)
        b = derive_rng(7, stream, offset=0).random(9)
        assert np.array_equal(a, b)


def test_streams_and_seeds_differ():
    a = derive_rng(7, 0).random(4)
    assert not np.array_equal(a, derive_rng(7, 1).random(4))
    assert not np.array_equal(a, derive_rng(8, 0).random(4))
