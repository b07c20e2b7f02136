"""The synthetic generator's raw-stream reader against numpy itself.

``synthetic._RawStream`` reproduces ``Generator.random()`` and
``Generator.integers(lo, hi)`` from the bit generator's raw 64-bit
values.  Every value must equal what a ``np.random.default_rng`` in the
same state returns, whatever state the bulk draws left (a buffered
32-bit half included), whatever the range, and wherever a block refill
falls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.synthetic import _RawStream

#: bulk draws before the reader takes over, as ``generate``'s are
PRELUDES = {
    "none": lambda rng: None,
    "random": lambda rng: rng.random(3),
    "permutation": lambda rng: rng.permutation(37),
    "bounded": lambda rng: rng.integers(0, 5),   # keeps a 32-bit half
    "normal": lambda rng: rng.normal(0.5, 0.1, 4),
}

#: range sizes ``hi - lo``: no draw, small, powers of two, both sides of
#: the 32-bit boundary, ranges that reject often, and anything up to 2**62
RANGES = st.one_of(
    st.sampled_from([1, 2, 3, 5, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**30,
                     2**31 + 1, 3 * 2**61, 2**62 + 3]),
    st.integers(0, 62).map(lambda k: 1 << k),
    st.integers(1, 2**62))

#: ``None`` is a ``random()``; ``(lo, n)`` is ``integers(lo, lo + n)``
DRAWS = st.lists(st.one_of(st.none(),
                           st.tuples(st.integers(0, 2**20), RANGES)),
                 max_size=150)


def twin(seed, prelude):
    """Two generators in the same state after ``prelude``."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    for rng in pair:
        PRELUDES[prelude](rng)
    return pair


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.sampled_from(sorted(PRELUDES)),
       st.sampled_from([1, 2, 3, 1024]), DRAWS)
def test_reader_equals_numpy(seed, prelude, block, draws):
    rng, ref = twin(seed, prelude)
    stream = _RawStream(rng, block)
    for draw in draws:
        if draw is None:
            got, want = stream.random(), ref.random()
            assert type(got) is float
        else:
            lo, n = draw
            got, want = stream.integers(lo, lo + n), ref.integers(lo, lo + n)
            assert type(got) is int
        assert got == want, draw


@pytest.mark.parametrize("block", [1, 2])
def test_refill_between_a_buffered_half_and_its_use(block):
    """A 32-bit draw keeps the high half of its raw value; the random()
    calls in between refill the block before the half is used."""
    rng, ref = twin(7, "bounded")
    assert rng.bit_generator.state["has_uint32"] == 1
    stream = _RawStream(rng, block)
    assert stream.integers(3, 11) == ref.integers(3, 11)   # the kept half
    for _ in range(3):
        assert stream.integers(1, 4) == ref.integers(1, 4)  # new raw
        assert stream.random() == ref.random()
        assert stream.random() == ref.random()
        assert stream.integers(1, 4) == ref.integers(1, 4)  # its half


@pytest.mark.parametrize("n", [3 * 2**30, 3 * 2**61])
@pytest.mark.parametrize("block", [1, 1024])
def test_ranges_that_reject_often(n, block):
    """A quarter of the products fall below the rejection threshold for
    these ranges (32- and 64-bit), so hundreds of draws redraw often."""
    rng, ref = twin(11, "bounded")
    stream = _RawStream(rng, block)
    assert [stream.integers(1, 1 + n) for _ in range(400)] \
        == [int(ref.integers(1, 1 + n)) for _ in range(400)]
    assert stream.random() == ref.random()


def test_a_range_of_one_draws_nothing():
    rng, ref = twin(3, "none")
    stream = _RawStream(rng, 1)
    assert [stream.integers(9, 10) for _ in range(5)] == [9] * 5
    assert stream.random() == ref.random()
