"""Counter-based RNG substreams: reproducible and order-independent."""

import numpy as np
import pytest

from gml.errors import GmlInputError
from gml.rng import open_uniform, open_uniform_array, substream, trial_streams, unit_vector


def test_substream_reproducible():
    a = substream(42, 7).standard_normal(5)
    b = substream(42, 7).standard_normal(5)
    assert np.array_equal(a, b)


def test_substreams_independent_of_consumption_order():
    # draws from trial 3 are identical whether or not trial 2 ran first
    first = substream(9, 3).standard_normal(4)
    substream(9, 2).standard_normal(100)
    second = substream(9, 3).standard_normal(4)
    assert np.array_equal(first, second)


def test_distinct_trials_differ():
    a = substream(1, 0).standard_normal(8)
    b = substream(1, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_open_uniform_stays_interior():
    rng = substream(11, 0)
    for _ in range(200):
        v = open_uniform(rng, 0.0, 1.0)
        assert 0.0 < v < 1.0


def _position(rng):
    """A Philox generator's place in its stream: counter and buffered words."""
    state = rng.bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer"].tolist(), state["buffer_pos"]


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.0, 3.7e-3), (0.0, 10.0),
                                       (1.0, 1.0 + 4 * np.finfo(float).eps)],
                         ids=["unit", "small", "ten", "four-ulp"])
def test_open_uniform_array_replays_the_scalar_loop(low, high):
    """Same values and same generator position as ``size`` open_uniform
    calls; on (1, 1 + 4 ulp) draws land on an end and are redrawn."""
    redrawn = 0
    for k in range(100):
        size = 1 + k % 12
        block, loop = substream(13, k), substream(13, k)
        got = open_uniform_array(block, low, high, size)
        want = [open_uniform(loop, low, high) for _ in range(size)]
        assert got.tolist() == want, k
        assert _position(block) == _position(loop), k
        redrawn += int(substream(13, k).uniform(low, high, size).tolist() != want)
    assert (redrawn > 50) == (high - low < 1e-12)


class _BoundedDraws:
    """A generator that fails the test after 100 draws instead of drawing forever."""

    def __init__(self):
        self.rng, self.calls = substream(14, 0), 0

    def uniform(self, low, high, size=None):
        self.calls += 1
        assert self.calls <= 100, "no float lies inside: the draws never end"
        return self.rng.uniform(low, high, size)


@pytest.mark.parametrize("low, high", [(0.0, 0.0), (0.0, 5e-324), (1.0, np.nextafter(1.0, 2.0)),
                                       (1.0, 0.5), (0.0, np.nan)],
                         ids=["empty", "subnormal", "one-ulp", "reversed", "nan"])
def test_open_interval_without_a_float_inside_raises(low, high):
    for draw in (lambda rng: open_uniform(rng, low, high),
                 lambda rng: open_uniform_array(rng, low, high, 3)):
        rng = _BoundedDraws()
        with pytest.raises(GmlInputError, match="strictly inside"):
            draw(rng)
        assert rng.calls == 0


def test_unit_vector_is_normalized():
    rng = substream(12, 0)
    for dim in (1, 2, 5):
        v = unit_vector(rng, dim)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


@pytest.mark.parametrize("seed, trial_index", [(-1, 3), (2**64, 3), (5, -1), (5, 2**64),
                                               (1.5, 0), (5, 2.0), ("5", 0), (None, 0),
                                               (True, 0), (5, True)])
def test_substream_rejects_keys_outside_64_bits(seed, trial_index):
    """substream(-1, 3) would draw what substream(2**64 - 1, 3) draws."""
    with pytest.raises(GmlInputError):
        substream(seed, trial_index)


@pytest.mark.parametrize("seed", [-1, 2**64, 2.0, True])
def test_trial_streams_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(GmlInputError, match="seed"):
        list(trial_streams(seed, 3))


def test_numpy_integer_keys_draw_as_their_value():
    top = 2**64 - 1
    want = substream(top, 3).standard_normal(4)
    assert np.array_equal(substream(np.uint64(top), np.int8(3)).standard_normal(4), want)
    streams = [gen.standard_normal(4) for _, gen in trial_streams(np.uint64(top), 4)]
    assert np.array_equal(streams[3], want)
