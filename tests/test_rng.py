"""Counter-based RNG substreams: reproducible and order-independent."""

import numpy as np
import pytest

from gml.errors import GmlInputError
from gml.rng import (
    open_uniform,
    open_uniform_array,
    scaled_unit_vectors,
    substream,
    trial_streams,
    unit_vector,
    unit_vector_array,
)

from _oracles import ScriptedNormals, open_uniform_loop


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
    """Same values and same generator position as ``size`` one-value draws of
    the loop; on (1, 1 + 4 ulp) draws land on an end and are redrawn."""
    redrawn = 0
    for k in range(100):
        size = 1 + k % 12
        block, loop = substream(13, k), substream(13, k)
        got = open_uniform_array(block, low, high, size)
        want = [open_uniform_loop(loop, low, high) for _ in range(size)]
        assert got.tolist() == want, k
        assert _position(block) == _position(loop), k
        redrawn += int(substream(13, k).uniform(low, high, size).tolist() != want)
    assert (redrawn > 50) == (high - low < 1e-12)


@pytest.mark.parametrize("low, high", [(0.0, 1.0), (0.0, 3.7e-3), (-2.5, 10.0),
                                       (1.0, 1.0 + 4 * np.finfo(float).eps), (0.0, 1e-323)],
                         ids=["unit", "small", "wide", "four-ulp", "subnormal"])
def test_open_uniform_replays_the_scalar_loop(low, high):
    """open_uniform draws the values of the one-value loop and leaves the
    generator where the loop does, also where draws land on an end."""
    redrawn = 0
    for k in range(20):
        one, loop = substream(16, k), substream(16, k)
        for _ in range(1 + k % 5):
            got, want = open_uniform(one, low, high), open_uniform_loop(loop, low, high)
            assert type(got) is float and got == want, k
            assert _position(one) == _position(loop), k
        redrawn += int(not low < substream(16, k).uniform(low, high) < high)
    assert (redrawn > 0) == (high - low < 1e-12)


class _ScriptedUniforms:
    """A generator that hands out a fixed list of uniform draws in order,
    whatever the interval; its state is the read position."""

    def __init__(self, values):
        self.values, self.state = list(values), 0

    def uniform(self, low, high, size=None):
        n = 1 if size is None else size
        out = self.values[self.state:self.state + n]
        self.state += n
        return out[0] if size is None else np.array(out)


@pytest.mark.parametrize("values", [[0.0, 0.25, 0.5, 0.75], [1.0, 0.25, 0.5, 0.75],
                                    [0.0, 0.25, 0.5, 1.0, 0.75]],
                         ids=["first-on-low", "first-on-high", "low-then-high"])
def test_open_uniform_array_redraws_a_first_block_draw_on_an_end(values):
    """A first block with a draw on an end is not returned: that draw is
    dropped and redrawn, to the values and position of three one-value draws
    of the loop."""
    block, loop = _ScriptedUniforms(values), _ScriptedUniforms(values)
    got = open_uniform_array(block, 0.0, 1.0, 3)
    want = [open_uniform_loop(loop, 0.0, 1.0) for _ in range(3)]
    assert got.tolist() == want == [0.25, 0.5, 0.75]
    assert block.state == loop.state == len(values)


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


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_unit_vector_array_replays_the_scalar_loop(dim):
    """Same rows, bit for bit, and same generator position as ``size``
    unit_vector calls."""
    for k in range(100):
        size = k % 12
        block, loop = substream(15, k), substream(15, k)
        got = unit_vector_array(block, dim, size)
        want = np.reshape([unit_vector(loop, dim) for _ in range(size)], (size, dim))
        assert got.shape == (size, dim) and got.tobytes() == want.tobytes(), k
        assert _position(block) == _position(loop), k


def test_unit_vector_array_redraws_null_rows_like_unit_vector():
    """A null first row, and null rows in the redraw, are dropped in order:
    the block reads the same 6 rows as three unit_vector calls."""
    rows = [[0.0, 0.0], [3.0, 4.0], [1e-13, 0.0], [0.0, 0.0], [0.0, -2.0], [5.0, 12.0], [1.0, 1.0]]
    block, loop = ScriptedNormals(np.ravel(rows)), ScriptedNormals(np.ravel(rows))
    got = unit_vector_array(block, 2, 3)
    want = [unit_vector(loop, 2) for _ in range(3)]
    assert got.tolist() == [w.tolist() for w in want] == [[0.6, 0.8], [0.0, -1.0], [5 / 13, 12 / 13]]
    assert block.state == loop.state == 12


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_scaled_unit_vectors_replay_the_one_call_loop(dim):
    """Same rows, bit for bit, and same generator position as a loop of
    unit_vector and uniform calls, each direction before its length."""
    for k in range(100):
        size = k % 20
        block, loop = substream(16, k), substream(16, k)
        got = scaled_unit_vectors(block, dim, size, 0.75)
        want = np.reshape([unit_vector(loop, dim) * loop.uniform(0.0, 0.75) for _ in range(size)],
                          (size, dim))
        assert got.shape == (size, dim) and got.tobytes() == want.tobytes(), k
        assert _position(block) == _position(loop), k


def test_scaled_unit_vectors_redraw_a_null_direction_before_its_length():
    """A null direction is redrawn from the next normals, as unit_vector
    redraws it, and only then is the length drawn."""
    script = [3.0, 4.0, 0.5, 0.0, 0.0, 5.0, 12.0, 0.25, 0.0, -2.0, 1.0, 7.0]
    block, loop = ScriptedNormals(script), ScriptedNormals(script)
    got = scaled_unit_vectors(block, 2, 3, 2.0)
    want = [unit_vector(loop, 2) * loop.uniform(0.0, 2.0) for _ in range(3)]
    assert got.tolist() == [w.tolist() for w in want] == [[0.6, 0.8], [5 / 26, 12 / 26], [0.0, -2.0]]
    assert block.state == loop.state == 11


def _plain(state: dict) -> dict:
    """A bit generator state with its arrays as (dtype, values) pairs."""
    return {k: _plain(v) if isinstance(v, dict) else
            (v.dtype.str, v.tolist()) if isinstance(v, np.ndarray) else v
            for k, v in state.items()}


@pytest.mark.parametrize("seed, trial_index", [(0, 0), (2**63, 1), (2**64 - 1, 2**64 - 1)])
def test_substream_is_the_philox_stream_of_its_key(seed, trial_index):
    """substream skips Philox's default seed sequence: the state and draws
    are those of Philox(key=[seed, trial_index])."""
    got = substream(seed, trial_index)
    want = np.random.Generator(np.random.Philox(key=[seed, trial_index]))
    assert _plain(got.bit_generator.state) == _plain(want.bit_generator.state)
    assert got.standard_normal(7).tolist() == want.standard_normal(7).tolist()
    assert got.integers(0, 2**62, 5).tolist() == want.integers(0, 2**62, 5).tolist()
    assert _plain(got.bit_generator.state) == _plain(want.bit_generator.state)


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_trial_streams_rekey_to_the_substream_state(seed):
    """Each re-key sets the whole state ``substream(seed, k)`` starts from,
    also after a float32 draw has left half a word buffered: key, counter,
    buffer, ``buffer_pos``, ``has_uint32`` and ``uinteger``."""
    for k, gen in trial_streams(seed, 4):
        assert _plain(gen.bit_generator.state) == _plain(substream(seed, k).bit_generator.state), k
        gen.random(dtype=np.float32)
        assert gen.bit_generator.state["has_uint32"] == 1


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
