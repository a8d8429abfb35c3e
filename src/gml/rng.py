"""Counter-based random streams with per-trial substreams.

Every randomized routine in the package draws from a Philox generator
keyed by ``(seed, trial_index)``.  Philox is counter based, so the
stream of one trial never overlaps another and replaying a single
failed trial needs only its ``(seed, trial_index)`` pair.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import GmlInputError, check_integer


def _key(seed: int, trial_index: int) -> np.ndarray:
    """Philox key of one trial's stream, from checked keys."""
    return np.array([seed, trial_index], dtype=np.uint64)


class _KeySeed:
    """Seed sequence whose state is a given Philox key.

    ``Philox(key=k)`` first builds a default ``SeedSequence`` from OS
    entropy and then discards it, about half of a ``substream`` call.
    ``Philox(_KeySeed(k))`` takes its key from ``generate_state(2,
    np.uint64)`` instead: the same state and draws, without the entropy.
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key  # Philox asks for its key: 2 words of uint64


@functools.cache
def _register_key_seed() -> None:
    """Make ``_KeySeed`` a numpy ``ISeedSequence``, at the first stream: the
    base class's module loads ``numpy.random``, which ``import gml`` leaves
    for later (about 15 ms of a CLI command that draws nothing)."""
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_KeySeed)


def _philox(seed: int, trial_index: int) -> np.random.Philox:
    """Philox bit generator of one trial's stream, from checked keys."""
    _register_key_seed()
    return np.random.Philox(_KeySeed(_key(seed, trial_index)))


def substream(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Independent generator for one trial, keyed by (seed, trial_index)."""
    return np.random.Generator(
        _philox(check_integer(seed, "seed"), check_integer(trial_index, "trial index")))


def trial_streams(seed: int, n: int):
    """Yield ``(k, generator)`` for k = 0..n-1, drawing exactly as
    ``substream(seed, k)`` would.

    One private Philox generator is re-keyed to ``[seed, k]`` through its
    ``state`` (counter 0, empty buffer) instead of being constructed
    anew, which is several times cheaper.  The state holds plain ints: the
    setter reads it word by word, and a Python int converts about four
    times faster than a numpy uint64 element, to the same words.  The
    yielded generator is only valid until the next iteration: the next
    step re-keys it, so keep draws, never the generator.
    """
    seed = check_integer(seed, "seed")
    bitgen = _philox(seed, 0)
    gen = np.random.Generator(bitgen)
    key = [seed, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k in range(n):
        key[1] = k
        bitgen.state = state  # the setter copies the values
        yield k, gen


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform draw from the unit sphere in R^dim."""
    while True:
        v = rng.standard_normal(dim)
        nrm = math.sqrt(v.dot(v))  # bit for bit np.linalg.norm(v), without its overhead
        if nrm > 1e-12:
            return v / nrm


def unit_draws(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of (N, dim) normal draws that ``unit_vector`` keeps, scaled to
    unit norm as it scales them, and the mask of those rows: ``unit_vector``
    redraws a draw of norm at most 1e-12.  A stacked ``(1, dim) @ (dim, 1)``
    product gives each row's norm the bits of the 1-row dot."""
    nrm = np.sqrt((v[:, None, :] @ v[:, :, None]).ravel())
    kept = nrm > 1e-12
    return v[kept] / nrm[kept, None], kept


def unit_vector_array(rng: np.random.Generator, dim: int, size: int) -> np.ndarray:
    """``size`` uniform draws from the unit sphere in R^dim, as (size, dim) rows
    of one block draw.

    A null draw is dropped in order and exactly the missing count is drawn
    again, so the rows and the generator's position after them are those of
    ``size`` ``unit_vector`` calls.
    """
    u = np.empty((0, dim))
    while len(u) < size:
        u = np.concatenate([u, unit_draws(rng.standard_normal((size - len(u), dim)))[0]])
    return u


def open_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """Uniform draw guaranteed to land strictly inside (low, high): a
    one-value ``open_uniform_array`` draw."""
    return float(open_uniform_array(rng, low, high, 1)[0])


def open_uniform_array(rng: np.random.Generator, low: float, high: float, size: int) -> np.ndarray:
    """``size`` uniform draws strictly inside (low, high), from one block draw.

    A draw that lands on an end is dropped in order and exactly the missing
    count is drawn again, so the values and the generator's position after
    them are those of ``size`` one-value draws, each redrawn until it lands
    inside.  A first block with no such draw, nearly always, is the answer as
    drawn; on the 1 to 10 values callers draw, a float loop checks it faster
    than numpy calls.  GmlInputError when no float lies strictly inside
    (low, high), before any draw.
    """
    if not math.nextafter(low, math.inf) < high:  # the draws would never land inside
        raise GmlInputError(f"no float lies strictly inside ({low!r}, {high!r})")
    x = rng.uniform(low, high, size)
    if all(low < v < high for v in x.tolist()):
        return x
    x = x[(low < x) & (x < high)]
    while x.size < size:
        draws = rng.uniform(low, high, size - x.size)
        x = np.concatenate([x, draws[(low < draws) & (draws < high)]])
    return x
