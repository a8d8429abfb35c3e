"""Counter-based random streams with per-trial substreams.

Every randomized routine in the package draws from a Philox generator
keyed by ``(seed, trial_index)``.  Philox is counter based, so the
stream of one trial never overlaps another and replaying a single
failed trial needs only its ``(seed, trial_index)`` pair.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GmlInputError, check_integer


def _key(seed: int, trial_index: int) -> np.ndarray:
    """Philox key of one trial's stream, from checked keys."""
    return np.array([seed, trial_index], dtype=np.uint64)


def substream(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Independent generator for one trial, keyed by (seed, trial_index)."""
    key = _key(check_integer(seed, "seed"), check_integer(trial_index, "trial index"))
    return np.random.Generator(np.random.Philox(key=key))


def trial_streams(seed: int, n: int):
    """Yield ``(k, generator)`` for k = 0..n-1, drawing exactly as
    ``substream(seed, k)`` would.

    One private Philox generator is re-keyed to ``[seed, k]`` through its
    ``state`` (counter 0, empty buffer) instead of being constructed
    anew, which is several times cheaper.  The yielded generator is only
    valid until the next iteration: the next step re-keys it, so keep
    draws, never the generator.
    """
    seed = check_integer(seed, "seed")
    bitgen = np.random.Philox(key=_key(seed, 0))
    gen = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    inner = {"counter": zeros}
    state = {"bit_generator": "Philox", "state": inner,
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k in range(n):
        inner["key"] = _key(seed, k)
        bitgen.state = state  # the setter copies the values
        yield k, gen


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform draw from the unit sphere in R^dim."""
    while True:
        v = rng.standard_normal(dim)
        nrm = math.sqrt(v.dot(v))  # bit for bit np.linalg.norm(v), without its overhead
        if nrm > 1e-12:
            return v / nrm


def _require_interior(low: float, high: float) -> None:
    """Some float lies strictly inside (low, high), else GmlInputError: the
    draws below would never land inside."""
    if not math.nextafter(low, math.inf) < high:
        raise GmlInputError(f"no float lies strictly inside ({low!r}, {high!r})")


def open_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """Uniform draw guaranteed to land strictly inside (low, high)."""
    _require_interior(low, high)
    while True:
        x = float(rng.uniform(low, high))
        if low < x < high:
            return x


def open_uniform_array(rng: np.random.Generator, low: float, high: float, size: int) -> np.ndarray:
    """``size`` uniform draws strictly inside (low, high), from one block draw.

    A draw that lands on an end is dropped in order and exactly the missing
    count is drawn again, so the values and the generator's position after
    them are those of ``size`` ``open_uniform`` calls.
    """
    _require_interior(low, high)
    x = np.empty(0)
    while x.size < size:
        draws = rng.uniform(low, high, size - x.size)
        x = np.concatenate([x, draws[(low < draws) & (draws < high)]])
    return x
