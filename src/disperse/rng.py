"""Counter-based splittable random streams.

Every random decision in the simulator is a pure function of
(key, counter), where keys are derived by splitting a 64-bit seed.
That gives each particle its own direction and laziness stream,
lets a draw be made when it is needed with no buffered walk (so the
on-demand and predetermined walk modes run the same code), and keeps
replicated runs reproducible under any parallelism level.

The mixer is the splitmix64 finalizer. A scalar (pure Python int)
and a vectorised (numpy uint64) implementation are provided; they
must agree bit for bit and are tested against each other.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GOLDEN",
    "MASK64",
    "DIRECTION_TAG",
    "LAZINESS_TAG",
    "mix64",
    "mix64_array",
    "draw",
    "draw_array",
    "split_key",
    "derive_seed",
    "stream_key",
    "stream_key_array",
    "to_unit",
    "to_unit_array",
    "RandomStream",
]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# Separates key derivation from the draw sequence of the same key.
_SPLIT_SALT = 0x6A09E667F3BCC908

DIRECTION_TAG = 0
LAZINESS_TAG = 1

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit value (scalar)."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _M1) & MASK64
    x = ((x ^ (x >> 27)) * _M2) & MASK64
    return x ^ (x >> 31)


def draw(key: int, counter: int) -> int:
    """The counter-th output (counter >= 1) of the stream `key`."""
    return mix64(key + GOLDEN * counter)


def split_key(key: int, index: int) -> int:
    """Derive child stream `index` from `key`."""
    return mix64(((key & MASK64) ^ _SPLIT_SALT) + GOLDEN * (index + 1))


def derive_seed(master_seed: int, index: int) -> int:
    """Per-replica seed: child `index` of the master seed."""
    return split_key(master_seed, index)


def stream_key(seed: int, particle: int, tag: int) -> int:
    """Key of one particle's stream; tag 0 = direction, 1 = laziness."""
    return split_key(split_key(seed, particle), tag)


def to_unit(raw: int) -> float:
    """Map a 64-bit draw to a float in [0, 1) with 53-bit resolution."""
    return (raw >> 11) * 2.0**-53


# ---------------------------------------------------------------------------
# Vectorised twins (uint64 arrays; overflow wraps mod 2^64 by design).
# ---------------------------------------------------------------------------

_NP_GOLDEN = np.uint64(GOLDEN)
_NP_M1 = np.uint64(_M1)
_NP_M2 = np.uint64(_M2)
_NP_S30 = np.uint64(30)
_NP_S27 = np.uint64(27)
_NP_S31 = np.uint64(31)


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    x ^= x >> _NP_S30
    x *= _NP_M1
    x ^= x >> _NP_S27
    x *= _NP_M2
    x ^= x >> _NP_S31
    return x


def mix64_array(x: np.ndarray) -> np.ndarray:
    return _mix64_inplace(x.astype(np.uint64, copy=True))


def draw_array(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorised `draw` of equal-shape arrays: keys uint64, counters
    cast to uint64."""
    x = counters.astype(np.uint64, copy=True)
    x *= _NP_GOLDEN
    x += keys
    return _mix64_inplace(x)


def stream_key_array(seed: int, particles: int, tag: int) -> np.ndarray:
    """Vectorised `stream_key` of particles 0..particles-1 (uint64)."""
    # Scalar operands are masked Python ints: numpy warns when a uint64
    # scalar wraps, while arrays wrap silently by design.
    x = np.arange(1, particles + 1, dtype=np.uint64)
    x *= _NP_GOLDEN
    x += np.uint64((seed & MASK64) ^ _SPLIT_SALT)
    x = _mix64_inplace(x)  # split_key(seed, particle)
    x ^= np.uint64(_SPLIT_SALT)
    x += np.uint64((GOLDEN * (tag + 1)) & MASK64)
    return _mix64_inplace(x)  # split_key(., tag)


def to_unit_array(raws: np.ndarray) -> np.ndarray:
    return (raws >> np.uint64(11)) * 2.0**-53


class RandomStream:
    """Sequential view of one counter-based stream.

    Exclusively owned by one caller at a time; each next_* call
    consumes exactly one counter position.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0):
        self.key = key & MASK64
        self.counter = counter

    def next_raw(self) -> int:
        self.counter += 1
        return draw(self.key, self.counter)

    def next_uniform(self) -> float:
        return to_unit(self.next_raw())

    def clone(self) -> "RandomStream":
        return RandomStream(self.key, self.counter)
