"""Counter-based splittable random streams.

Every random decision in the simulator is a pure function of
(key, counter), where keys are derived by splitting a 64-bit seed.
That gives each particle its own direction and laziness stream,
lets a draw be made when it is needed with no buffered walk (so the
on-demand and predetermined walk modes run the same code), and keeps
replicated runs reproducible under any parallelism level.

The counter-th draw of stream `key` is mix64(key + GOLDEN * counter),
where mix64 is the splitmix64 finalizer (Steele, Lea and Flood, "Fast
splittable pseudorandom number generators", OOPSLA 2014). The argument
is splitmix64's own state word after `counter` steps, so a holder of
the word `key + GOLDEN * n` (mod 2^64) makes the next draw by adding
GOLDEN and mixing, with no counter to multiply out. `stream_words`
builds the word and `stream_counts` gives n back, GOLDEN being odd and
so invertible mod 2^64. A draw is at most
`unit_threshold(p)` exactly when its `to_unit` is below p, so a coin
of probability p needs no float.

A scalar (pure Python int) and a vectorised (numpy uint64)
implementation are provided; they must agree bit for bit and are
tested against each other.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GOLDEN",
    "GOLDEN_U64",
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
    "stream_words",
    "stream_counts",
    "to_unit",
    "unit_threshold",
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


def unit_threshold(p: float) -> int:
    """The largest draw r with to_unit(r) < p, for p in (0, 1]: r <= it
    exactly when to_unit(r) < p. MASK64 at p = 1."""
    return (math.ceil(p * 2.0**53) << 11) - 1


# ---------------------------------------------------------------------------
# Vectorised twins (uint64 arrays; overflow wraps mod 2^64 by design).
# ---------------------------------------------------------------------------

_NP_UINT64 = np.dtype(np.uint64)
GOLDEN_U64 = np.uint64(GOLDEN)  # a stream word's step, typed so numpy casts nothing per call
_NP_GOLDEN_INVERSE = np.uint64(pow(GOLDEN, -1, 1 << 64))
_NP_M1 = np.uint64(_M1)
_NP_M2 = np.uint64(_M2)
_NP_S30 = np.uint64(30)
_NP_S27 = np.uint64(27)
_NP_S31 = np.uint64(31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised `mix64` into a new array; x is left as it is and cast
    to uint64 where it is not."""
    if x.dtype != _NP_UINT64:
        x = x.astype(np.uint64)
    y = x >> _NP_S30
    y ^= x
    y *= _NP_M1
    y ^= y >> _NP_S27
    y *= _NP_M2
    y ^= y >> _NP_S31
    return y


def draw_array(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Vectorised `draw` of equal-shape arrays: keys uint64, counters
    cast to uint64."""
    x = counters.astype(np.uint64, copy=True)
    x *= GOLDEN_U64
    x += keys
    return mix64_array(x)


def stream_key_array(seeds, particles: int, tags) -> np.ndarray:
    """Vectorised `stream_key` of particles 0..particles-1 under every
    seed and tag, in one pass: uint64 of shape
    (len(seeds), len(tags), particles). Seeds are masked to 64 bits, as
    `split_key` masks them."""
    # Scalar operands are masked Python ints: numpy warns when a uint64
    # scalar wraps, while arrays wrap silently by design.
    salted = np.array([(seed & MASK64) ^ _SPLIT_SALT for seed in seeds], dtype=np.uint64)
    x = np.arange(1, particles + 1, dtype=np.uint64)
    x *= GOLDEN_U64
    x = mix64_array(salted[:, None] + x)  # split_key(seed, particle)
    x ^= np.uint64(_SPLIT_SALT)
    steps = np.array([(GOLDEN * (tag + 1)) & MASK64 for tag in tags], dtype=np.uint64)
    return mix64_array(x[:, None, :] + steps[:, None])  # split_key(., tag)


def stream_words(keys, counts) -> np.ndarray:
    """The state words key + GOLDEN * n (uint64, mod 2^64) of streams
    after n = counts draws; keys and counts are non-negative, below 2^64
    and 2^63."""
    w = np.asarray(counts, dtype=np.uint64) * GOLDEN_U64
    w += np.asarray(keys, dtype=np.uint64)
    return w


def stream_counts(words: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The count n (int64) of each state word key + GOLDEN * n (uint64,
    mod 2^64), for n < 2^63."""
    n = words - keys
    n *= _NP_GOLDEN_INVERSE
    return n.view(np.int64)
