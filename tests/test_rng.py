import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from disperse.rng import (
    DIRECTION_TAG,
    GOLDEN,
    GOLDEN_U64,
    LAZINESS_TAG,
    MASK64,
    derive_seed,
    draw,
    draw_array,
    mix64,
    mix64_array,
    split_key,
    stream_counts,
    stream_key,
    stream_key_array,
    stream_words,
    to_unit,
    unit_threshold,
)

SETTINGS = dict(deadline=None, max_examples=200)
KEYS = st.integers(0, MASK64)
COUNTS = st.integers(0, 2**63 - 1)


def test_mix64_reference_values():
    # splitmix64 finalizer outputs for seed-increment sequence starting at 0:
    # state += GOLDEN, output = mix(state). Known-good first three outputs.
    state = 0
    outs = []
    for _ in range(3):
        state = (state + GOLDEN) & MASK64
        outs.append(mix64(state))
    assert outs == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_mix64_is_64bit():
    for x in (0, 1, MASK64, GOLDEN, 1 << 63):
        y = mix64(x)
        assert 0 <= y <= MASK64


def test_scalar_vector_draw_agree():
    keys = [0, 1, GOLDEN, 0xDEADBEEF, MASK64]
    counters = list(range(1, 9))
    kv = np.array([k for k in keys for _ in counters], dtype=np.uint64)
    cv = np.array(counters * len(keys), dtype=np.uint64)
    vec = draw_array(kv, cv)
    flat = [draw(k, c) for k in keys for c in counters]
    assert vec.tolist() == flat


def test_scalar_vector_mix_agree():
    xs = np.arange(0, 4096, dtype=np.uint64) * np.uint64(0x123456789)
    vec = mix64_array(xs)
    for x, v in zip(xs.tolist(), vec.tolist()):
        assert mix64(x) == v


def test_mix64_array_leaves_its_input_and_casts_int64():
    xs = np.array([0, 1, -1, -(2**63), 2**63 - 1, 0x123456789], dtype=np.int64)
    before = xs.copy()
    vec = mix64_array(xs)
    assert np.array_equal(xs, before) and vec.dtype == np.uint64
    assert vec.tolist() == [mix64(x & MASK64) for x in xs.tolist()]
    words = xs.astype(np.uint64)
    before = words.copy()
    assert mix64_array(words).tolist() == vec.tolist()
    assert np.array_equal(words, before)


@given(st.lists(st.tuples(KEYS, COUNTS), min_size=1, max_size=20))
@example([(MASK64, 1), (MASK64, 2**63 - 1), (0, 0), (GOLDEN, 1)])
@settings(**SETTINGS)
def test_stream_words_are_key_plus_golden_times_count(streams):
    keys, counts = zip(*streams)
    words = stream_words(keys, counts)
    assert words.dtype == np.uint64
    assert words.tolist() == [(k + GOLDEN * n) & MASK64 for k, n in streams]
    arrays = np.array(keys, dtype=np.uint64), np.array(counts, dtype=np.int64)
    assert stream_words(*arrays).tolist() == words.tolist()


@given(st.lists(st.tuples(KEYS, COUNTS), min_size=1, max_size=20))
@example([(MASK64, 0), (MASK64 - GOLDEN + 1, 1), (0, 2**63 - 1), (GOLDEN, 1)])
@settings(**SETTINGS)
def test_a_word_stepped_by_golden_draws_the_next_counter(streams):
    keys, counts = zip(*streams)
    words = stream_words(keys, counts)
    words += GOLDEN_U64  # wraps past 2^64 where key + GOLDEN * (n + 1) does
    assert mix64_array(words).tolist() == [draw(k, n + 1) for k, n in streams]
    assert words.tolist() == stream_words(keys, [n + 1 for n in counts]).tolist()


@given(st.lists(st.tuples(KEYS, COUNTS), min_size=1, max_size=20))
@example([(0, 0), (MASK64, 2**63 - 1), (GOLDEN, 1), (1, 2**62)])
@settings(**SETTINGS)
def test_stream_counts_decodes_every_count_below_2_63(streams):
    keys, counts = zip(*streams)
    keyv = np.array(keys, dtype=np.uint64)
    got = stream_counts(stream_words(keys, counts), keyv)
    assert got.dtype == np.int64 and got.tolist() == list(counts)


def _coin_agrees(raw, p):
    threshold = unit_threshold(p)
    assert (raw <= threshold) == (to_unit(raw) < p)


@pytest.mark.parametrize("p", [2.0**-53, 0.05, 0.5, 1 - 2.0**-53, 1.0])
def test_unit_threshold_is_the_last_draw_below_p(p):
    threshold = unit_threshold(p)
    assert to_unit(threshold) < p
    _coin_agrees(threshold, p)
    if threshold < MASK64:
        assert to_unit(threshold + 1) >= p
        _coin_agrees(threshold + 1, p)
    else:
        assert p == 1.0


def test_unit_threshold_edges():
    assert unit_threshold(1.0) == MASK64
    assert unit_threshold(2.0**-53) == (1 << 11) - 1


@given(st.floats(0.0, 1.0, exclude_min=True), st.integers(0, MASK64))
@settings(**SETTINGS)
def test_unit_threshold_matches_to_unit(p, raw):
    threshold = unit_threshold(p)
    assert 0 <= threshold <= MASK64
    for r in (raw, threshold, threshold + 1):
        if r <= MASK64:
            _coin_agrees(r, p)


def test_draw_counter_sensitivity():
    seen = {draw(42, c) for c in range(1, 1000)}
    assert len(seen) == 999


def test_split_key_distinctness():
    base = 7
    children = {split_key(base, i) for i in range(1000)}
    assert len(children) == 1000
    # Splitting differs from drawing on the same key.
    assert split_key(base, 0) != draw(base, 1)


def test_stream_keys_disjoint_across_particles_and_tags():
    seed = 99
    keys = set()
    for pid in range(200):
        keys.add(stream_key(seed, pid, DIRECTION_TAG))
        keys.add(stream_key(seed, pid, LAZINESS_TAG))
    assert len(keys) == 400


@pytest.mark.parametrize(
    "seeds",
    [
        [0],
        [MASK64],
        [0, 1, MASK64, derive_seed(2024, 7)],
        # At and past 2^64: masked to 64 bits, as split_key masks them.
        [1 << 64, (1 << 64) + 5, 3 << 70, derive_seed(2024, 7) + (1 << 64)],
    ],
    ids=["zero", "mask64", "several", "past-2^64"],
)
@pytest.mark.parametrize(
    "tags",
    [(DIRECTION_TAG,), (LAZINESS_TAG,), (DIRECTION_TAG, LAZINESS_TAG)],
    ids=["direction", "laziness", "both"],
)
@pytest.mark.parametrize("particles", [1, 1000])
def test_stream_key_array_matches_scalar(seeds, tags, particles):
    keys = stream_key_array(seeds, particles, tags)
    assert keys.dtype == np.uint64
    assert keys.shape == (len(seeds), len(tags), particles)
    assert keys.tolist() == [
        [[stream_key(seed, i, tag) for i in range(particles)] for tag in tags]
        for seed in seeds
    ]
    masked = stream_key_array([seed & MASK64 for seed in seeds], particles, tags)
    assert np.array_equal(keys, masked)


def test_derive_seed_matches_split():
    assert derive_seed(123, 5) == split_key(123, 5)


def test_to_unit_range_and_resolution():
    assert to_unit(0) == 0.0
    assert 0.0 <= to_unit(MASK64) < 1.0
    assert to_unit(MASK64) == (MASK64 >> 11) * 2.0**-53
    assert to_unit(1 << 11) == 2.0**-53


def test_to_unit_roughly_uniform():
    us = [to_unit(draw(5, c)) for c in range(1, 20001)]
    mean = sum(us) / len(us)
    assert abs(mean - 0.5) < 0.01


@pytest.mark.parametrize("bit", range(0, 64, 7))
def test_avalanche_single_bit(bit):
    # Flipping one input bit must flip many output bits.
    a = mix64(1234567)
    b = mix64(1234567 ^ (1 << bit))
    assert bin(a ^ b).count("1") >= 10
