import numpy as np
import pytest

from disperse.rng import (
    DIRECTION_TAG,
    GOLDEN,
    LAZINESS_TAG,
    MASK64,
    RandomStream,
    derive_seed,
    draw,
    draw_array,
    mix64,
    mix64_array,
    split_key,
    stream_key,
    stream_key_array,
    to_unit,
    to_unit_array,
)


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


@pytest.mark.parametrize("seed", [0, 1, MASK64, derive_seed(2024, 7)])
@pytest.mark.parametrize("tag", [DIRECTION_TAG, LAZINESS_TAG])
@pytest.mark.parametrize("particles", [1, 1000])
def test_stream_key_array_matches_scalar(seed, tag, particles):
    keys = stream_key_array(seed, particles, tag)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [stream_key(seed, i, tag) for i in range(particles)]


def test_derive_seed_matches_split():
    assert derive_seed(123, 5) == split_key(123, 5)


def test_to_unit_range_and_resolution():
    assert to_unit(0) == 0.0
    assert 0.0 <= to_unit(MASK64) < 1.0
    assert to_unit(MASK64) == (MASK64 >> 11) * 2.0**-53
    raws = np.array([0, 1 << 11, MASK64], dtype=np.uint64)
    units = to_unit_array(raws)
    assert units[0] == 0.0
    assert np.all((units >= 0.0) & (units < 1.0))
    assert units[1] == to_unit(1 << 11)


def test_to_unit_roughly_uniform():
    us = [to_unit(draw(5, c)) for c in range(1, 20001)]
    mean = sum(us) / len(us)
    assert abs(mean - 0.5) < 0.01


def test_random_stream_sequences_and_clone():
    s = RandomStream(314)
    first = [s.next_raw() for _ in range(5)]
    assert first == [draw(314, c) for c in range(1, 6)]
    c = s.clone()
    assert c.next_raw() == s.next_raw()
    u = RandomStream(314).next_uniform()
    assert u == to_unit(draw(314, 1))


def test_random_stream_key_masked():
    s = RandomStream((1 << 70) + 12)
    assert s.key == ((1 << 70) + 12) & MASK64


@pytest.mark.parametrize("bit", range(0, 64, 7))
def test_avalanche_single_bit(bit):
    # Flipping one input bit must flip many output bits.
    a = mix64(1234567)
    b = mix64(1234567 ^ (1 << bit))
    assert bin(a ^ b).count("1") >= 10
