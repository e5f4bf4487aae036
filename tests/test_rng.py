from __future__ import annotations

import numpy as np
import pytest

from latebind.rng import (derive_seed, fnv1a64, mix64, stream_integers, stream_u64,
                          stream_unit, unit_at)


def test_stream_matches_scalar_mix():
    # counter-mode stream value i equals the scalar finalizer of seed + (i+1)*golden
    golden = 0x9E3779B97F4A7C15
    seed = 1234567
    vals = stream_u64(seed, 0, 4)
    for i in range(4):
        expected = mix64((seed + (i + 1) * golden) & 0xFFFFFFFFFFFFFFFF)
        assert int(vals[i]) == expected


GOLDEN = 0x9E3779B97F4A7C15
MASK = 0xFFFFFFFFFFFFFFFF


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
@pytest.mark.parametrize("start,count", [(0, 0), (0, 1), (5, 0), (5, 1), (37, 9),
                                         (2**40, 3)])
def test_stream_matches_scalar_mix_at_any_start(seed, start, count):
    vals = stream_u64(seed, start, count)
    assert vals.dtype == np.uint64 and vals.shape == (count,)
    expected = [mix64((seed + (i + 1) * GOLDEN) & MASK) for i in range(start, start + count)]
    assert [int(v) for v in vals] == expected


@pytest.mark.parametrize("low,high", [(-3, 3), (-1000, -1), (7, 7), (-5, -5), (0, 999),
                                      (-2**40, 2**40)])
def test_integers_match_reference_reduction(low, high):
    # the plain form: reduce the raw draws, convert, shift
    count = 257
    u64 = stream_u64(31, 0, count)
    expected = (u64 % np.uint64(high - low + 1)).astype(np.int64) + np.int64(low)
    got = stream_integers(31, 0, count, low, high)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    assert stream_integers(31, 0, 0, low, high).shape == (0,)


@pytest.mark.parametrize("low,modulus", [
    (low, modulus) for modulus in (1, 2, 1000, 2**32 + 3, 2**63, 2**64 - 1)
    for low in (0, -2**63) if low + modulus - 1 < 2**63])
@pytest.mark.parametrize("offset", [0, 7, 1000])
def test_integers_equal_remainder_reference(low, modulus, offset):
    # the reduction by floor division gives each draw's remainder, in
    # Python integers, at any stream position, up to the largest uint64
    # modulus
    count = 257
    u64 = stream_u64(31, offset, count).tolist()
    got = stream_integers(31, offset, count, low, low + modulus - 1)
    assert got.dtype == np.int64
    assert got.tolist() == [low + u % modulus for u in u64]


# the last is all of int64: 2**64 values, one more than a uint64 modulus holds
@pytest.mark.parametrize("low,high", [(0, 2**63), (-2**63 - 1, 0), (0, 2**64),
                                      (-2**64, 2**64), (-2**63, 2**63 - 1)])
def test_integers_reject_bounds_outside_int64(low, high):
    with pytest.raises(ValueError, match=rf"^range \[{low}, {high}\] exceeds int64"):
        stream_integers(31, 0, 4, low, high)


def test_negative_count_rejected():
    with pytest.raises(ValueError, match="^count must be >= 0, got -1$"):
        stream_u64(31, 0, -1)


def test_integers_reject_an_empty_range():
    with pytest.raises(ValueError, match=r"^empty range \[5, 4\]$"):
        stream_integers(31, 0, 4, 5, 4)


def test_stream_is_positional():
    whole = stream_u64(9, 0, 100)
    tail = stream_u64(9, 60, 40)
    assert np.array_equal(whole[60:], tail)


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
def test_integers_are_positional(dtype):
    # a draw at a start position is the same slice of a draw from position 0,
    # one value at a time too: no draw depends on the draws made before it
    whole = stream_integers(9, 0, 100, -7, 90, dtype)
    assert np.array_equal(stream_integers(9, 60, 40, -7, 90, dtype), whole[60:])
    assert [stream_integers(9, i, 1, -7, 90, dtype)[0] for i in range(100)] == whole.tolist()


def test_unit_range():
    u = stream_unit(3, 0, 10000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_unit_at_equals_stream_unit():
    # the scalar form must agree bit for bit with the vectorized reference
    seeds = [0, 1, 2**64 - 1, *(int(v) for v in stream_u64(77, 0, 20))]
    counters = [0, 1, 2, 2**40, *(int(v) for v in stream_integers(78, 0, 20, 0, 2**40))]
    for seed in seeds:
        for counter in counters:
            assert unit_at(seed, counter) == stream_unit(seed, counter, 1)[0], (seed, counter)


def test_integers_inclusive_bounds():
    vals = stream_integers(5, 0, 20000, -3, 3)
    assert vals.min() == -3 and vals.max() == 3
    assert set(np.unique(vals)) == set(range(-3, 4))


def test_derive_seed_distinct_labels():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") == derive_seed(1, "a")


def test_fnv1a64_known_value():
    # FNV-1a of empty input is the offset basis
    assert fnv1a64("") == 0xCBF29CE484222325


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_narrow_integers_equal_int64_draws(dtype):
    # the remainder keeps only its low bits, and adding low at the narrow
    # width wraps back into [low, high], so the values are the int64 draw's
    # even where the span or a remainder passes the type's maximum
    info = np.iinfo(dtype)
    for low, high in ((info.min, info.max), (info.min, info.min), (info.max, info.max),
                      (info.min, 0), (0, info.max), (info.min + 1, info.max - 1), (-3, 3)):
        got = stream_integers(31, 0, 257, low, high, dtype)
        assert got.dtype == dtype
        assert got.tolist() == stream_integers(31, 0, 257, low, high).tolist()
        assert stream_integers(31, 0, 0, low, high, dtype).dtype == dtype


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32])
def test_integers_reject_bounds_outside_dtype(dtype):
    info = np.iinfo(dtype)
    for low, high in ((info.min - 1, 0), (0, info.max + 1)):
        with pytest.raises(ValueError, match=f"exceeds {np.dtype(dtype)}"):
            stream_integers(1, 0, 1, low, high, dtype)
    with pytest.raises(ValueError, match="uint8 is not a signed integer type"):
        stream_integers(1, 0, 1, 0, 9, np.uint8)
