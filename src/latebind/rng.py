"""Seeded, portable random streams (SplitMix64 in counter mode).

Every random quantity in the project is derived from a 64-bit seed through
SplitMix64, evaluated as a pure function of (seed, counter).  A stream is
that function and nothing more: it keeps no cursor, so every caller names
the positions it draws (stream_u64, stream_unit, stream_integers and
unit_at each take a seed and a start counter).  This keeps runs bitwise
reproducible across machines and lets independent consumers (data
generation, clock noise, drift schedules) draw from non-overlapping
streams without shared mutable state.
"""

from __future__ import annotations

import numpy as np

_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
# the signed integer types a draw may be stored in, narrowest first, with
# the least and greatest value of each
SIGNED_BOUNDS = {np.dtype(t): (int(np.iinfo(t).min), int(np.iinfo(t).max))
                 for t in (np.int8, np.int16, np.int32, np.int64)}
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)

# numpy deliberately wraps uint64 arithmetic mod 2**64; silence its warnings
# locally rather than globally (errstate objects are single-use in numpy 2.x).
def _wrap() -> np.errstate:
    return np.errstate(over="ignore")


def mix64(z: int) -> int:
    """SplitMix64 finalizer for one 64-bit value (scalar, pure Python)."""
    z &= _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return (z ^ (z >> 31)) & _MASK


def fnv1a64(label: str) -> int:
    """FNV-1a hash of a label, used to derive named substreams."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


def derive_seed(seed: int, label: str) -> int:
    """Deterministic child seed for a named substream."""
    return mix64(mix64(seed & _MASK) ^ fnv1a64(label))


def stream_u64(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized SplitMix64 outputs for counters start..start+count-1."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    # one output vector and one shift buffer; every step runs in place
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    t = np.empty_like(z)
    with _wrap():
        z *= _GOLDEN
        z += np.uint64(seed & _MASK)
        np.right_shift(z, _S30, out=t)
        z ^= t
        z *= _MIX1
        np.right_shift(z, _S27, out=t)
        z ^= t
        z *= _MIX2
        np.right_shift(z, _S31, out=t)
        z ^= t
    return z


def stream_unit(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform floats in [0, 1) with 53-bit resolution."""
    z = stream_u64(seed, start, count)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def unit_at(seed: int, counter: int) -> float:
    """stream_unit(seed, counter, 1)[0] in pure Python, without numpy's
    per-call overhead."""
    return (mix64(seed + (counter + 1) * _GOLDEN_INT) >> 11) * 2.0**-53


def stream_integers(seed: int, start: int, count: int, low: int, high: int,
                    dtype: np.dtype = np.dtype(np.int64)) -> np.ndarray:
    """Uniform integers in [low, high] inclusive from counters
    start..start+count-1, as `dtype`: a signed integer type (SIGNED_BOUNDS)
    that holds both bounds, int64 by default.

    Uses modulo reduction; the bias is O(range / 2**64), irrelevant for
    the integer domains used here.  The modulus is a uint64, so a range
    of all 2**64 values is rejected.  The remainder is x - (x // m) * m,
    which equals x % m for uint64 and runs faster in numpy.  The draw
    writes into its column, which is allocated in `dtype` before the
    draw's uint64 temporaries, so the columns a caller keeps pack together
    instead of each landing above the hole its temporaries leave.  The
    column keeps only the remainder's low bits, by one contiguous cast;
    adding `low` at that width wraps back into [low, high], so the values
    equal the int64 draw's.
    """
    dtype = np.dtype(dtype)
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    if dtype not in SIGNED_BOUNDS:
        raise ValueError(f"{dtype} is not a signed integer type")
    type_low, type_high = SIGNED_BOUNDS[dtype]
    if low < type_low or high > type_high or high - low >= _MASK:
        raise ValueError(f"range [{low}, {high}] exceeds {dtype} or 2**64 - 1 values")
    out = np.empty(count, dtype=dtype)
    vals = stream_u64(seed, start, count)
    m = np.uint64(high - low + 1)
    with _wrap():
        q = vals // m
        q *= m
        vals -= q
    # the unsigned view takes the remainder's low bits, read as `dtype`
    # the way astype(dtype) would convert them
    np.copyto(out.view(f"u{dtype.itemsize}"), vals, casting="unsafe")
    out += dtype.type(low)
    return out
