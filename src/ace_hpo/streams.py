"""Exact, batched seeding of numpy's keyed PCG64 streams.

``PCG64(SeedSequence(seed, spawn_key=key))`` gets its state by integer work
alone (SeedSequence's uint32 hash and mix steps, then two 128-bit LCG steps),
which :func:`seed_states` does for many keys at once, bit for bit. numpy still
draws every value, from the one module-level generator, so draws are
single-threaded."""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = ["seed_states", "grid_states", "generator_at"]

_M32, _M64 = 2**32 - 1, 2**64 - 1
# SeedSequence's hash and mix constants, and PCG64's multiplier in 64-bit halves.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645

# Built at the first derivation, so that importing touches no numpy.random.
_generator: np.random.Generator | None = None
_lcg = {"state": 0, "inc": 0}  # refilled in place for each draw
_full_state = {"bit_generator": "PCG64", "state": _lcg, "has_uint32": 0, "uinteger": 0}


def _xorshift(value: np.ndarray) -> np.ndarray:
    return value ^ value >> 16


def _hash_constants(start: int, mult: int, count: int) -> np.ndarray:
    """start * mult**i mod 2**32 for i = 0..count: hash step i xors a word with
    entry i and multiplies it by entry i + 1."""
    return np.array([start * pow(mult, i, 2**32) & _M32 for i in range(count + 1)], np.uint32)


@functools.lru_cache(maxsize=64)
def _prefix(seed: int, key_length: int) -> tuple[np.ndarray, ...]:
    """What every key of a seed shares: the pool numpy mixes from the seed's words
    (zero-padded to four, as for any non-empty key), and the (xor, multiply)
    operands of each key word in each pool slot and of the eight output words."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 128), 32)]
    pool = np.random.SeedSequence(words).pool[:, None]
    key = _hash_constants(_INIT_A, _MULT_A, 4 * (len(words) + key_length))[4 * len(words) :]
    out = _hash_constants(_INIT_B, _MULT_B, 8)[:, None]
    shape = (key_length, 4, 1)
    return pool, key[:-1].reshape(shape), key[1:].reshape(shape), out[:-1], out[1:]


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each a * b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _derive(seed: int, words: np.ndarray) -> np.ndarray:
    """States for uint32 key words of shape (key length, n)."""
    pool, key_xor, key_mult, out_xor, out_mult = _prefix(seed, len(words))
    for word, xor, mult in zip(words, key_xor, key_mult):
        pool = _xorshift(_MIX_L * pool - _MIX_R * _xorshift((word ^ xor) * mult))
    out = _xorshift((np.concatenate([pool, pool]) ^ out_xor) * out_mult)
    # Output word pairs are little-endian uint64s: s high, s low, q high, q low.
    s_hi, s_lo, q_hi, q_lo = np.ascontiguousarray(out.T).view("<u8").astype(np.uint64).T
    # PCG64 seeding: inc = 2q + 1 and state = (inc + s) * multiplier + inc, mod 2**128.
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    sum_lo = inc_lo + s_lo
    sum_hi = inc_hi + s_hi + (sum_lo < inc_lo)
    state_lo = sum_lo * _PCG_LO + inc_lo
    prod_hi = _mulhi(sum_lo, _PCG_LO) + sum_hi * _PCG_LO + sum_lo * _PCG_HI
    state_hi = prod_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


def _reference(seed: int, key: tuple[int, ...]) -> list[int]:
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)).state["state"]
    return [state["state"] >> 64, state["state"] & _M64, state["inc"] >> 64, state["inc"] & _M64]


def seed_states(seed: int, keys) -> np.ndarray:
    """The state of ``PCG64(SeedSequence(seed, spawn_key=key))`` for each key.

    ``keys`` has shape (n, key length >= 1); row i of the result is (state high,
    state low, inc high, inc low) as uint64. Keys with a word outside [0, 2**32)
    take numpy's own seeding. The first call in a process checks the derivation
    against numpy's and raises RuntimeError if they differ.
    """
    global _generator
    if _generator is None:
        probe_seed, probe_key = 2**140 + 9, (7, 2**31 + 5, 1)
        derived = _derive(probe_seed, np.array([probe_key], np.uint32).T)[0].tolist()
        if derived != _reference(probe_seed, probe_key):
            raise RuntimeError(f"numpy {np.__version__} seeds PCG64 unlike ace_hpo.streams")
        _generator = np.random.Generator(np.random.PCG64(0))
    keys = np.asarray(keys)
    narrow = ((keys >= 0) & (keys <= _M32)).all(axis=1)
    states = np.empty((len(keys), 4), dtype=np.uint64)
    states[narrow] = _derive(int(seed), keys[narrow].T.astype(np.uint32))
    for i in np.flatnonzero(~narrow):
        states[i] = _reference(seed, tuple(int(word) for word in keys[i]))
    return states


@functools.lru_cache(maxsize=20)
def grid_states(
    seed: int, row_start: int, rows: int, col_start: int, cols: int, tail: tuple[int, ...] = ()
) -> np.ndarray:
    """:func:`seed_states` of the keys (row, col, *tail) for ``rows`` rows from
    ``row_start`` and ``cols`` columns from ``col_start``, row-major. The 20
    cached grids cover the noise tiles and sampling blocks that a run has in use."""
    row, col = np.divmod(np.arange(rows * cols), cols)
    keys = [row + row_start, col + col_start, *(np.full(row.size, word) for word in tail)]
    states = seed_states(seed, np.stack(keys, axis=1))
    states.flags.writeable = False  # shared by every caller through the cache
    return states


def generator_at(state: Sequence[int]) -> np.random.Generator:
    """The shared generator, set to one :func:`seed_states` row given as ints."""
    state_hi, state_lo, inc_hi, inc_lo = state
    _lcg["state"], _lcg["inc"] = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
    _generator.bit_generator.state = _full_state
    return _generator
