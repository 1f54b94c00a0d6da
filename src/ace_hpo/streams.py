"""Exact, batched first draws of numpy's keyed PCG64 streams.

``PCG64(SeedSequence(seed, spawn_key=key))`` gets its state by integer work
alone (SeedSequence's uint32 hash and mix steps, then two 128-bit LCG steps),
and its first output word by one more step and the XSL-RR output.
:func:`seed_draws` does this for many keys at once, bit for bit, and reads
each stream's first standard normal from that word with numpy's own
ziggurat tables. :class:`Draws` turns the word into numpy's first uniform
and bounded integer the same way. A draw the first word cannot settle (a
ziggurat wedge or tail, a Lemire rejection) sets the stream's state on the
one module-level generator and lets numpy draw, so draws are single-threaded.
Every key word must lie in [0, 2**32); any other word raises ValueError.
numpy is imported at the first derivation, so importing this module does not
load it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

__all__ = ["Draws", "seed_draws", "grid_draws"]

_M32, _M52, _M64, _M128 = 2**32 - 1, 2**52 - 1, 2**64 - 1, 2**128 - 1
# SeedSequence's hash and mix constants, and PCG64's multiplier in 64-bit halves.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_PCG = _PCG_HI << 64 | _PCG_LO
_PCG_INVERSE = pow(_PCG, -1, 2**128)

# numpy, the generator and the tables are bound at the first derivation (_load).
np = None
_generator: np.random.Generator | None = None
_lcg = {"state": 0, "inc": 0}  # refilled in place for each draw
_full_state = {"bit_generator": "PCG64", "state": _lcg, "has_uint32": 0, "uinteger": 0}
# numpy's ziggurat wi (float64) and accept bounds at or below its ki (uint64), then
# both again for the negative sign.
_tables: tuple[np.ndarray, np.ndarray] | None = None


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
    operands of each key word in each pool slot and of the eight output words,
    shaped to broadcast over keys laid out in two dimensions."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 128), 32)]
    pool = np.random.SeedSequence(words).pool[:, None, None]
    key = _hash_constants(_INIT_A, _MULT_A, 4 * (len(words) + key_length))[4 * len(words) :]
    out = _hash_constants(_INIT_B, _MULT_B, 8)[:, None]
    shape = (key_length, 4, 1, 1)
    return pool, key[:-1].reshape(shape), key[1:].reshape(shape), out[:-1], out[1:]


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each a * b, from 32-bit limbs (the middle sum cannot wrap)."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    p01 = a0 * b1
    mid = a1 * b0 + (p01 & _M32) + (a0 * b0 >> 32)
    return a1 * b1 + (p01 >> 32) + (mid >> 32)


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * multiplier + inc, mod 2**128: one PCG64 step."""
    new_lo = lo * _PCG_LO + inc_lo
    new_hi = _mulhi(lo, _PCG_LO) + hi * _PCG_LO + lo * _PCG_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _derive(seed: int, words: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """States, shape (4, n), and first output words of the n keys whose uint32
    words broadcast from ``words``: one array of at most two dimensions per key
    position, the keys in row-major order."""
    pool, key_xor, key_mult, out_xor, out_mult = _prefix(seed, len(words))
    for word, xor, mult in zip(words, key_xor, key_mult):
        # A word that is the same for every key is hashed once.
        pool = _xorshift(_MIX_L * pool - _MIX_R * _xorshift((word ^ xor) * mult))
    pool = pool.reshape(4, -1)
    out = _xorshift((np.concatenate([pool, pool]) ^ out_xor) * out_mult).astype(np.uint64)
    # The output words pair up, low word first, into s high, s low, q high, q low.
    s_hi, s_lo, q_hi, q_lo = out[0::2] | out[1::2] << 32
    # PCG64 seeding: inc = 2q + 1 and state = (inc + s) * multiplier + inc, mod 2**128.
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    sum_lo = inc_lo + s_lo
    state_hi, state_lo = _step(inc_hi + s_hi + (sum_lo < inc_lo), sum_lo, inc_hi, inc_lo)
    # numpy steps, then outputs XSL-RR: (hi ^ lo) rotated right by hi >> 58.
    next_hi, next_lo = _step(state_hi, state_lo, inc_hi, inc_lo)
    mixed, rotation = next_hi ^ next_lo, next_hi >> 58
    first = mixed >> rotation | mixed << (64 - rotation & 63)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo]), first


def _reference(seed: int, key: tuple[int, ...]) -> tuple[list[int], int]:
    """numpy's own state row and first output word of one keyed stream."""
    bit_generator = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
    state = bit_generator.state["state"]
    row = [state["state"] >> 64, state["state"] & _M64, state["inc"] >> 64, state["inc"] & _M64]
    return row, int(bit_generator.random_raw())


def _landing_at(word: int) -> np.random.Generator:
    """The shared generator, set so that its next step lands on state ``word``
    (inc 1), whose output is ``word`` itself since its high half is 0."""
    state = (word - 1) * _PCG_INVERSE & _M128
    return _generator_at((state >> 64, state & _M64, 0, 1))


def _normal_within(word: int, steps: int) -> float | None:
    """The standard normal drawn from output ``word`` onwards, or None if numpy
    stepped more than ``steps`` times to draw it."""
    value = float(_landing_at(word).standard_normal())
    landed, state = _generator.bit_generator.state["state"]["state"], word
    for _ in range(steps):
        if landed == state:
            return value
        state = (state * _PCG + 1) & _M128
    return None


def _recover_tables() -> tuple[list[float], list[int]]:
    """numpy's ziggurat wi, and an accept bound at or below ki for each layer.

    numpy's ziggurat (Marsaglia and Tsang, 2000) reads a word r as layer
    idx = r & 0xff, sign bit r >> 8 & 1 and rabs = r >> 9 & (2**52 - 1), draws
    x = +-rabs * wi[idx] and returns it at once when rabs < ki[idx]; numpy
    keeps both tables private. wi[idx] is the draw of word 1 << 9 | idx (one
    step, or two through the wedge). ki[idx] is about the width ratio
    wi[idx - 1] / wi[idx] * 2**52 (wi[-1] / wi[0] for the base layer); the bound
    sits a little below it and is kept only if the word just under it draws in
    one step, which proves that every smaller rabs does. Layer 1, whose ki is
    0, keeps none."""
    wi = [_normal_within(1 << 9 | idx, 2) for idx in range(256)]
    bounds = []
    for idx in range(256):
        bound = 0
        if wi[idx] and wi[idx - 1]:
            bound = min(int(wi[idx - 1] / wi[idx] * 2**52) - 2**32, 2**52)
            if bound < 1 or _normal_within((bound - 1) << 9 | idx, 1) is None:
                bound = 0
        bounds.append(bound)
    return [value or 0.0 for value in wi], bounds


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Check the derivation and the recovered tables against numpy and return the
    tables, or raise RuntimeError naming the numpy version."""
    global _generator
    _generator = np.random.Generator(np.random.PCG64(0))
    probe_seed, probe_keys = 2**140 + 9, [(7, 2**31 + 5, tag) for tag in range(8)]
    states, first = _derive(probe_seed, list(np.array(probe_keys, np.uint32).T))
    expected = [_reference(probe_seed, key) for key in probe_keys]
    wi, bounds = _recover_tables()
    # Every layer's fast path at its largest accepted rabs, negative sign, against numpy.
    fast = [idx for idx in range(256) if bounds[idx]]
    drawn = [float(_landing_at((bounds[i] - 1) << 9 | 1 << 8 | i).standard_normal()) for i in fast]
    if (
        states.T.tolist() != [row for row, _ in expected]
        or first.tolist() != [word for _, word in expected]
        or drawn != [-((bounds[i] - 1) * wi[i]) for i in fast]
    ):
        raise RuntimeError(f"numpy {np.__version__} draws PCG64 streams unlike ace_hpo.streams")
    return np.array(wi + [-value for value in wi]), np.array(bounds * 2, np.uint64)


def _normals(words: np.ndarray) -> np.ndarray:
    """numpy's first standard normal of each word, NaN where it needs more words."""
    signed_wi, bounds = _tables  # indexed by the sign and layer bits, r & 0x1ff
    sign_layer = (words & 0x1FF).astype(np.intp)
    rabs = words >> 9 & _M52
    values = rabs.astype(np.float64) * signed_wi[sign_layer]
    values[rabs >= bounds[sign_layer]] = np.nan
    return values


class Draws(NamedTuple):
    """The first draws of a batch of keyed streams, stream i from key i.

    ``states`` has rows state high, state low, inc high and inc low, as uint64;
    ``words`` holds each stream's first output word and ``normals`` its first
    ``standard_normal()``, NaN where the ziggurat needs more than that word.
    """

    normals: np.ndarray
    words: np.ndarray
    states: np.ndarray

    def normal(self, i: int) -> float:
        """``standard_normal()`` of stream i."""
        value = self.normals.item(i)
        if value == value:
            return value
        return float(_generator_at(self.states[:, i].tolist()).standard_normal())

    def uniform(self, i: int, low: float, high: float) -> float:
        """``uniform(low, high)`` of stream i, for floats with a finite difference."""
        return low + (high - low) * ((self.words.item(i) >> 11) * 2.0**-53)

    def integers(self, i: int, count: int) -> int:
        """``integers(count)`` of stream i: Lemire's bounded integer from the low
        32 bits (Lemire, ACM TOMACS 2019), drawn by numpy where it may reject."""
        product = (self.words.item(i) & _M32) * count
        if product & _M32 >= count:
            return product >> 32
        return int(_generator_at(self.states[:, i].tolist()).integers(count))


def _load() -> None:
    """Import numpy and build the tables, once per process."""
    global np, _tables
    if _tables is None:
        import numpy as np

        _tables = _build_tables()


def seed_draws(seed: int, keys) -> Draws:
    """The first draws of ``PCG64(SeedSequence(seed, spawn_key=key))`` for each key.

    ``keys`` has shape (n, key length >= 1) and words in [0, 2**32), else
    ValueError. The first call in a process recovers numpy's ziggurat tables
    and checks them and the derivation against numpy, raising RuntimeError if
    they differ.
    """
    _load()
    keys = np.asarray(keys)
    if not ((keys >= 0) & (keys <= _M32)).all():
        raise ValueError("key words must lie in [0, 2**32)")
    return _draws(seed, list(keys.T.astype(np.uint32)))


def _draws(seed: int, words: list[np.ndarray]) -> Draws:
    """:func:`_derive` with the normals."""
    states, first = _derive(int(seed), words)
    return Draws(_normals(first), first, states)


@functools.lru_cache(maxsize=20)
def grid_draws(
    seed: int, row_start: int, rows: int, col_start: int, cols: int, tail: tuple[int, ...] = ()
) -> Draws:
    """:func:`seed_draws` of the keys (row, col, *tail) for ``rows`` rows from
    ``row_start`` and ``cols`` columns from ``col_start``, row-major. The 20
    cached grids cover the noise tiles and sampling blocks that a run has in use."""
    ends = (row_start, row_start + rows - 1, col_start, col_start + cols - 1, *tail)
    if not all(0 <= word <= _M32 for word in ends):
        raise ValueError("key words must lie in [0, 2**32)")
    _load()
    row = np.arange(row_start, row_start + rows, dtype=np.uint32)[:, None]
    col = np.arange(col_start, col_start + cols, dtype=np.uint32)
    draws = _draws(seed, [row, col, *(np.array(word, np.uint32) for word in tail)])
    for array in draws:
        array.flags.writeable = False  # shared by every caller through the cache
    return draws


def _generator_at(state) -> np.random.Generator:
    """The shared generator, set to one state row given as ints."""
    state_hi, state_lo, inc_hi, inc_lo = state
    _lcg["state"], _lcg["inc"] = state_hi << 64 | state_lo, inc_hi << 64 | inc_lo
    _generator.bit_generator.state = _full_state
    return _generator
