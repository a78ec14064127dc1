"""Deterministic counter-based randomness for measurement sampling.

Every shot draws from its own SplitMix64 stream keyed by (seed, shot_index),
so results are reproducible bit-for-bit and independent of shot evaluation
order.  Seeds and shot indices are taken mod 2^64: seeds s and s + 2^64
give the same streams.  ``first_words`` is the same arithmetic on numpy
arrays, over any range of shot indices, for samplers that need no more than
one word per shot and take their shots in bounded chunks;
``tests/test_kernels.py`` pins it against the scalar ``ShotStream``.
"""

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(v: int) -> int:
    """SplitMix64 finalizer (Steele, Lea, Flood 2014)."""
    v &= MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & MASK64
    return v ^ (v >> 31)


def shot_state(seed: int, shot_index: int) -> int:
    """Initial stream state for one shot of one run."""
    return mix64(mix64(seed & MASK64) ^ ((shot_index + _GAMMA) & MASK64))


def _mix64_array(v: np.ndarray) -> np.ndarray:
    """``mix64`` of every element of a uint64 array, in place."""
    v ^= v >> np.uint64(30)
    v *= np.uint64(0xBF58476D1CE4E5B9)
    v ^= v >> np.uint64(27)
    v *= np.uint64(0x94D049BB133111EB)
    v ^= v >> np.uint64(31)
    return v


def first_words(seed: int, shots: int, start: int = 0) -> np.ndarray:
    """``ShotStream(seed, s).next_word()`` for s in start..start+shots-1, as
    uint64, so consecutive ranges concatenate to one longer range.

    Every step stays on arrays: uint64 array arithmetic wraps modulo 2^64
    silently, exactly like the masked Python ints above (shot indices
    included).
    """
    words = np.arange(shots, dtype=np.uint64)
    words += np.uint64((start + _GAMMA) & MASK64)
    words ^= np.uint64(mix64(seed & MASK64))
    _mix64_array(words)
    words += np.uint64(_GAMMA)
    return _mix64_array(words)


class ShotStream:
    """Word-buffered bit/float source for a single shot."""

    __slots__ = ("_state", "_word", "_bits_left")

    def __init__(self, seed: int, shot_index: int):
        self._state = shot_state(seed, shot_index)
        self._word = 0
        self._bits_left = 0

    def next_word(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return mix64(self._state)

    def next_bit(self) -> int:
        if self._bits_left == 0:
            self._word = self.next_word()
            self._bits_left = 64
        bit = self._word & 1
        self._word >>= 1
        self._bits_left -= 1
        return bit

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_word() >> 11) * (1.0 / (1 << 53))
