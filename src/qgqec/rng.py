"""Deterministic counter-based randomness for measurement sampling.

Every shot draws from its own SplitMix64 stream keyed by (seed, shot_index),
so results are reproducible bit-for-bit and independent of shot evaluation
order.  ``first_words`` is the same arithmetic on numpy arrays, for
samplers that need no more than one word per shot; ``tests/test_kernels.py``
pins it against the scalar ``ShotStream``.
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
    v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return v ^ (v >> np.uint64(31))


def first_words(seed: int, shots: int) -> np.ndarray:
    """``ShotStream(seed, s).next_word()`` for s in 0..shots-1, as uint64.

    Every step stays on arrays: uint64 array arithmetic wraps modulo 2^64
    silently, exactly like the masked Python ints above.
    """
    gamma = np.uint64(_GAMMA)
    index = np.arange(shots, dtype=np.uint64) + gamma
    state = _mix64_array(index ^ np.uint64(mix64(seed & MASK64)))
    return _mix64_array(state + gamma)


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
