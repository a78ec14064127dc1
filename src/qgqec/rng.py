"""Deterministic counter-based randomness for measurement sampling.

Every shot draws from its own SplitMix64 stream keyed by (seed, shot_index),
so results are reproducible bit-for-bit and independent of shot evaluation
order.  The stream of shot s starts from state
mix64(mix64(seed) ^ (s + _GAMMA)), and each word adds _GAMMA to the state
and returns mix64 of it, all mod 2^64: seeds s and s + 2^64 give the same
streams.  ``first_words`` computes the first word of every stream in a range
of shot indices on numpy arrays; the samplers need no more than one word per
shot and take their shots in bounded chunks.  The scalar per-shot stream,
their reference, lives with the tests (``tests/sim_reference.py``).
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


# numpy scalars of the vector steps, built once at import: building them
# per call cost a sizeable share of a small chunk's array work
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)
_MUL1, _MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_U_GAMMA = np.uint64(_GAMMA)


def _mix64_array(v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``mix64`` of every element of a uint64 array, in place; `scratch`, of
    the same shape, takes each shift."""
    v ^= np.right_shift(v, _U30, out=scratch)
    v *= _MUL1
    v ^= np.right_shift(v, _U27, out=scratch)
    v *= _MUL2
    v ^= np.right_shift(v, _U31, out=scratch)
    return v


def first_words(seed: int, shots: int, start: int = 0) -> np.ndarray:
    """The first word of the stream of each shot s in start..start+shots-1,
    as uint64, so consecutive ranges concatenate to one longer range.

    Every step stays on arrays: uint64 array arithmetic wraps modulo 2^64
    silently, exactly like the masked Python ints of ``mix64`` (shot indices
    included).  The six shifts share one scratch array.
    """
    words = np.arange(shots, dtype=np.uint64)
    scratch = np.empty_like(words)
    words += np.uint64((start + _GAMMA) & MASK64)
    words ^= np.uint64(mix64(seed & MASK64))
    _mix64_array(words, scratch)
    words += _U_GAMMA
    return _mix64_array(words, scratch)
