"""Deterministic sampling primitives.

Every randomized quantity in the tool (sample points, test vectors,
synthetic field coefficients) is drawn from the shift-based generator
below, so identical inputs always produce identical reports, on any
platform.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1

# splitmix-style update constants
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# the same as uint64 scalars, for ``SplitMix.uniforms``
_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = (np.uint64(k) for k in (11, 27, 30, 31))

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def subseed(seed: int, *labels: str) -> int:
    """Derive a stream seed from a base seed and string labels (FNV-1a)."""
    h = (_FNV_OFFSET ^ (seed & _MASK)) * _FNV_PRIME & _MASK
    for label in labels:
        for byte in label.encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


class SplitMix:
    """64-bit shift-based generator with a fixed update sequence.

    The package draws only blocks of a fixed count (``uniforms``,
    ``block``).  The scalar draws (``next_u64``, ``uniform``, ``symmetric``,
    ``vector``) remain as the reference stream the tests compare the blocks
    with, draw for draw; ``vector`` also remains because the benchmark's
    tracer wraps it."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Uniform draw in [lo, hi) with 53 bits of resolution."""
        u = (self.next_u64() >> 11) * (2.0 ** -53)
        return lo + (hi - lo) * u

    def symmetric(self, scale: float = 1.0) -> float:
        """Uniform draw in [-scale, scale)."""
        return self.uniform(-scale, scale)

    def vector(self, n: int, scale: float = 1.0) -> list[float]:
        return [self.symmetric(scale) for _ in range(n)]

    def uniforms(self, shape) -> np.ndarray:
        """The next ``uniform()`` draws as an array of ``shape``, filled in C
        order, leaving the state where the scalar draws would.

        Draw k (from 1) mixes ``state + k * GAMMA``, so the whole block is
        one pass of uint64 arithmetic, which wraps like ``_MASK``.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        count = math.prod(shape)
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _U_GAMMA
        z += np.uint64(self._state)
        z ^= z >> _U30
        z *= _U_MIX1
        z ^= z >> _U27
        z *= _U_MIX2
        z ^= z >> _U31
        z >>= _U11
        self._state = (self._state + count * _GAMMA) & _MASK
        return (z * 2.0 ** -53).reshape(shape)

    def block(self, shape, scale: float = 1.0) -> np.ndarray:
        """The next ``symmetric(scale)`` draws as an array of ``shape`` (see
        ``uniforms``)."""
        lo, hi = -scale, scale
        return lo + (hi - lo) * self.uniforms(shape)


DEFAULT_SEED = 24181
DEFAULT_SAMPLES = 64
