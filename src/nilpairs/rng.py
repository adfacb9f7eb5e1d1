"""Counter-based deterministic pseudorandom values (splitmix64).

Every drawn value is a pure function of (seed, index), so sampling is
reproducible and parallelizable without shared state.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """64-bit value at position `index` of the stream keyed by `seed`."""
    z = (seed * 0x632BE59BD9B4E019 + (index + 1) * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def values_mod(seed: int, start: int, count: int, modulus: int) -> list[int]:
    """Stream values [start, start+count) reduced mod `modulus`."""
    return [splitmix64(seed, i) % modulus for i in range(start, start + count)]


def values_mod_np(seed: int, positions: np.ndarray, modulus: int) -> np.ndarray:
    """Stream values at an array of positions, in its shape, mod `modulus`: values_mod's stream as int64."""
    idx = np.asarray(positions).astype(np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed * 0x632BE59BD9B4E019 & _MASK) + (idx + np.uint64(1)) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(modulus)).astype(np.int64)
