"""Deterministic seed derivation for parallel task streams.

Every stochastic computation receives its randomness through a stream
derived from ``(master_seed, *path)`` where the path identifies the task
(command id, grid index, replica index, ...).  Derivation is a fixed
64-bit mix (splitmix64), so results are reproducible across runs and
independent of scheduling order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_seed", "derive_seed", "stream"]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def as_seed(value: object) -> int:
    """``value`` as a master seed: an int, not a bool, in [0, 2^64); else ``ValueError``.

    ``derive_seed`` reduces seeds modulo 2^64, so -1 would alias 2^64 - 1.
    """
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= _MASK64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return value


def derive_seed(master_seed: int, *path: int) -> int:
    """Mix a master seed with a task path into a new 64-bit seed."""
    s = master_seed & _MASK64
    for part in path:
        s = _splitmix64(s ^ _splitmix64(part & _MASK64))
    return s


def stream(seed: int) -> np.random.Generator:
    """Random stream for one task; exclusive to its caller."""
    return np.random.default_rng(seed & _MASK64)
