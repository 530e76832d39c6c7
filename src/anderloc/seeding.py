"""Deterministic seed derivation for parallel task streams.

Every stochastic computation receives its randomness through a stream
derived from ``(master_seed, *path)`` where the path identifies the task
(command id, grid index, replica index, ...).  Derivation is a fixed
64-bit mix (splitmix64), so results are reproducible across runs and
independent of scheduling order.  The same streams make replicas and
disorder paths independent samples, and ``_mean_stderr`` turns their
results into a mean and a standard error.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["derive_seed", "stream"]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def as_seed(value: object) -> int:
    """``value`` as a master seed: a Python int in [0, 2^64); else ``ValueError``.

    Python and numpy integers pass; bools, floats and strings do not.
    ``derive_seed`` reduces seeds modulo 2^64, so -1 would alias 2^64 - 1.
    """
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or not 0 <= int(value) <= _MASK64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return int(value)


def derive_seed(master_seed: int, *path: int) -> int:
    """Mix a master seed with a task path into a new 64-bit seed."""
    s = master_seed & _MASK64
    for part in path:
        s = _splitmix64(s ^ _splitmix64(part & _MASK64))
    return s


def stream(seed: int) -> np.random.Generator:
    """Random stream for one task; exclusive to its caller."""
    return np.random.default_rng(seed & _MASK64)


def _mean_stderr(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 0 of independent samples, and its standard error.

    The error is the sample standard deviation (ddof 1) over sqrt(n).  One
    sample has no spread to measure, and its error reads 0.  The spread is
    taken of each column divided by a power of two at or above its largest
    magnitude, then multiplied back: the scaling is exact, so the squares
    cannot overflow and every error whose own value is a finite float comes
    out finite, bit for bit the unscaled one wherever that was finite.
    """
    mean = samples.mean(axis=0)
    n = len(samples)
    if n == 1:
        return mean, np.zeros_like(mean)
    _, exponent = np.frexp(np.max(np.abs(samples), axis=0))
    return mean, np.ldexp(np.ldexp(samples, -exponent).std(axis=0, ddof=1) / math.sqrt(n), exponent)
