"""Small shared utilities: RNG handling, bit packing, probability algebra."""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "resolve_rng",
    "xor_probability",
    "combine_flip_probabilities",
    "env_int",
    "env_float",
    "env_str",
]


def resolve_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Return a numpy Generator from a Generator, a seed, or None (fresh entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def xor_probability(p: float, q: float) -> float:
    """Probability that exactly one of two independent events occurs."""
    return p * (1.0 - q) + q * (1.0 - p)


def combine_flip_probabilities(probs) -> float:
    """Probability that an odd number of independent flips occur.

    Uses the identity P(odd) = (1 - prod(1 - 2 p_i)) / 2.
    """
    acc = 1.0
    for p in probs:
        acc *= 1.0 - 2.0 * float(p)
    return (1.0 - acc) / 2.0


def env_int(name: str, default: int) -> int:
    """Integer knob from the environment (used by benchmarks to scale shots)."""
    raw = os.environ.get(name)
    return default if raw is None else int(raw)


def env_float(name: str, default: float) -> float:
    """Float knob from the environment."""
    raw = os.environ.get(name)
    return default if raw is None else float(raw)


def env_str(name: str, default: str) -> str:
    """String knob from the environment (empty counts as unset)."""
    raw = os.environ.get(name)
    return default if not raw else raw
