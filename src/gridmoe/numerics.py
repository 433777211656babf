"""Shared numerically-stable primitives (plain numpy, no autodiff)."""

from __future__ import annotations

import math

import numpy as np

# Below this norm a gate input is treated as degenerate (zero direction).
NORM_EPS = 1e-12


def stable_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction along ``axis``."""
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)

