"""Shared numerically-stable primitives (plain numpy, no autodiff)."""

from __future__ import annotations

import math

import numpy as np

# Below this norm a gate input is treated as degenerate (zero direction).
NORM_EPS = 1e-12


def last_axis_max(z: np.ndarray) -> np.ndarray:
    """``np.max(z, axis=-1, keepdims=True)``: exact in any order, and cheaper
    as one ``np.maximum`` per column when the last axis is short."""
    m = z[..., 0]
    for j in range(1, z.shape[-1]):
        m = np.maximum(m, z[..., j])
    return m[..., None]


def stable_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax with max-subtraction along the last axis."""
    e = np.exp(z - last_axis_max(z))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    ex = math.exp(x)
    return ex / (1.0 + ex)
