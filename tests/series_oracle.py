"""The string's Fourier series summed term by term, at any points: the
oracle the tests hold `spectral.grid_values` to."""

import math

import numpy as np


def grid(params) -> np.ndarray:
    """The M equally spaced points of [0, J) that `grid_values` evaluates."""
    return np.arange(params.M) * (params.J / params.M)


def evaluate_at(params, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Field values at arbitrary points x (shape (n,)) by summing the series, returns (n, d)."""
    p = params
    k = np.arange(1, p.K + 1)
    phase = 2.0 * math.pi * np.outer(np.asarray(x, float), k) / p.J  # (n, K)
    cos, sin = np.cos(phase), np.sin(phase)
    out = (
        coeffs[:, 0][None, :]
        + math.sqrt(2.0) * (cos @ coeffs[:, 1 : p.K + 1].T + sin @ coeffs[:, p.K + 1 :].T)
    )
    return out / math.sqrt(p.J)
