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


def grid_values_by_complex_spectrum(params, coeffs: np.ndarray) -> np.ndarray:
    """Grid values (..., M, d) built the way `spectral.grid_values` once
    built them: the spectrum from complex temporaries, (b - i c) / sqrt(2J)
    and c0 / sqrt(J), scaled by M, transformed along the last axis and
    copied into point-major order."""
    M, K, J = params.M, params.K, params.J
    spec = np.zeros(coeffs.shape[:-1] + (M // 2 + 1,), dtype=complex)
    spec[..., 0] = coeffs[..., 0] / math.sqrt(J)
    spec[..., 1 : K + 1] = (coeffs[..., 1 : K + 1] - 1j * coeffs[..., K + 1 :]) / math.sqrt(2.0 * J)
    spec *= M
    values = np.fft.irfft(spec, n=M, axis=-1)
    return np.ascontiguousarray(np.swapaxes(values, -1, -2))
