"""Exact spectral simulation of the vector stochastic heat equation on a circle.

The field u(t, x) in R^d solves  du = (1/2) u_xx dt + dW  on the circle of
length J with additive space-time white noise.  In the real Fourier basis

    u_j(t, x) = J^{-1/2} [ b0_j + sum_k sqrt(2) (b_kj cos(2 pi k x / J)
                                              + c_kj sin(2 pi k x / J)) ]

the coefficients are independent: b0 is a standard Brownian motion and each
(b_k, c_k) pair is an Ornstein-Uhlenbeck process with rate lam_k / J^2,
lam_k = 2 pi^2 k^2, and unit noise intensity.  Time stepping samples the
OU transition exactly, so the step size only controls how often the field
is observed, never integrator accuracy.  For J = 1 this reduces to the
plain unit-circle expansion b0 + sum sqrt(2)(b cos + c sin).

The string at one time is its (d, 2K+1) coefficient array, read with its
`ModelParams`: row j holds coordinate j, column 0 b0, columns 1..K the b_k
and columns K+1..2K the c_k.  A path stacks such arrays along a leading time
axis; `grid_values` is the one route from coefficients to grid values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI_SQ = 2.0 * math.pi ** 2


def mode_rates(K: int) -> np.ndarray:
    """Mean-reversion rates lam_k = 2 pi^2 k^2 for k = 1..K."""
    k = np.arange(1, K + 1, dtype=float)
    return TWO_PI_SQ * k * k


@dataclass(frozen=True)
class ModelParams:
    """Model and resolution parameters.

    d: state dimension; J: circle length; nu: trap intensity; a: trap
    radius; K: Fourier mode cutoff; M: evaluation grid size (>= 2K+1);
    dt: observation step; T: time horizon; eps_tail: bound accepted for
    the neglected per-coefficient stationary variance sum_{k>K} 1/(4 pi^2 k^2).
    """

    d: int
    J: float = 1.0
    nu: float = 1.0
    a: float = 0.3
    K: int = 64
    M: int = 256
    dt: float = 0.01
    T: float = 1.0
    eps_tail: float = 1e-3

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.J < 1:
            raise ValueError("circle length J must be >= 1")
        if self.nu < 0:
            raise ValueError("trap intensity nu must be >= 0")
        if not 0 < self.a <= 1:
            raise ValueError("trap radius a must lie in (0, 1]")
        if self.K < 1:
            raise ValueError("mode cutoff K must be >= 1")
        if self.M < 2 * self.K + 1:
            raise ValueError("grid size M must be >= 2K+1")
        if self.dt <= 0:
            raise ValueError("time step dt must be > 0")
        if self.T < 0:
            raise ValueError("horizon T must be >= 0")
        if self.tail_variance() >= self.eps_tail:
            raise ValueError(
                f"neglected tail variance {self.tail_variance():.3e} exceeds "
                f"eps_tail={self.eps_tail:.3e}; increase K"
            )

    def tail_variance(self) -> float:
        """Stationary variance neglected per real mode coefficient, sum_{k>K} 1/(4 pi^2 k^2)."""
        # polygamma(1, K+1) = sum_{k > K} 1/k^2
        from scipy.special import polygamma

        return float(polygamma(1, self.K + 1)) / (4.0 * math.pi ** 2)

    def grid(self) -> np.ndarray:
        """M equally spaced points on [0, J)."""
        return np.arange(self.M) * (self.J / self.M)

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


# Kept only as the snapshot list `survival._soft_weight` hands
# `traps.path_functional` (which checks the values are finite): the
# benchmark's tracing hook reads that argument as `trajectory[0].values`.
@dataclass(frozen=True)
class FieldSamples:
    """Field values on the uniform evaluation grid: values[m, j] = u_j(x_m)."""

    grid: np.ndarray
    values: np.ndarray


def zero_state(params: ModelParams) -> np.ndarray:
    """The zero string: coefficients (d, 2K+1), all 0."""
    return np.zeros((params.d, 2 * params.K + 1))


def grid_values(params: ModelParams, coeffs: np.ndarray) -> np.ndarray:
    """Field values (..., M, d) on the uniform grid from coefficients
    (..., d, 2K+1), via inverse FFT over any leading batch axes."""
    M, K, J = params.M, params.K, params.J
    spec = np.zeros(coeffs.shape[:-2] + (M // 2 + 1, params.d), dtype=complex)
    spec[..., 0, :] = coeffs[..., 0] / math.sqrt(J)
    bk = coeffs[..., 1 : K + 1]
    ck = coeffs[..., K + 1 :]
    spec[..., 1 : K + 1, :] = np.swapaxes(bk - 1j * ck, -1, -2) / math.sqrt(2.0 * J)
    return np.fft.irfft(spec * M, n=M, axis=-2)


def evaluate_at(params: ModelParams, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
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


def evolve(
    params: ModelParams, coeffs: np.ndarray, delta: float, rng: np.random.Generator, steps: int = 1
) -> np.ndarray:
    """Advance the string with coefficients `coeffs` (d, 2K+1) `steps` times
    by `delta`, sampling the exact OU transition, and return the
    coefficients (steps+1, d, 2K+1): row 0 is `coeffs`, row i the string
    i delta later.

    Mode 0 gains an independent N(0, delta) increment per coordinate and
    step; each retained mode k decays by exp(-lam_k delta / J^2) and gains
    Gaussian noise with the exact transition variance.  All draws come from
    one `standard_normal((steps, d, 2K+1))` call, so the path is bit-equal
    to `steps` single-step calls on the same generator.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    p = params
    if coeffs.shape != (p.d, 2 * p.K + 1):
        raise ValueError(f"coeffs must have shape ({p.d}, {2 * p.K + 1})")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    lam = mode_rates(p.K) / p.J ** 2
    decay = np.exp(-lam * delta)
    trans_sd = np.sqrt((1.0 - decay ** 2) / (2.0 * lam))
    # mode 0 (Brownian) takes a decay of exactly 1.0, so c * 1.0 + noise is c + noise
    decay = np.concatenate([[1.0], decay, decay])
    sd = np.concatenate([[math.sqrt(delta)], trans_sd, trans_sd])
    noise = sd * rng.standard_normal((steps, p.d, 2 * p.K + 1))
    path = np.empty((steps + 1,) + coeffs.shape)
    path[0] = coeffs
    for i in range(steps):
        path[i + 1] = path[i] * decay + noise[i]
    return path


def heat_convolve(params: ModelParams, coeffs: np.ndarray, delta: float) -> np.ndarray:
    """Apply the heat semigroup G_delta to the string (mode-wise decay; mode 0 keeps factor 1.0)."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    decay = np.exp(-mode_rates(params.K) / params.J ** 2 * delta)
    return coeffs * np.concatenate([[1.0], decay, decay])


def noise_segment(
    params: ModelParams, coeffs_s: np.ndarray, coeffs_t: np.ndarray, delta: float
) -> np.ndarray:
    """Noise accumulated from the string `coeffs_s` at time s to the string
    `coeffs_t` of the same trajectory at t = s + delta, in coefficient form.

    N(s, t; x) = u(t, x) - (G_{t-s} * u(s))(x); for strings produced by
    `evolve` this isolates exactly the Gaussian innovations of (s, t].
    """
    if delta <= 0:
        raise ValueError("need delta = t - s > 0")
    return coeffs_t - heat_convolve(params, coeffs_s, delta)


def sample_stationary_field(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Sample the stationary anchored noise field N1(t; . , 0) as its
    coefficient array (d, 2K+1); `grid_values` reads it on the grid.

    Every retained coefficient is drawn from its stationary law
    N(0, J^2 / (2 lam_k)); mode 0 carries the anchor c0 = -sqrt(2) sum_k b_k,
    so the field is exactly 0 at x = 0.  The law does not depend on t.
    """
    p = params
    lam = mode_rates(p.K) / p.J ** 2
    sd = np.sqrt(1.0 / (2.0 * lam))
    coeffs = np.empty((p.d, 2 * p.K + 1))
    coeffs[:, 1:] = rng.standard_normal((p.d, 2 * p.K)) * np.concatenate([sd, sd])
    coeffs[:, 0] = -math.sqrt(2.0) * coeffs[:, 1 : p.K + 1].sum(axis=1)
    return coeffs


def variance_series(
    kind: str, t: float, x: float = 0.0, y: float = 0.0, K: int = 4096
) -> float:
    """Exact truncated-series variances of the unit-circle field (per coordinate).

    kind='u':      Var u_j(t, x) from zero initial data
                   = t + sum_k (1 - e^{-2 lam_k t}) / lam_k
    kind='N2':     Var of the pre-0 noise tail difference N2(t; x, y)
                   = sum_k (e^{-2 lam_k t} / lam_k) w_k
    kind='N1diff': Var of the stationary field difference N1(t; x, 0=y)
                   = sum_k (1 / lam_k) w_k           (equals D(1-D) as K->inf)
    kind='gspace': int_0^t int [G(s,x,z)-G(s,y,z)]^2 dz ds
                   = sum_k ((1 - e^{-2 lam_k t}) / lam_k) w_k

    with w_k = |1 - e^{2 pi i k (x-y)}|^2 = 2 - 2 cos(2 pi k (x-y)); the
    sums run over k = 1..K and already account for the +-k mode pairs.
    The neglected tail is below sum_{k>K} 4/lam_k = 2/(pi^2) sum_{k>K} k^-2.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    lam = mode_rates(K)
    if kind == "u":
        return float(t + np.sum((1.0 - np.exp(-2.0 * lam * t)) / lam))
    k = np.arange(1, K + 1, dtype=float)
    w = 2.0 - 2.0 * np.cos(2.0 * math.pi * k * (x - y))
    if kind == "N2":
        return float(np.sum(np.exp(-2.0 * lam * t) / lam * w))
    if kind == "N1diff":
        return float(np.sum(w / lam))
    if kind == "gspace":
        return float(np.sum((1.0 - np.exp(-2.0 * lam * t)) / lam * w))
    raise ValueError(f"unknown variance series kind: {kind!r}")
