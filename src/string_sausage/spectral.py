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
axis; `grid_values` is the one route from coefficients to grid values, which
it stores coordinate-major: one contiguous row per coordinate, read in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy loads it lazily: load it with this module, not in the first transform

TWO_PI_SQ = 2.0 * math.pi ** 2


def _trigamma(x: float) -> float:
    """psi'(x) = sum_{k >= 0} 1/(x + k)^2 for x >= 1: the recurrence
    psi'(x) = 1/x^2 + psi'(x + 1) up to x >= 20, then the asymptotic series
    1/x + 1/(2x^2) + sum_j B_2j / x^(2j+1) through B_12, whose next term is
    below 1e-19 there."""
    n = max(0, math.ceil(20 - x))
    y = x + n
    u = 1.0 / (y * y)
    bernoulli = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)  # B_2 .. B_12
    series = 0.0
    for b in reversed(bernoulli):
        series = b + u * series
    value = 1 / y + u / 2 + series * u / y
    for k in reversed(range(n)):  # smallest terms first
        value += 1.0 / (x + k) ** 2
    return value


def mode_rates(K: int) -> np.ndarray:
    """Mean-reversion rates lam_k = 2 pi^2 k^2 for k = 1..K."""
    k = np.arange(1, K + 1, dtype=float)
    return TWO_PI_SQ * k * k


def horizon_steps(T: float, dt: float) -> int:
    """The number of steps of dt in the horizon T, which must lie within 1e-6
    of a whole number of them: a path is observed on that grid only."""
    steps = T / dt
    if not math.isfinite(steps):
        raise ValueError(f"horizon T={T!r} is not a finite number of steps of dt={dt!r}")
    n = round(steps)
    if abs(steps - n) > 1e-6:
        lo = math.floor(steps)
        raise ValueError(f"horizon T={T!r} is not a whole number of steps of dt={dt!r}: "
                         f"the nearest horizons on the grid are {lo * dt:.12g} and {(lo + 1) * dt:.12g}")
    return n


@dataclass(frozen=True)
class ModelParams:
    """Model and resolution parameters.

    d: state dimension; J: circle length; nu: trap intensity; a: trap
    radius; K: Fourier mode cutoff; M: evaluation grid size (>= 2K+1);
    dt: observation step; T: time horizon, a whole number of steps of dt
    (`horizon_steps`); eps_tail: bound accepted for the neglected
    per-coefficient stationary variance sum_{k>K} 1/(4 pi^2 k^2).

    The defaults are the package's one set: the CLI's model flags and the
    keys a `run` config omits take theirs from here.
    """

    d: int = 2
    J: float = 1.0
    nu: float = 1.0
    a: float = 0.3
    K: int = 16
    M: int = 64
    dt: float = 0.02
    T: float = 1.0
    eps_tail: float = 2e-3

    def __post_init__(self):
        for name in ("J", "nu", "a", "dt", "T", "eps_tail"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.J < 1:
            raise ValueError("circle length J must be >= 1")
        if math.isinf(self.J * self.J):
            raise ValueError(f"circle length J={self.J!r} is too large: J**2 overflows")
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
        horizon_steps(self.T, self.dt)
        if self.tail_variance() >= self.eps_tail:
            raise ValueError(
                f"neglected tail variance {self.tail_variance():.3e} exceeds "
                f"eps_tail={self.eps_tail:.3e}; increase K"
            )

    def tail_variance(self) -> float:
        """Stationary variance neglected per real mode coefficient, sum_{k>K} 1/(4 pi^2 k^2)."""
        return _trigamma(self.K + 1) / (4.0 * math.pi ** 2)

    @property
    def n_steps(self) -> int:
        return horizon_steps(self.T, self.dt)


# Kept only as the snapshot list `survival._soft` hands
# `traps.path_functional` (which checks the values are finite): the
# benchmark's tracing hook reads that argument as `trajectory[0].values`.
@dataclass(frozen=True)
class FieldSamples:
    """Field values on the uniform evaluation grid: values[m, j] = u_j(x_m)."""

    values: np.ndarray


def grid_values(params: ModelParams, coeffs: np.ndarray) -> np.ndarray:
    """Field values (..., M, d) on the uniform grid from coefficients
    (..., d, 2K+1), via inverse FFT over any leading batch axes: a view of
    the transform's coordinate rows (d, ..., M), each one contiguous."""
    M, K, J = params.M, params.K, params.J
    rows = np.moveaxis(coeffs, -2, 0)
    spec = np.zeros(rows.shape[:-1] + (M // 2 + 1,), dtype=complex)
    re, im = spec.real, spec.imag
    # M (b - i c) / sqrt(2J) in place, by the reciprocal, as numpy divides complex by real
    r = 1.0 / math.sqrt(2.0 * J)
    np.divide(rows[..., 0], math.sqrt(J), out=re[..., 0])
    np.multiply(rows[..., 1 : K + 1], r, out=re[..., 1 : K + 1])
    np.multiply(rows[..., K + 1 :], -r, out=im[..., 1 : K + 1])
    re *= M
    im *= M
    return np.moveaxis(numpy.fft.irfft(spec, n=M, axis=-1), 0, -1)


def evolve(params: ModelParams, coeffs: np.ndarray, delta: float, rng, steps: int = 1) -> np.ndarray:
    """Advance a block of B strings, `coeffs` (B, d, 2K+1), `steps` times by
    `delta`, sampling the exact OU transition, and return their paths
    (B, steps+1, d, 2K+1): path b row 0 is string b, row i the string
    i delta later.  `rng` is an iterable of B generators, taken one at a
    time: string b draws only from the b-th, before the next is taken, so
    its path does not depend on the rest of the block, and one generator
    re-keyed per string can serve them all.

    Mode 0 gains an independent N(0, delta) increment per coordinate and
    step; each retained mode k decays by exp(-lam_k delta / J^2) and gains
    Gaussian noise with the exact transition variance.  Each string's draws
    come from one `standard_normal` call of shape (steps, d, 2K+1), made
    into its own rows of the path, so the path is bit-equal to `steps`
    single-step calls on the same generator.
    """
    if delta <= 0 or steps < 0:
        raise ValueError(f"need delta > 0 and steps >= 0, got {delta!r} and {steps!r}")
    p = params
    if coeffs.shape[1:] != (p.d, 2 * p.K + 1):
        raise ValueError(f"coeffs must have shape (B, {p.d}, {2 * p.K + 1}), got {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    lam = mode_rates(p.K) / p.J ** 2
    decay = np.exp(-lam * delta)
    trans_sd = np.sqrt((1.0 - decay ** 2) / (2.0 * lam))
    # mode 0 (Brownian) takes a decay of exactly 1.0, so c * 1.0 + noise is c + noise
    decay = np.concatenate([[1.0], decay, decay])
    sd = np.concatenate([[math.sqrt(delta)], trans_sd, trans_sd])
    path = np.empty((len(coeffs), steps + 1) + coeffs.shape[1:])
    path[:, 0] = coeffs
    # each string's rows 1.. first hold its scaled noise, to which each
    # step adds the decayed previous row
    for gen, rows in zip(rng, path, strict=True):
        gen.standard_normal(out=rows[1:])
    path[:, 1:] *= sd
    decayed = np.empty_like(coeffs)
    times = path.swapaxes(0, 1)
    for prev, nxt in zip(times, times[1:]):
        np.multiply(prev, decay, out=decayed)
        np.add(nxt, decayed, out=nxt)
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
