"""Diagnostics on the proof machinery: stopping times, smoothing and
variance inequalities, clearing-strategy bounds, and exponent fitting.

All damping constants use the standardized mode rates lam_k = 2 pi^2 k^2;
inequality constants quoted in reports are restated under that convention.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as streams
from .geometry import PointCloud, sausage_volume_hit_or_miss
from .simulate import Trace
from .spectral import (
    ModelParams,
    evolve,
    grid_values,
    heat_convolve,
    noise_segment,
    variance_series,
)
from .statistics import range_of, squared_distances


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# separation times of the center of mass


def tau_sequence(com: np.ndarray, Lambda: float) -> np.ndarray:
    """Sample indices of the successive times at which the center of mass
    `com` (n, d) is 4*Lambda away from all previously selected centers;
    the first is 0 (tau_0 = 0).

    Times are located on the sampling grid (first grid time satisfying the
    condition), so the sampling step should stay below Lambda/10.
    """
    thresh2 = (4.0 * Lambda) ** 2
    picks = [0]
    for i in range(1, com.shape[0]):
        if squared_distances(com[picks].T, com[i]).min() >= thresh2:
            picks.append(i)
    return np.asarray(picks)


# ---------------------------------------------------------------------------
# chain parameters


def chain_delta(a: float) -> float:
    return a / 100.0


def chain_L(a: float, E_const: float) -> float:
    return E_const + 3.0 * abs(math.log(a))


def choose_E(d: int, a: float) -> float:
    """Smallest integer E >= 1 making the smoothing bound 4 d e^{-2 pi^2 L} <= delta.

    This is the only machine-checkable admissibility condition; the others
    involve non-constructive constants and are covered by the diagnostic
    reports instead.
    """
    delta = chain_delta(a)
    E = 1.0
    while 4.0 * d * math.exp(-2.0 * math.pi ** 2 * chain_L(a, E)) > delta:
        E += 1.0
    return E


def calibrate_lambda(params: ModelParams, L: float, n_rep: int, seed: int) -> float:
    """Empirical separation parameter: 75th percentile of the range of the
    accumulated noise over one window of length L, from zero initial data.
    The n_rep windows are evolved as one block, window r from (AUX, r),
    each re-keyed on one generator."""
    gen = streams.new_generator()
    gens = (streams.rekey(gen, seed, streams.AUX, r) for r in range(n_rep))
    ends = evolve(params, np.zeros((n_rep, params.d, 2 * params.K + 1)), L, gens)[:, -1]
    ranges = [range_of(values) for values in grid_values(params, ends)]
    return max(1.0 + 1e-9, float(np.percentile(ranges, 75)))


# ---------------------------------------------------------------------------
# range smoothing and variance-series reports


@dataclass(frozen=True)
class RangeSmoothingReport:
    t: float
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + 1e-9)


def range_smoothing_check(params: ModelParams, coeffs: np.ndarray, t: float) -> RangeSmoothingReport:
    """Verify range(G_t * f) <= 4 d e^{-2 pi^2 t} ||f - mean||_2 (t >= 1) for
    the field f with coefficients `coeffs` (d, 2K+1).

    The grid is read as the unit circle at any J: G_t runs for time t J^2,
    so mode k decays by e^{-2 pi^2 k^2 t}.  Mode 0 is zeroed first, as range
    is shift-invariant; the L2 norm is the grid quadrature of |f - mean|.
    """
    if t < 1:
        warnings.warn("range_smoothing_check called with t < 1 (outside its hypothesis)")
    centered = coeffs.copy()
    centered[:, 0] = 0.0
    lhs = range_of(grid_values(params, heat_convolve(params, centered, t * params.J ** 2)))
    l2 = math.sqrt(float(squared_distances(grid_values(params, centered).T, np.zeros(params.d)).mean()))
    rhs = 4.0 * params.d * math.exp(-2.0 * math.pi ** 2 * t) * l2
    return RangeSmoothingReport(t, lhs, rhs)


@dataclass(frozen=True)
class GSpaceReport:
    t: float
    distances: np.ndarray
    ratios: np.ndarray

    @property
    def c1(self) -> float:
        return float(self.ratios.min())

    @property
    def c2(self) -> float:
        return float(self.ratios.max())

    @property
    def spread(self) -> float:
        return self.c2 / self.c1

    @property
    def bounded(self) -> bool:
        return self.spread <= 25.0


def gspace_ratio(t: float, pairs) -> GSpaceReport:
    """Ratio of the heat-difference energy series to the torus distance.

    Evaluates int_0^t int [G(s,x,z) - G(s,y,z)]^2 dz ds via the exact series,
    truncated at 4096 modes, and reports ratio/d(x,y) per pair; the ratio
    spread across pairs is the empirical local-Brownian constant band.
    """
    if t < 1:
        warnings.warn("gspace_ratio called with t < 1 (outside its hypothesis)")
    dists, ratios = [], []
    for x, y in pairs:
        dxy = abs(x - y) % 1.0
        dxy = min(dxy, 1.0 - dxy)
        if dxy == 0.0:
            continue  # degenerate pair, excluded
        series = variance_series("gspace", t, x, y, K=4096)
        dists.append(dxy)
        ratios.append(series / dxy)
    if not ratios:
        raise ValueError("no nondegenerate pairs supplied")
    return GSpaceReport(t, np.asarray(dists), np.asarray(ratios))


# ---------------------------------------------------------------------------
# stopping chain


class ChainInvariantError(AssertionError):
    pass


@dataclass(frozen=True)
class StoppingChain:
    Lambda: float
    delta: float
    L: float
    max_step: float  # largest center-of-mass move between samples
    tau: np.ndarray
    S: np.ndarray
    T_seq: np.ndarray
    range_noise: np.ndarray  # range of N(T_{i-1}, T_i) per interval
    range_string: np.ndarray  # range of u(T_i) per interval
    vol_string: np.ndarray  # sausage volume of u(T_i) at radius a
    vol_noise: np.ndarray  # sausage volume of N(T_{i-1}, T_i) at radius a/2

    @property
    def n_intervals(self) -> int:
        return self.S.shape[0]

    @property
    def step_limit(self) -> float:
        """The sampling guard of tau detection: steps below Lambda/10 resolve the separation times."""
        return self.Lambda / 10.0

    @property
    def resolved(self) -> bool:
        return self.max_step < self.step_limit


def stopping_chain(
    trace: Trace,
    Lambda: float,
    seed: int = 0,
    n_mc: int = 20_000,
) -> StoppingChain:
    """Build the S_i / T_i stopping chain of a completed trace.

    S_i is the first grid time >= T_{i-1} + L at which the heat-smoothed
    previous segment has range <= delta; T_i is the first separation time
    tau_j >= S_i, where delta = chain_delta(a) and L = chain_L(a, choose_E(d, a)).
    Each completed interval records the range of the noise segment
    N(T_{i-1}, T_i) and sausage volumes of u(T_i) at radius a and of the
    segment at radius a/2, and the closeness and volume-domination
    inequalities between them are asserted within estimator tolerance.
    Warns when the chain is not `resolved`: its largest center-of-mass step
    is at or above `step_limit`, too coarse to locate the separation times.
    """
    p = trace.params
    a = p.a
    delta = chain_delta(a)
    L = chain_L(a, choose_E(p.d, a))
    com = trace.com
    step = float(np.sqrt(squared_distances(com[1:].T, com[:-1].T)).max(initial=0.0))
    tau = tau_sequence(com, Lambda)
    times = trace.times
    dt = p.dt

    # one record per completed interval: (S_i, T_i, range of the noise segment,
    # range of u(T_i), volume of u(T_i) at a, volume of the segment at a/2)
    records: list[tuple[float, ...]] = []
    i_prev = 0
    # segment whose smoothed range defines S_i: the initial string for i=1,
    # afterwards the noise accumulated over the previous completed interval
    seg = trace.coeffs[0]
    while (T_prev := float(times[i_prev])) + L <= times[-1]:
        # locate S_{i+1}
        j = int(math.ceil(round((T_prev + L) / dt, 9)))
        while j < times.shape[0] and range_of(grid_values(p, heat_convolve(p, seg, times[j] - T_prev))) > delta:
            j += 1
        later = tau[tau >= j]  # empty too when no grid time is S_{i+1}
        if later.size == 0:
            break
        i_T = int(later[0])
        i = len(records)

        seg = noise_segment(p, trace.coeffs[i_prev], trace.coeffs[i_T], times[i_T] - T_prev)
        seg_values = grid_values(p, seg)
        u_values = trace.values[i_T]
        r_n = range_of(seg_values)
        r_u = range_of(u_values)
        if abs(r_u - r_n) > 2.0 * delta + 1e-9:
            raise ChainInvariantError(
                f"interval {i + 1}: |range(u) - range(noise)| = {abs(r_u - r_n):.3g} "
                f"exceeds 2*delta = {2 * delta:.3g}"
            )
        est_u = sausage_volume_hit_or_miss(
            PointCloud(u_values), a, n_mc, streams.substream(seed, streams.MC, 2 * i)
        )
        est_n = sausage_volume_hit_or_miss(
            PointCloud(seg_values), a / 2.0, n_mc, streams.substream(seed, streams.MC, 2 * i + 1)
        )
        if est_u.volume < est_n.volume - 4.0 * (est_u.stderr + est_n.stderr):
            raise ChainInvariantError(
                f"interval {i + 1}: string sausage volume {est_u.volume:.4g} below "
                f"noise-segment sausage volume {est_n.volume:.4g} beyond MC tolerance"
            )
        records.append((times[j], times[i_T], r_n, r_u, est_u.volume, est_n.volume))
        i_prev = i_T

    chain = StoppingChain(Lambda, delta, L, step, times[tau], *np.array(records, float).reshape(-1, 6).T)
    if not chain.resolved:
        warnings.warn(
            f"path sampling too coarse for tau detection: max step {chain.max_step:.3g} "
            f">= Lambda/10 = {chain.step_limit:.3g}"
        )
    return chain


# ---------------------------------------------------------------------------
# clearing-strategy lower bound


@dataclass(frozen=True)
class ClearingBound:
    """The maximizer and maximum of g(alpha) = -A alpha^d - B / alpha^2."""

    alpha_star: float
    exponent_value: float
    A: float
    B: float
    clearing_probability: float

    def __post_init__(self):
        if not (0 < self.alpha_star < math.inf and -math.inf < self.exponent_value < 0):
            raise ValueError(f"no finite clearing bound from A={self.A!r}, B={self.B!r} (alpha*={self.alpha_star!r}, "
                             f"g={self.exponent_value!r}): it needs nu > 0 and an optimum within the float range")


def clearing_exponent(alpha: float, A: float, B: float, d: int) -> float:
    """g(alpha) = -A alpha^d - B / alpha^2 (maximized by the clearing strategy)."""
    return -A * alpha ** d - B / alpha ** 2


def maximize_clearing_exponent(A: float, B: float, d: int) -> tuple[float, float]:
    """Closed-form maximizer of g: alpha* = (2B / (d A))^{1/(d+2)}."""
    alpha = (2.0 * B / (d * A)) ** (1.0 / (d + 2))
    return alpha, clearing_exponent(alpha, A, B, d)


def clearing_bound(
    d: int, nu: float, a: float, J: float, T: float, logC0: float
) -> ClearingBound:
    """Optimal trap-free-ball strategy: radius alpha* and exponent value.

    Maximizes g(alpha) = -nu J^{d/2} c_d 2^d alpha^d + (T / (J^2 alpha^2)) logC0
    in closed form, with c_d the unit-ball volume; also returns the
    probability exp(-nu c_d (alpha* + a)^d) that the cleared ball is empty.
    Raises ValueError when alpha* or g(alpha*) is not finite, as at nu = 0.
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    if logC0 >= 0:
        raise ValueError("logC0 must be negative")
    c_d = unit_ball_volume(d)
    A = nu * J ** (d / 2.0) * c_d * 2.0 ** d
    B = T * (-logC0) / J ** 2
    try:
        alpha, value = maximize_clearing_exponent(A, B, d)
        prob = math.exp(-nu * c_d * (alpha + a) ** d)
    except (ZeroDivisionError, OverflowError):  # A = 0, or alpha* past the float range
        alpha = value = prob = math.nan
    return ClearingBound(alpha, value, A, B, prob)


# ---------------------------------------------------------------------------
# exponent fitting


@dataclass(frozen=True)
class ExponentFit:
    gamma_hat: float
    gamma_stderr: float
    intercept: float

    def ci95(self) -> tuple[float, float]:
        return (self.gamma_hat - 1.96 * self.gamma_stderr, self.gamma_hat + 1.96 * self.gamma_stderr)


def exponent_fit(Ts, neg_log_S, stderr=None) -> ExponentFit:
    """Weighted least squares of log(-log S) against log T.

    `stderr` (optional) are standard errors of -log S; weights follow by
    the delta method.  Requires >= 4 finite, positive horizons spanning >= 1
    decade, finite and strictly positive -log S values, and finite,
    non-negative standard errors.
    """
    Ts = np.asarray(Ts, float)
    y_raw = np.asarray(neg_log_S, float)
    if Ts.ndim != 1 or Ts.shape[0] < 4:
        raise ValueError(f"Ts needs at least 4 horizon values, got shape {Ts.shape}")
    for name, column in (("neg_log_S", neg_log_S), ("stderr", stderr)):
        if column is not None and np.shape(column) != Ts.shape:
            raise ValueError(f"{name} needs one value per horizon ({len(Ts)}), got shape {np.shape(column)}")
    if not np.all(np.isfinite(Ts) & (Ts > 0)):
        raise ValueError(f"horizons T must be finite and > 0, got {Ts.tolist()}")
    if Ts.max() / Ts.min() < 10.0:
        raise ValueError("horizons must span at least 1 decade")
    if not np.all(np.isfinite(y_raw)):
        raise ValueError(f"-log S values must be finite (survival above 0), got {y_raw.tolist()}")
    if np.any(y_raw <= 0):
        raise ValueError("-log S values must be positive (survival CI excludes 1)")
    x = np.log(Ts)
    y = np.log(y_raw)
    if stderr is not None:
        se = np.asarray(stderr, float)
        if not np.all(np.isfinite(se) & (se >= 0)):
            raise ValueError(f"stderr values must be finite and >= 0, got {se.tolist()}")
        sig = se / y_raw
        w = 1.0 / np.maximum(sig, 1e-12) ** 2
    else:
        w = np.ones_like(y)
    W = np.sum(w)
    xb = np.sum(w * x) / W
    yb = np.sum(w * y) / W
    sxx = np.sum(w * (x - xb) ** 2)
    slope = np.sum(w * (x - xb) * (y - yb)) / sxx
    intercept = yb - slope * xb
    if stderr is not None:
        se = math.sqrt(1.0 / sxx)
    else:
        resid = y - intercept - slope * x
        dof = max(1, x.shape[0] - 2)
        se = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx)
    return ExponentFit(float(slope), float(se), float(intercept))
