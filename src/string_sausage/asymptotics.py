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
    zero_state,
)
from .statistics import PathRecord, range_of


def unit_ball_volume(d: int) -> float:
    """Lebesgue volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# separation times of the center of mass


def max_com_step(path: PathRecord) -> float:
    """Largest center-of-mass move between samples; tau detection needs it below Lambda/10."""
    steps = np.diff(np.atleast_2d(path.X), axis=0)
    return float(np.sqrt((steps ** 2).sum(axis=1)).max(initial=0.0))


def tau_sequence(path: PathRecord, Lambda: float) -> np.ndarray:
    """Successive times at which the center of mass is 4*Lambda away from
    all previously selected centers; tau_0 = 0.

    Times are located on the sampling grid (first grid time satisfying the
    condition).  Warns when sampling is coarse relative to Lambda.
    """
    X = np.atleast_2d(path.X)
    step = max_com_step(path)
    if step >= Lambda / 10.0:
        warnings.warn(
            f"path sampling too coarse for tau detection: max step {step:.3g} "
            f">= Lambda/10 = {Lambda / 10:.3g}"
        )
    centers = [X[0]]
    taus = [float(path.times[0])]
    thresh2 = (4.0 * Lambda) ** 2
    for i in range(1, X.shape[0]):
        c = np.asarray(centers)
        if np.min(((c - X[i]) ** 2).sum(axis=1)) >= thresh2:
            centers.append(X[i])
            taus.append(float(path.times[i]))
    return np.asarray(taus)


def tau_count_diagnostic(paths, Lambda: float, T: float, d: int) -> dict:
    """Reported (not asserted) check of the separation-count lower bound
    #(T) >= C_d T^{d/(d+2)} / Lambda^d with C_d = Gamma(d/2+1) / (16^d pi^{d/2})."""
    C_d = math.gamma(d / 2.0 + 1.0) / (16.0 ** d * math.pi ** (d / 2.0))
    bound = C_d * T ** (d / (d + 2.0)) / Lambda ** d
    counts = np.array([max(0, tau_sequence(p, Lambda).shape[0] - 1) for p in paths])
    return {
        "bound": bound,
        "counts": counts,
        "fraction_above": float(np.mean(counts >= bound)),
    }


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
    accumulated noise over one window of length L, from zero initial data."""
    ranges = np.empty(n_rep)
    for r in range(n_rep):
        gen = streams.substream(seed, streams.AUX, r)
        ranges[r] = range_of(grid_values(params, evolve(params, zero_state(params), L, gen)[-1]))
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
    l2 = math.sqrt(float((grid_values(params, centered) ** 2).sum(axis=1).mean()))
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
    """
    p = trace.params
    a = p.a
    delta = chain_delta(a)
    L = chain_L(a, choose_E(p.d, a))
    path = trace.path_record()
    tau = tau_sequence(path, Lambda)
    times = trace.times
    dt = p.dt

    S_list: list[float] = []
    T_list: list[float] = []
    rng_noise, rng_string, vol_u, vol_n = [], [], [], []
    T_prev = 0.0
    # segment whose smoothed range defines S_i: the initial string for i=1,
    # afterwards the noise accumulated over the previous completed interval
    seg = trace.coeffs[0]
    i = 0
    while True:
        # locate S_{i+1}
        start = T_prev + L
        if start > times[-1]:
            break
        j = int(math.ceil(round(start / dt, 9)))
        S_i = None
        while j < times.shape[0]:
            t = times[j]
            if range_of(grid_values(p, heat_convolve(p, seg, t - T_prev))) <= delta:
                S_i = float(t)
                break
            j += 1
        if S_i is None:
            break
        later = tau[tau >= S_i - 1e-12]
        if later.size == 0:
            break
        T_i = float(later[0])
        S_list.append(S_i)
        T_list.append(T_i)

        i_prev, i_T = round(T_prev / dt), round(T_i / dt)
        seg = noise_segment(p, trace.coeffs[i_prev], trace.coeffs[i_T], T_i - T_prev)
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
        rng_noise.append(r_n)
        rng_string.append(r_u)
        vol_u.append(est_u.volume)
        vol_n.append(est_n.volume)
        T_prev = T_i
        i += 1

    chain = StoppingChain(
        Lambda,
        delta,
        L,
        tau,
        np.asarray(S_list),
        np.asarray(T_list),
        np.asarray(rng_noise),
        np.asarray(rng_string),
        np.asarray(vol_u),
        np.asarray(vol_n),
    )
    _check_chain_ordering(chain)
    return chain


def _check_chain_ordering(chain: StoppingChain) -> None:
    tau, S, T_seq, L = chain.tau, chain.S, chain.T_seq, chain.L
    if np.any(np.diff(tau) <= 0):
        raise ChainInvariantError("tau sequence not increasing")
    prev_T = 0.0
    for i in range(S.shape[0]):
        if S[i] < prev_T + L - 1e-9:
            raise ChainInvariantError(f"S[{i}] violates the gap >= L from the previous T")
        if T_seq[i] < S[i] - 1e-12:
            raise ChainInvariantError(f"T[{i}] earlier than S[{i}]")
        earlier = tau[(tau >= S[i] - 1e-12) & (tau < T_seq[i] - 1e-12)]
        if earlier.size:
            raise ChainInvariantError(f"T[{i}] is not the first tau after S[{i}]")
        prev_T = float(T_seq[i])


# ---------------------------------------------------------------------------
# clearing-strategy lower bound


@dataclass(frozen=True)
class ClearingBound:
    alpha_star: float
    exponent_value: float
    c_d: float
    log_C0: float
    clearing_probability: float

    def __post_init__(self):
        if self.alpha_star <= 0 or self.exponent_value > 0:
            raise ValueError("invalid clearing bound")


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
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    if logC0 >= 0:
        raise ValueError("logC0 must be negative")
    c_d = unit_ball_volume(d)
    A = nu * J ** (d / 2.0) * c_d * 2.0 ** d
    B = T * (-logC0) / J ** 2
    alpha, value = maximize_clearing_exponent(A, B, d)
    prob = math.exp(-nu * c_d * (alpha + a) ** d)
    return ClearingBound(alpha, value, c_d, logC0, prob)


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
    the delta method.  Requires >= 4 horizons spanning >= 1 decade and
    strictly positive -log S values.
    """
    Ts = np.asarray(Ts, float)
    y_raw = np.asarray(neg_log_S, float)
    if Ts.shape[0] < 4:
        raise ValueError("need at least 4 horizon values")
    if Ts.max() / Ts.min() < 10.0:
        raise ValueError("horizons must span at least 1 decade")
    if np.any(y_raw <= 0):
        raise ValueError("-log S values must be positive (survival CI excludes 1)")
    x = np.log(Ts)
    y = np.log(y_raw)
    if stderr is not None:
        sig = np.asarray(stderr, float) / y_raw
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


# ---------------------------------------------------------------------------
# soft-obstacle confinement event frequencies


@dataclass(frozen=True)
class ConfinementReport:
    t: float
    s_max: float
    a: float
    n_rep: int
    freq_range: float  # range(N(0,t)) <= a/8
    freq_field_hold: float  # sup_{s<=s_max, x} |u(t+s,x)-u(t,x)| <= a/16
    freq_com_hold: float  # sup_{s<=s_max} |X_{t+s}-X_t| <= a/16
    freq_joint: float


def confinement_stats(
    params: ModelParams,
    t: float,
    s_max: float,
    n_rep: int,
    seed: int,
) -> ConfinementReport:
    """Frequencies of the confinement events used by the soft upper bound.

    Starts from zero initial data so the accumulated noise equals the
    string itself; the hold events are monitored on 8 sub-steps of
    [t, t + s_max].
    """
    a = params.a
    n_sub = 8
    hit_r = np.empty(n_rep, bool)
    hit_f = np.empty(n_rep, bool)
    hit_x = np.empty(n_rep, bool)
    for r in range(n_rep):
        gen = streams.substream(seed, streams.AUX, r)
        start = evolve(params, zero_state(params), t, gen)[-1]
        base = grid_values(params, start)
        hit_r[r] = range_of(base) <= a / 8.0
        hold = evolve(params, start, s_max / n_sub, gen, n_sub)[1:]
        dev = grid_values(params, hold) - base
        com = (hold[:, :, 0] - start[:, 0]) / math.sqrt(params.J)
        hit_f[r] = np.sqrt((dev ** 2).sum(axis=2)).max() <= a / 16.0
        hit_x[r] = np.sqrt((com ** 2).sum(axis=1)).max() <= a / 16.0
    return ConfinementReport(
        t,
        s_max,
        a,
        n_rep,
        float(np.mean(hit_r)),
        float(np.mean(hit_f)),
        float(np.mean(hit_x)),
        float(np.mean(hit_r & hit_f & hit_x)),
    )
