import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from string_sausage import asymptotics
from string_sausage.asymptotics import (
    calibrate_lambda,
    chain_L,
    chain_delta,
    choose_E,
    clearing_bound,
    clearing_exponent,
    exponent_fit,
    gspace_ratio,
    maximize_clearing_exponent,
    range_smoothing_check,
    stopping_chain,
    tau_sequence,
    unit_ball_volume,
)
from string_sausage.rng import AUX, substream
from string_sausage.simulate import brownian_path, simulate
from string_sausage.spectral import (
    ModelParams,
    evolve,
    grid_values,
    sample_stationary_field,
)
from string_sausage.statistics import range_of


def straight_path(T=20.0, dt=0.01, d=2):
    """Center of mass of a deterministic unit-speed straight path."""
    times = np.arange(int(T / dt) + 1) * dt
    X = np.zeros((times.shape[0], d))
    X[:, 0] = times
    return X


# ---------------------------------------------------------------------------
# tau sequence


def test_tau_straight_path():
    # separations every 4 time units, at samples 0, 400, ..., 2000 of dt = 0.01
    tau = tau_sequence(straight_path(T=20.0), Lambda=1.0)
    np.testing.assert_array_equal(tau, [0, 400, 800, 1200, 1600, 2000])


def test_tau_confined_path_is_trivial():
    rng = substream(1, AUX, 0)
    X = 0.05 * rng.standard_normal((101, 2)).cumsum(axis=0)  # stays near 0
    np.testing.assert_array_equal(tau_sequence(X, Lambda=2.0), [0])


def test_tau_covering_property():
    # the path's largest step (0.226) exceeds Lambda/10 at dt = 0.002; the
    # covering property holds at any sampling
    X = brownian_path(2, 30.0, 0.002, seed=2).points
    Lambda = 1.0
    centers = X[tau_sequence(X, Lambda)]
    # selected centers pairwise >= 4 Lambda apart
    if centers.shape[0] > 1:
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 4.0 * Lambda - 1e-9
    # every path point lies within 4 Lambda of some selected center
    d_to_centers = np.sqrt(((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
    assert d_to_centers.max() < 4.0 * Lambda


def test_tau_coarse_sampling_warns():
    # at dt = 1 the center of mass moves about 1 per step: too coarse for
    # Lambda = 1, fine for Lambda = 100
    trace = simulate(ModelParams(d=2, K=8, M=32, dt=1.0, T=5.0, eps_tail=5e-3), seed=3)
    step = float(np.linalg.norm(np.diff(trace.com, axis=0), axis=1).max())
    with pytest.warns(UserWarning, match="too coarse"):
        chain = stopping_chain(trace, Lambda=1.0, n_mc=2000)
    assert chain.max_step == pytest.approx(step, rel=1e-12) and step >= 0.1
    assert chain.step_limit == 0.1 and not chain.resolved
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fine = stopping_chain(trace, Lambda=100.0, n_mc=2000)
    assert fine.max_step == chain.max_step and fine.step_limit == 10.0 and fine.resolved


# ---------------------------------------------------------------------------
# chain parameters


def test_chain_parameters():
    a = 0.3
    assert abs(chain_delta(a) - 0.003) < 1e-15
    E = choose_E(2, a)
    L = chain_L(a, E)
    assert 4 * 2 * math.exp(-2.0 * math.pi ** 2 * L) <= chain_delta(a)


def test_calibrate_lambda_exceeds_one():
    p = ModelParams(d=2, K=8, M=32, eps_tail=5e-3)
    Lam = calibrate_lambda(p, L=4.6, n_rep=100, seed=4)
    assert Lam > 1.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_calibrate_lambda_equals_the_per_window_loop(d, monkeypatch):
    # the oracle evolves one window at a time, window r from (AUX, r); the
    # block's ranges must equal it element by element
    p = ModelParams(d=d, K=8, M=32, eps_tail=5e-3)
    L, n_rep, seed = 4.6, 30, 4
    zero = np.zeros((1, d, 2 * p.K + 1))
    loop = [range_of(grid_values(p, evolve(p, zero, L, [substream(seed, AUX, r)])[0, -1])) for r in range(n_rep)]
    ranges = []

    def recorded(values):
        ranges.append(range_of(values))
        return ranges[-1]

    monkeypatch.setattr(asymptotics, "range_of", recorded)
    Lam = calibrate_lambda(p, L, n_rep, seed)
    assert ranges == loop
    assert Lam == max(1.0 + 1e-9, float(np.percentile(loop, 75)))


# ---------------------------------------------------------------------------
# range smoothing


def cosine_field(mean=0.0, J=1.0):
    """f = sqrt(2) cos(2 pi x) + mean on the unit circle as coefficients:
    b_1 = 1 and b0 = mean (d=1, K=64, M=512)."""
    p = ModelParams(d=1, J=J, K=64, M=512)
    c = np.zeros((p.d, 2 * p.K + 1))
    c[0, 0] = mean
    c[0, 1] = 1.0
    return p, c


def test_range_smoothing_cosine_oracle():
    """f = sqrt(2) cos(2 pi x), d=1, t=1: LHS = 2 sqrt(2) e^{-2 pi^2},
    RHS = 4 e^{-2 pi^2} * ||f||_2 = 4 e^{-2 pi^2}."""
    p, c = cosine_field()
    x = np.arange(512) / 512.0
    np.testing.assert_allclose(grid_values(p, c)[:, 0], math.sqrt(2.0) * np.cos(2 * math.pi * x), atol=1e-14)
    rep = range_smoothing_check(p, c, 1.0)
    decay = math.exp(-2.0 * math.pi ** 2)
    assert abs(rep.lhs - 2.0 * math.sqrt(2.0) * decay) < 1e-10
    assert abs(rep.rhs - 4.0 * decay) < 1e-10
    assert rep.holds


def test_range_smoothing_resolves_t2_under_a_mean():
    """At t = 2 the smoothed range 2 sqrt(2) e^{-4 pi^2} ~ 2e-17 lies far
    below the mean 0.3; the check still reads it to 1e-9 relative."""
    p, c = cosine_field(mean=0.3)
    rep = range_smoothing_check(p, c, 2.0)
    decay = math.exp(-4.0 * math.pi ** 2)
    assert abs(rep.lhs / (2.0 * math.sqrt(2.0) * decay) - 1.0) < 1e-9
    assert abs(rep.rhs / (4.0 * decay) - 1.0) < 1e-9
    assert rep.holds


def test_range_smoothing_reads_the_unit_circle_at_any_J():
    # at J = 2 the same coefficients give a field scaled by 1/sqrt(2) and
    # twice as long; read on the unit circle, lhs/rhs is unchanged
    for t in (1.0, 2.0):
        reps = [range_smoothing_check(*cosine_field(J=J), t) for J in (1.0, 2.0)]
        assert abs(reps[1].lhs / reps[1].rhs - reps[0].lhs / reps[0].rhs) < 1e-12


def test_range_smoothing_constant_input():
    p = ModelParams(d=2, K=32, M=128)
    c = np.zeros((p.d, 2 * p.K + 1))
    c[:, 0] = 3.7
    rep = range_smoothing_check(p, c, 1.5)
    assert rep.lhs == 0.0
    assert rep.holds


def test_range_smoothing_random_inputs():
    p = ModelParams(d=2, K=64, M=192)
    for r in range(30):
        f = sample_stationary_field(p, substream(5, AUX, r))
        for t in (1.0, 2.0):
            assert range_smoothing_check(p, f, t).holds


def test_range_smoothing_warns_below_hypothesis():
    p = ModelParams(d=1, K=32, M=128)
    with pytest.warns(UserWarning):
        range_smoothing_check(p, np.zeros((p.d, 2 * p.K + 1)), 0.5)


# ---------------------------------------------------------------------------
# gspace ratios


def test_gspace_ratio_band_and_exclusion():
    pairs = [(0.0, 2.0 ** -m) for m in range(1, 8)] + [(0.25, 0.25)]
    rep = gspace_ratio(1.0, pairs)
    assert rep.ratios.shape == (7,)  # degenerate pair excluded
    assert rep.bounded
    assert rep.c1 <= rep.c2


def test_gspace_saturates_in_t():
    pairs = [(0.0, 2.0 ** -m) for m in range(1, 8)]
    r1 = gspace_ratio(1.0, pairs).ratios
    r2 = gspace_ratio(2.0, pairs).ratios
    assert np.max(np.abs(r2 - r1) / r1) < 0.01


def test_gspace_all_degenerate_raises():
    with pytest.raises(ValueError):
        gspace_ratio(1.0, [(0.3, 0.3)])


# ---------------------------------------------------------------------------
# clearing bound


def test_clearing_abstract_calculus():
    alpha, value = maximize_clearing_exponent(1.0, 1.0, 2)
    assert abs(alpha - 1.0) < 1e-12
    assert abs(value + 2.0) < 1e-12


def test_clearing_probability_example():
    # nu=1, d=2, alpha*+a = 1: probability e^{-pi}
    cb = clearing_bound(2, 1.0, 0.3, 1.0, 1.0, -1.0)
    prob_at_unit = math.exp(-1.0 * unit_ball_volume(2) * 1.0 ** 2)
    assert abs(prob_at_unit - math.exp(-math.pi)) < 1e-12
    assert abs(math.exp(-math.pi) - 0.043214) < 5e-7
    assert cb.alpha_star > 0 and cb.exponent_value < 0


def test_clearing_alpha_scaling_in_T():
    d = 3
    c1 = clearing_bound(d, 1.0, 0.2, 1.0, 1.0, -0.5)
    c2 = clearing_bound(d, 1.0, 0.2, 1.0, 2.0, -0.5)
    assert abs(c2.alpha_star / c1.alpha_star - 2.0 ** (1.0 / (d + 2))) < 1e-12


def test_clearing_matches_numeric_maximization():
    for (d, nu, a, J, T, logC0) in [
        (2, 1.0, 0.3, 1.0, 1.0, -1.0),
        (3, 0.5, 0.2, 2.0, 4.0, -0.25),
        (1, 2.0, 0.1, 1.0, 10.0, -3.0),
    ]:
        cb = clearing_bound(d, nu, a, J, T, logC0)
        A = nu * J ** (d / 2.0) * unit_ball_volume(d) * 2.0 ** d
        B = T * (-logC0) / J ** 2
        assert (cb.A, cb.B) == (A, B)
        res = minimize_scalar(
            lambda al: -clearing_exponent(al, A, B, d),
            bounds=(cb.alpha_star / 10, cb.alpha_star * 10),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(-res.fun - cb.exponent_value) / abs(cb.exponent_value) < 1e-8


def test_clearing_validation():
    with pytest.raises(ValueError):
        clearing_bound(2, 1.0, 0.3, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        clearing_bound(2, 1.0, 0.3, 1.0, 0.0, -1.0)
    # no traps (A = 0), a subnormal intensity (alpha* overflows) and a circle
    # so long that B underflows (alpha* = 0): no finite optimum to report
    for d, nu, J in ((2, 0.0, 1.0), (2, 1e-320, 1.0), (1, 1e-320, 1.0), (2, 1.0, 1e150)):
        with pytest.raises(ValueError, match="no finite clearing bound"):
            clearing_bound(d, nu, 0.3, J, 1.0, -1.0)


# ---------------------------------------------------------------------------
# exponent fit


def test_exponent_fit_exact_power_law():
    Ts = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = exponent_fit(Ts, 7.0 * Ts ** 0.5)
    assert abs(fit.gamma_hat - 0.5) < 1e-9
    lo, hi = fit.ci95()
    assert lo <= 0.5 <= hi


def test_exponent_fit_linear():
    Ts = np.array([1.0, 3.0, 5.0, 20.0])
    fit = exponent_fit(Ts, 2.5 * Ts)
    assert abs(fit.gamma_hat - 1.0) < 1e-9


def test_exponent_fit_weights_respected():
    Ts = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    y = 3.0 * Ts ** 0.5
    y_noisy = y.copy()
    y_noisy[-1] *= 1.5  # corrupt the last point but give it huge stderr
    se = np.full(5, 1e-6)
    se[-1] = 1e6
    fit = exponent_fit(Ts, y_noisy, se)
    assert abs(fit.gamma_hat - 0.5) < 1e-3


def test_exponent_fit_validation():
    with pytest.raises(ValueError):
        exponent_fit([1.0, 2.0, 4.0], [1.0, 2.0, 3.0])  # too few
    with pytest.raises(ValueError):
        exponent_fit([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])  # < 1 decade
    with pytest.raises(ValueError):
        exponent_fit([1.0, 2.0, 4.0, 16.0], [1.0, -2.0, 3.0, 4.0])  # nonpositive
    Ts = [1.0, 2.0, 4.0, 16.0]
    # each bad input is refused by its own message, none becomes a NaN fit
    for bad, match in [
        (dict(Ts=[0.0, 2.0, 4.0, 16.0]), "horizons T must be finite and > 0"),
        (dict(Ts=[-1.0, 2.0, 4.0, 16.0]), "horizons T must be finite and > 0"),
        (dict(Ts=[1.0, 2.0, 4.0, math.inf]), "horizons T must be finite and > 0"),
        (dict(neg_log_S=[1.0, math.nan, 3.0, 4.0]), "-log S values must be finite"),
        (dict(neg_log_S=[1.0, 2.0, math.inf, 4.0]), "-log S values must be finite"),
        (dict(stderr=[0.1, -0.1, 0.1, 0.1]), "stderr values must be finite and >= 0"),
        (dict(stderr=[0.1, math.nan, 0.1, 0.1]), "stderr values must be finite and >= 0"),
        # a column of another length is refused by name, not broadcast
        (dict(neg_log_S=[2.0]), "neg_log_S needs one value per horizon (4), got shape (1,)"),
        (dict(neg_log_S=[1.0, 2.0, 3.0]), "neg_log_S needs one value per horizon (4), got shape (3,)"),
        (dict(stderr=[0.1]), "stderr needs one value per horizon (4), got shape (1,)"),
        (dict(stderr=0.1), "stderr needs one value per horizon (4), got shape ()"),
        (dict(stderr=[0.1] * 5), "stderr needs one value per horizon (4), got shape (5,)"),
        (dict(Ts=5.0), "Ts needs at least 4 horizon values, got shape ()"),
    ]:
        args = dict(Ts=Ts, neg_log_S=[1.0, 2.0, 3.0, 4.0], stderr=[0.1, 0.1, 0.1, 0.1]) | bad
        with pytest.raises(ValueError, match=re.escape(match)):
            exponent_fit(**args)


# ---------------------------------------------------------------------------
# stopping chain


def chain_setup():
    p = ModelParams(d=2, K=8, M=32, dt=0.05, T=1.0, a=0.3, eps_tail=5e-3)
    L = chain_L(p.a, choose_E(p.d, p.a))
    Lam = calibrate_lambda(p, L, n_rep=100, seed=11)
    # 12 L, rounded up to the step grid
    return p, L, Lam, dataclasses.replace(p, T=math.ceil(12.0 * L / p.dt) * p.dt)


def test_stopping_chain_first_interval_time():
    """With zero initial data, S_1 is the first admissible grid time."""
    p, L, Lam, pc = chain_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        trace = simulate(pc, 13, replica=0)
        chain = stopping_chain(trace, Lam, seed=20, n_mc=2000)
    if chain.n_intervals:
        first_grid = math.ceil(round(L / p.dt, 9)) * p.dt
        assert abs(chain.S[0] - first_grid) < 1e-9


def test_stopping_chain_invariants_over_runs():
    p, L, Lam, pc = chain_setup()
    total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for r in range(5):
            trace = simulate(pc, 13, replica=r)
            chain = stopping_chain(trace, Lam, seed=21 + r, n_mc=2000)
            # the construction gives these ordering facts by itself (it raises
            # ChainInvariantError only for the two lemma checks); check them here:
            # increasing taus, S_i at least L after T_{i-1}, and T_i the first tau >= S_i
            assert np.all(np.diff(chain.tau) > 0)
            prev = 0.0
            for i in range(chain.n_intervals):
                assert chain.S[i] >= prev + chain.L - 1e-9
                assert chain.T_seq[i] >= chain.S[i] - 1e-12
                assert not np.any((chain.tau >= chain.S[i]) & (chain.tau < chain.T_seq[i]))
                prev = chain.T_seq[i]
            total += chain.n_intervals
    assert total >= 1  # at least one completed interval across the runs


def test_stopping_chain_range_closeness():
    p, L, Lam, pc = chain_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        trace = simulate(pc, 29, replica=0)
        chain = stopping_chain(trace, Lam, seed=30, n_mc=2000)
    for i in range(chain.n_intervals):
        assert abs(chain.range_string[i] - chain.range_noise[i]) <= 2 * chain.delta + 1e-9
        assert chain.vol_string[i] > 0
        assert chain.vol_noise[i] > 0
