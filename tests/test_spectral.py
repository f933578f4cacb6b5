import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import polygamma

from series_oracle import evaluate_at, grid, grid_values_by_complex_spectrum
from string_sausage.rng import AUX, substream
from string_sausage.spectral import (
    ModelParams,
    evolve,
    grid_values,
    heat_convolve,
    mode_rates,
    noise_segment,
    sample_stationary_field,
    variance_series,
)


def small_params(**kw):
    defaults = dict(d=2, K=8, M=32, dt=0.05, T=1.0, eps_tail=5e-3)
    defaults.update(kw)
    return ModelParams(**defaults)


def zero_string(p):
    """The zero string: coefficients (d, 2K+1), all 0."""
    return np.zeros((p.d, 2 * p.K + 1))


def evolved(p, c, delta, rng):
    """The string one `evolve` step of `delta` after the string `c`, as a block of one."""
    return evolve(p, c[None], delta, [rng])[0, -1]


def test_mode_rates():
    rates = mode_rates(3)
    np.testing.assert_allclose(rates, 2.0 * math.pi ** 2 * np.array([1.0, 4.0, 9.0]))


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(d=0)
    with pytest.raises(ValueError):
        ModelParams(d=1, M=10, K=8)  # M < 2K+1
    with pytest.raises(ValueError):
        ModelParams(d=1, K=4, eps_tail=1e-4)  # tail too large for K


def test_tail_variance_decreases_with_K():
    t8 = ModelParams(d=1, K=8, M=32, eps_tail=1e-2).tail_variance()
    t64 = ModelParams(d=1, K=64, M=256).tail_variance()
    assert t64 < t8
    # closed-ish bound: sum_{k>K} 1/k^2 ~ 1/K
    assert abs(t64 - 1.0 / (4.0 * math.pi ** 2 * 64)) < 1e-4


@pytest.mark.parametrize("K", [1, 2, 5, 16, 64, 256, 16383])
def test_tail_variance_is_the_trigamma_tail(K):
    # sum_{k>K} 1/k^2 = psi'(K+1), against scipy's polygamma
    p = ModelParams(d=1, K=K, M=2 * K + 1, eps_tail=1.0)
    assert p.tail_variance() == pytest.approx(float(polygamma(1, K + 1)) / (4 * math.pi ** 2), rel=1e-13, abs=0)


def test_evaluate_matches_pointwise_formula():
    p = small_params(d=1)
    rng = substream(0, AUX, 0)
    c = evolved(p, zero_string(p), 0.3, rng)
    np.testing.assert_allclose(grid_values(p, c), evaluate_at(p, c, grid(p)), atol=1e-12)


def test_evaluate_general_J():
    p = small_params(d=1, J=2.0)
    rng = substream(0, AUX, 1)
    c = evolved(p, zero_string(p), 0.3, rng)
    np.testing.assert_allclose(grid_values(p, c), evaluate_at(p, c, grid(p)), atol=1e-12)


@pytest.mark.parametrize("J", [1.0, 2.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_spectrum_fill_is_bit_equal_to_the_complex_construction(J, d):
    # grid_values fills the real and imaginary parts of its spectrum in place.
    # numpy divides a complex array by a real number through the reciprocal,
    # so the fill multiplies the sine and cosine modes by r = 1/sqrt(2J) (and
    # only then scales both parts by M), while mode 0 is a real division by
    # sqrt(J); dividing the modes by sqrt(2J) instead changes 8-28% of these
    # values.  A string, a path whose row 0 is the zero string, and a block
    # of paths, each against the complex-temporary construction.
    p = small_params(d=d, J=J, T=0.25)
    paths = evolve(p, np.zeros((3, d, 2 * p.K + 1)), p.dt, [substream(17, AUX, b) for b in range(3)], p.n_steps)
    for coeffs in (paths[0, -1], paths[1], paths):
        values = grid_values(p, coeffs)
        expected = grid_values_by_complex_spectrum(p, coeffs)
        assert values.shape == expected.shape == coeffs.shape[:-2] + (p.M, d)
        assert np.array_equal(values, expected)
        assert np.array_equal(np.signbit(values), np.signbit(expected))  # zeros too


def test_ou_transition_moments():
    """One-step empirical mean/variance of each mode against the closed form."""
    p = ModelParams(d=400, K=4, M=16, dt=0.05, eps_tail=5e-2)
    start = np.ones((p.d, 2 * p.K + 1))  # deterministic start for every mode
    ends = []
    for r in range(50):
        ends.append(evolved(p, start, p.dt, substream(11, AUX, r)))
    ends = np.concatenate(ends, axis=0)  # (400*50, 2K+1) transitions per column
    lam = mode_rates(p.K)
    decay = np.exp(-lam * p.dt)
    var = (1.0 - decay ** 2) / (2.0 * lam)
    n = ends.shape[0]
    for k in range(p.K):
        col = ends[:, 1 + k]
        se_mean = math.sqrt(var[k] / n)
        assert abs(col.mean() - decay[k]) < 4 * se_mean
        se_var = var[k] * math.sqrt(2.0 / (n - 1))
        assert abs(col.var() - var[k]) < 4 * se_var
    # mode 0 is Brownian: increment variance dt
    col0 = ends[:, 0] - 1.0
    assert abs(col0.var() - p.dt) < 4 * p.dt * math.sqrt(2.0 / (n - 1))


def test_multi_step_evolve_equals_single_steps():
    p = small_params(d=3)
    start = evolved(p, zero_string(p), 0.2, substream(9, AUX, 0))
    path = evolve(p, start[None], 0.05, [substream(9, AUX, 1)], steps=7)[0]
    assert path.shape == (8, p.d, 2 * p.K + 1)
    np.testing.assert_array_equal(path[0], start)
    rng = substream(9, AUX, 1)
    c = start
    for i in range(1, 8):
        c = evolved(p, c, 0.05, rng)
        np.testing.assert_array_equal(path[i], c)
    np.testing.assert_array_equal(evolve(p, start[None], 0.05, [rng], steps=0), start[None, None])
    with pytest.raises(ValueError):
        evolve(p, start[None], 0.05, [rng], steps=-1)
    # one generator per string: zip(..., strict=True) refuses too few and too many
    with pytest.raises(ValueError, match="shorter|longer"):
        evolve(p, np.stack([start, start]), 0.05, [rng])
    with pytest.raises(ValueError, match="shorter|longer"):
        evolve(p, start[None], 0.05, [rng, rng])


@pytest.mark.parametrize(
    "start, cause",
    [
        (np.zeros((2, 17)), "shape"),
        (np.zeros((3, 18)), "shape"),
        (np.zeros(3 * 17), "shape"),
        (np.pad([[np.inf]], ((1, 1), (5, 11))), "finite"),
        (np.full((3, 17), np.nan), "finite"),
    ],
    ids=["too_few_coordinates", "too_many_modes", "flat", "one_infinite", "nan"],
)
def test_evolve_rejects_malformed_start(start, cause):
    p = small_params(d=3)  # start must be (3, 17)
    with pytest.raises(ValueError, match=cause):
        evolve(p, start[None], 0.05, [substream(9, AUX, 2)])


def test_heat_semigroup_property():
    p = small_params(d=1)
    c = evolved(p, zero_string(p), 0.5, substream(4, AUX, 0))
    once = heat_convolve(p, c, 0.7)
    twice = heat_convolve(p, heat_convolve(p, c, 0.3), 0.4)
    np.testing.assert_allclose(once, twice, atol=1e-14)


def test_heat_convolve_preserves_mean_and_contracts_range():
    p = small_params(d=1)
    c = evolved(p, zero_string(p), 0.4, substream(6, AUX, 0))
    g = heat_convolve(p, c, 0.5)
    assert abs(grid_values(p, c).mean() - grid_values(p, g).mean()) < 1e-12
    # the heat kernel averages, so the continuum range contracts; compare on
    # a fine grid since coarse-grid extrema undershoot the continuum ones
    x = np.linspace(0.0, 1.0, 1024, endpoint=False)
    f_fine = evaluate_at(p, c, x)
    g_fine = evaluate_at(p, g, x)
    assert np.ptp(g_fine) <= np.ptp(f_fine) + 1e-12


def test_noise_segment_definition():
    p = small_params(d=2)
    rng = substream(7, AUX, 0)
    s1 = evolved(p, zero_string(p), 0.3, rng)
    s2 = evolved(p, s1, 0.4, rng)
    seg = noise_segment(p, s1, s2, 0.4)
    expected = grid_values(p, s2) - grid_values(p, heat_convolve(p, s1, 0.4))
    np.testing.assert_allclose(grid_values(p, seg), expected, atol=1e-12)
    with pytest.raises(ValueError):
        noise_segment(p, s1, s2, 0.0)


def test_noise_segment_with_zero_initial_state_is_whole_field():
    p = small_params(d=1)
    rng = substream(8, AUX, 0)
    s0 = zero_string(p)
    s1 = evolved(p, s0, 0.6, rng)
    seg = grid_values(p, noise_segment(p, s0, s1, 0.6))
    np.testing.assert_allclose(seg, grid_values(p, s1), atol=1e-12)


def test_variance_series_u_against_quadrature():
    """Independent oracle: per-mode OU variance integral via scipy.quad."""
    lam = mode_rates(50)
    total = 1.0  # mode-0 Brownian contribution at t=1
    for lk in lam:
        # 2 * Var b_k(t) with Var b_k(t) = int_0^t e^{-2 lam (t-s)} ds;
        # the integrand is a spike of width ~1/lam, so hint its location
        val, _ = quad(
            lambda s, lk=lk: 2.0 * math.exp(-2.0 * lk * s),
            0.0,
            1.0,
            points=[1.0 / (2.0 * lk), 10.0 / lk],
            limit=200,
        )
        total += val
    series = variance_series("u", 1.0, K=50)
    assert abs(series - total) < 1e-10


def test_variance_series_oracles():
    # frozen values computed independently from the closed forms
    assert abs(variance_series("u", 1.0) - 1.0833209665344636) < 1e-12
    n2 = variance_series("N2", 1.0, 0.0, 0.5)
    assert abs(n2 - 2.0 * math.exp(-4.0 * math.pi ** 2) / math.pi ** 2) < 1e-30
    # N1diff converges to D(1-D) on the unit circle
    for D in (0.5, 0.25, 0.125):
        assert abs(variance_series("N1diff", 0.0, 0.0, D, K=200_000) - D * (1 - D)) < 1e-5


def test_variance_series_validation():
    with pytest.raises(ValueError):
        variance_series("u", -1.0)
    with pytest.raises(ValueError):
        variance_series("bogus", 1.0)


def test_stationary_field_anchored_and_variance():
    p = ModelParams(d=1, K=64, M=192)
    diffs = []
    for r in range(400):
        f = grid_values(p, sample_stationary_field(p, substream(13, AUX, r)))
        assert abs(f[0, 0]) < 1e-12  # anchored at x = 0
        diffs.append(f[p.M // 2, 0])  # difference at x = 1/2 vs anchor
    v = np.var(diffs)
    target = variance_series("N1diff", 0.0, 0.0, 0.5, K=64)
    se = target * math.sqrt(2.0 / len(diffs))
    assert abs(v - target) < 4 * se
