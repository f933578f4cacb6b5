"""Acceptance gate: one test per criterion, one printed verdict line each.

Tolerances are pinned here and must not be loosened to make a criterion
pass.  Derived reference values are frozen from independent closed-form
computations and noted inline.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import minimize_scalar

import string_sausage as ss
from string_sausage.asymptotics import (
    clearing_bound,
    clearing_exponent,
    exponent_fit,
    gspace_ratio,
    range_smoothing_check,
    unit_ball_volume,
)
from string_sausage.cli import run_config
from string_sausage.rng import AUX, MC, substream
from string_sausage.spectral import evolve, grid_values, mode_rates
from string_sausage.statistics import independence_test, range_of

# Frozen oracle values (computed independently of the library):
#   VAR_U1      = 1 + sum_k (1 - e^{-4 pi^2 k^2}) / (2 pi^2 k^2)   [series]
#   N2_HALF     = 2 e^{-4 pi^2} / pi^2                              [two-term series]
#   SPITZER_3D  = 2 pi r T + 4 r^2 sqrt(2 pi T) + 4 pi r^3 / 3  at r=1/2, T=1
VAR_U1 = 1.0833209665344636
N2_HALF = 1.450345027891105e-18
SPITZER_3D = 2.0 * math.pi * 0.5 + 4.0 * 0.25 * math.sqrt(2.0 * math.pi) + 4.0 * math.pi * 0.125 / 3.0


def verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_spectral_exactness():
    """K=8, step 0.05, 2e4 transitions per mode: moments match the OU closed
    forms within 4 standard errors, in under 10 s."""
    t_start = time.monotonic()
    p = ss.ModelParams(d=400, K=8, M=17, dt=0.05, eps_tail=5e-2)
    coeffs = np.ones((p.d, 2 * p.K + 1))
    ends = np.concatenate(
        [evolve(p, coeffs, p.dt, substream(1001, AUX, r))[-1] for r in range(50)], axis=0
    )  # 20000 transitions per column
    n = ends.shape[0]
    lam = mode_rates(p.K)
    decay = np.exp(-lam * p.dt)
    var = (1.0 - decay ** 2) / (2.0 * lam)
    worst = 0.0
    ok = True
    for k in range(p.K):
        for col in (ends[:, 1 + k], ends[:, 1 + p.K + k]):  # cosine and sine modes
            z_mean = abs(col.mean() - decay[k]) / math.sqrt(var[k] / n)
            z_var = abs(col.var() - var[k]) / (var[k] * math.sqrt(2.0 / (n - 1)))
            worst = max(worst, z_mean, z_var)
            ok = ok and z_mean < 4.0 and z_var < 4.0
    z0 = abs((ends[:, 0] - 1.0).var() - p.dt) / (p.dt * math.sqrt(2.0 / (n - 1)))
    ok = ok and z0 < 4.0
    elapsed = time.monotonic() - t_start
    ok = ok and elapsed < 10.0
    verdict(1, "spectral-exactness", ok, f"worst z={max(worst, z0):.2f} (<4), runtime {elapsed:.1f}s (<10)")


def test_criterion_02_center_of_mass_is_brownian():
    """1e4 center-of-mass increments at step 0.1: variance within 4 stderr of
    0.1 per coordinate and KS normality at the 1% level."""
    p = ss.ModelParams(d=2, K=1, M=3, dt=0.1, T=0.1, eps_tail=5e-2)
    inc = np.empty((10_000, 2))
    for r in range(10_000):
        tr = ss.simulate(p, 1002, replica=r)
        inc[r] = tr.coeffs[-1][:, 0] - tr.coeffs[0][:, 0]
    tol = 4.0 * 0.1 * math.sqrt(2.0 / (inc.shape[0] - 1))
    ok = True
    details = []
    for j in range(2):
        v = float(inc[:, j].var())
        p_ks = float(stats.kstest(inc[:, j], "norm", args=(0.0, math.sqrt(0.1))).pvalue)
        ok = ok and abs(v - 0.1) < tol and p_ks >= 0.01
        details.append(f"var[{j}]={v:.4f} ks_p[{j}]={p_ks:.2f}")
    verdict(2, "center-of-mass-brownian", ok, "; ".join(details) + f"; var tol ±{tol:.4f}")


def test_criterion_03_independence():
    """T=1, d=2, 5000 replicas: |corr(X_T^(j), R_T)| <= 0.0566 for each j."""
    p = ss.ModelParams(d=2, K=16, M=64, dt=1.0, T=1.0, eps_tail=2e-3)
    reps = []
    for r in range(5000):
        rec = ss.simulate(p, 1003, replica=r).path_record()
        reps.append((rec.X[-1], rec.R[-1]))
    rep = independence_test(reps)
    ok = rep.passed and abs(rep.threshold - 0.0566) < 1e-3
    verdict(
        3,
        "com-radius-independence",
        ok,
        f"corr={np.round(rep.correlations, 4).tolist()}, threshold {rep.threshold:.4f}",
    )


def test_criterion_04_variance_oracle():
    """1e4 replicas of u(1, 0) from zero data: variance within 4 stderr of
    the frozen series value 1.083321."""
    p = ss.ModelParams(d=1, K=64, M=192, dt=1.0, T=1.0)
    vals = np.empty(10_000)
    for r in range(10_000):
        tr = ss.simulate(p, 1004, replica=r)
        vals[r] = tr.values[-1, 0, 0]
    v = float(vals.var())
    se = VAR_U1 * math.sqrt(2.0 / (vals.shape[0] - 1))
    ok = abs(v - VAR_U1) < 4.0 * se
    verdict(4, "variance-oracle", ok, f"MC var {v:.4f} vs {VAR_U1:.6f} ± {4 * se:.4f}")


def test_criterion_05_sausage_identity():
    """d=2, J=1, nu=1, a=0.3, T=1, n=2000 per method: direct-contact and
    volume-identity estimators have overlapping 95% CIs."""
    p = ss.ModelParams(d=2, K=16, M=64, dt=0.05, T=1.0, nu=1.0, a=0.3, eps_tail=2e-3)
    direct = ss.annealed_hard(p, 2000, 101, method="hard_direct", workers=1)
    volume = ss.annealed_hard(p, 2000, 101, method="hard_via_volume", n_mc=2000, workers=1)
    lo1, hi1 = direct.ci95()
    lo2, hi2 = volume.ci95()
    ok = max(lo1, lo2) <= min(hi1, hi2)
    verdict(
        5,
        "sausage-identity",
        ok,
        f"direct {direct.p_hat:.4f} CI [{lo1:.4f},{hi1:.4f}]; "
        f"volume {volume.p_hat:.4f} CI [{lo2:.4f},{hi2:.4f}]",
    )


def test_criterion_06_scaling_identity():
    """J=2 hard-obstacle configuration vs its unit-J image at n=2000 per
    side: overlapping 95% CIs."""
    p = ss.ModelParams(d=2, J=2.0, K=16, M=64, dt=0.05, T=0.5, nu=0.25, a=0.2, eps_tail=2e-3)
    rep = ss.scaling_check(p, 2000, 202, workers=1)
    lo1, hi1 = rep.original.ci95()
    lo2, hi2 = rep.scaled.ci95()
    verdict(
        6,
        "scaling-identity",
        rep.overlap,
        f"J=2: {rep.original.p_hat:.4f} [{lo1:.4f},{hi1:.4f}]; "
        f"unit: {rep.scaled.p_hat:.4f} [{lo2:.4f},{hi2:.4f}]",
    )


def test_criterion_07_geometry_oracles():
    """Single-point voxel area within 1% of pi a^2; 3-d Wiener sausage within
    5% of the frozen closed-form 6.1718; estimator cross-agreement."""
    disk = ss.sausage_volume_voxel(ss.PointCloud(np.zeros((1, 2))), 0.5, 0.01)
    rel_disk = abs(disk.volume - math.pi * 0.25) / (math.pi * 0.25)

    vols = []
    for r in range(300):
        path = ss.brownian_path(3, 1.0, 0.000125, seed=2024, replica=r)
        vols.append(ss.wiener_sausage_volume(path, 0.5, 2000, substream(2024, MC, r)).volume)
    wiener = float(np.mean(vols))
    rel_wiener = abs(wiener - SPITZER_3D) / SPITZER_3D

    cloud = ss.PointCloud(substream(1008, AUX, 0).uniform(-1, 1, size=(100, 2)))
    mc = ss.sausage_volume_hit_or_miss(cloud, 0.3, 200_000, substream(1008, MC, 0))
    vx = ss.sausage_volume_voxel(cloud, 0.3, 0.02)
    gap = abs(mc.volume - vx.volume)
    tol = 4 * mc.stderr + 0.15  # MC band + voxel surface-layer error
    ok = rel_disk < 0.01 and rel_wiener < 0.05 and gap < tol
    verdict(
        7,
        "geometry-oracles",
        ok,
        f"disk rel {rel_disk:.4f} (<0.01); wiener {wiener:.3f} rel {rel_wiener:.3f} (<0.05); "
        f"cross gap {gap:.3f} (<{tol:.3f})",
    )


def test_criterion_08_deterministic_inequalities():
    """Range smoothing on 100 random inputs at t in {1,2}; range triangle on
    100 pairs; clearing closed form vs numeric maximization at 1e-8."""
    p = ss.ModelParams(d=2, K=64, M=192)
    smooth_fail = 0
    for r in range(50):
        f = ss.sample_stationary_field(p, substream(1009, AUX, r))
        for t in (1.0, 2.0):
            if not range_smoothing_check(p, f, t).holds:
                smooth_fail += 1

    rng = substream(1010, AUX, 0)
    tri_fail = 0
    for _ in range(100):
        f = rng.standard_normal((64, 2))
        g = rng.standard_normal((64, 2))
        if range_of(f + g) > range_of(f) + range_of(g) + 1e-12:
            tri_fail += 1

    worst_rel = 0.0
    for (d, nu, a, J, T, logC0) in [
        (2, 1.0, 0.3, 1.0, 1.0, -1.0),
        (3, 0.5, 0.2, 2.0, 4.0, -0.25),
        (1, 2.0, 0.1, 1.0, 10.0, -3.0),
    ]:
        cb = clearing_bound(d, nu, a, J, T, logC0)
        A = nu * J ** (d / 2.0) * unit_ball_volume(d) * 2.0 ** d
        B = T * (-logC0) / J ** 2
        res = minimize_scalar(
            lambda al: -clearing_exponent(al, A, B, d),
            bounds=(cb.alpha_star / 10, cb.alpha_star * 10),
            method="bounded",
            options={"xatol": 1e-12},
        )
        worst_rel = max(worst_rel, abs(-res.fun - cb.exponent_value) / abs(cb.exponent_value))

    ok = smooth_fail == 0 and tri_fail == 0 and worst_rel < 1e-8
    verdict(
        8,
        "deterministic-inequalities",
        ok,
        f"smoothing failures {smooth_fail}/100, triangle failures {tri_fail}/100, "
        f"clearing rel err {worst_rel:.2e} (<1e-8)",
    )


def test_criterion_09_series_diagnostics():
    """Heat-difference energy ratio spread <= 25 over dyadic distances at
    t=1; pre-start noise variance at (t=1, dx=1/2) equals the frozen
    two-term value within 1e-20."""
    rep = gspace_ratio(1.0, [(0.0, 2.0 ** -m) for m in range(1, 8)])
    n2 = ss.variance_series("N2", 1.0, 0.0, 0.5)
    err = abs(n2 - N2_HALF)
    ok = rep.spread <= 25.0 and err < 1e-20
    verdict(
        9,
        "series-diagnostics",
        ok,
        f"ratio spread {rep.spread:.2f} (<=25), N2 error {err:.1e} (<1e-20)",
    )


def test_criterion_10_box_counting():
    """Straight segment slope 1 ± 0.1; in d=3, on the window 0.5 .. 0.5/16.5,
    the images of the stationary field and of a Brownian-bridge oracle both
    slope >= 1.7 (their dimension is 2).

    A K-mode field is smooth at lags below J/(2K), so its image is resolved
    only at box sizes above r_K = sqrt(d J / (2K)).  The field is sampled at
    the full band of its grid, K = M/2 - 1 with M = 32768, where r_K = 0.0096
    is a third of the smallest box.  (At K = 256, r_K = 0.077 lies inside the
    window and the fitted slope bends down to about 1.57.)

    The oracle is cumulative Gaussian steps pinned at both ends, built
    without spectral code: the same law as the field, Var = x(1-x) per
    coordinate, at the same resolution sqrt(d/M).  It checks the estimator
    on a known answer.  Over seeds 3000-3299 on this window, the slope
    medians were 1.84 (field) and 1.85 (bridge), and 2 and 3 of the 300
    seeds fell below 1.7: even the true bridge misses the gate about 1% of
    the time, so the fixed seed is an ordinary draw, not a pick.
    """
    seg = np.zeros((4096, 2))
    seg[:, 0] = np.linspace(0.0, 1.0, 4096)
    seg_res = ss.box_counting_dimension(seg, np.array([2.0 ** -e for e in range(3, 8)]))
    seg_ok = abs(seg_res.slope - 1.0) < 0.1

    scales = np.geomspace(0.5, 0.5 / 16.5, 5)
    p = ss.ModelParams(d=3, K=32768 // 2 - 1, M=32768, eps_tail=1e-2)
    f = ss.sample_stationary_field(p, substream(1011, AUX, 0))
    field_res = ss.box_counting_dimension(grid_values(p, f), scales)
    field_ok = field_res.slope >= 1.7

    steps = substream(1011, AUX, 1).standard_normal((p.M, p.d)) / math.sqrt(p.M)
    walk = np.vstack([np.zeros((1, p.d)), np.cumsum(steps, axis=0)])
    bridge = walk - (np.arange(p.M + 1) / p.M)[:, None] * walk[-1]
    bridge_res = ss.box_counting_dimension(bridge[:-1], scales)
    bridge_ok = bridge_res.slope >= 1.7

    verdict(
        10,
        "box-counting",
        seg_ok and field_ok and bridge_ok,
        f"segment slope {seg_res.slope:.3f} (1±0.1); field slope {field_res.slope:.3f} at "
        f"K={p.K} (>=1.7); Brownian-bridge oracle slope {bridge_res.slope:.3f} (>=1.7)",
    )


def test_criterion_11_exponent_pipeline():
    """Exact recovery of a synthetic T^0.5 law within 1e-9, plus an
    exploratory fitted exponent for the simulated d=2 sweep (reported, not
    asserted: the asymptotic regime is out of reach)."""
    Ts = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    exact = exponent_fit(Ts, 7.0 * Ts ** 0.5)
    ok = abs(exact.gamma_hat - 0.5) < 1e-9

    ys, ses = [], []
    for i, T in enumerate(Ts):
        p = ss.ModelParams(d=2, K=16, M=64, dt=0.05, T=float(T), nu=1.0, a=0.3, eps_tail=2e-3)
        est = ss.annealed_hard(p, 100, 1012 + i, method="hard_via_volume", n_mc=1500, workers=1)
        ys.append(-math.log(est.p_hat))
        ses.append(est.stderr / est.p_hat)
    sweep = exponent_fit(Ts, ys, ses)
    lo, hi = sweep.ci95()
    verdict(
        11,
        "exponent-pipeline",
        ok,
        f"synthetic gamma {exact.gamma_hat:.12f} (=0.5±1e-9); exploratory sweep "
        f"gamma {sweep.gamma_hat:.3f} CI [{lo:.3f},{hi:.3f}] (d/(d+2)=0.5; report only)",
    )


def test_criterion_12_reproducibility():
    """Identical config and seed give byte-identical CSV fields across runs
    and across parallelism degrees."""
    base = {
        "experiment": "survival", "seed": 41, "n_replicas": 100,
        "T": [0.5, 1.0], "nu": 0.5, "threads": 1,
    }
    rows_a, _ = run_config(dict(base))
    rows_b, _ = run_config(dict(base))
    rows_c, _ = run_config(dict(base, threads=3))

    def render(rows):
        return [tuple(repr(r[k]) for k in r) for r in rows]

    ok = render(rows_a) == render(rows_b) == render(rows_c)
    verdict(
        12,
        "reproducibility",
        ok,
        f"{len(rows_a)} rows identical across two runs and across 1 vs 3 workers",
    )
