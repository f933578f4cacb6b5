"""Survival among Poisson traps: two estimators, one identity, one scaling law.

Hard obstacles kill the string on contact with any trap ball.  Averaging the
contact indicator over (noise, trap) pairs and averaging exp(-nu * sausage
volume) over noise alone estimate the same annealed survival probability.
The diffusive scaling (T, nu, a) -> (T J^-2, nu J^{d/2}, a J^{-1/2}) maps a
circle of length J onto the unit circle without changing survival.
"""

import math

import string_sausage as ss

params = ss.ModelParams(d=2, K=16, M=64, dt=0.05, T=0.5, nu=0.5, a=0.2, eps_tail=2e-3)

direct = ss.annealed_hard(params, 400, seed=21, method="hard_direct")
volume = ss.annealed_hard(params, 400, seed=21, method="hard_via_volume")
print(f"hard_direct:     p = {direct.p_hat:.4f} +- {direct.stderr:.4f}")
print(f"hard_via_volume: p = {volume.p_hat:.4f} +- {volume.stderr:.4f}")
print("CIs overlap:", max(direct.ci95()[0], volume.ci95()[0]) <= min(direct.ci95()[1], volume.ci95()[1]))

# soft obstacles: occupation-weighted survival, between free and hard
soft = ss.annealed_soft(params, 0.5, 400, seed=22)
print(f"soft (height 0.5): p = {soft.p_hat:.4f} +- {soft.stderr:.4f}")

# scaling identity: J = 2 configuration vs its unit-circle image
p2 = ss.ModelParams(d=2, J=2.0, K=16, M=64, dt=0.05, T=0.5, nu=0.25, a=0.2, eps_tail=2e-3)
report = ss.scaling_check(p2, 800, seed=23)
print("\nscaling check (J=2 vs unit-J image):")
print(f"  J=2   p = {report.original.p_hat:.4f} +- {report.original.stderr:.4f}")
print(f"  unit  p = {report.scaled.p_hat:.4f} +- {report.scaled.stderr:.4f}")
print("  overlap:", report.overlap)

# growth of -log S_T with the horizon: gamma should head toward d/(d+2)
# (each replica's path is evolved to T = 16 once, and every horizon weighs its prefix)
Ts = [1.0, 2.0, 4.0, 8.0, 16.0]
p = ss.ModelParams(d=2, K=16, M=64, dt=0.05, T=Ts[-1], nu=1.0, a=0.3, eps_tail=2e-3)
ests = ss.annealed_hard(p, 100, seed=24, method="hard_via_volume", horizons=Ts)
fit = ss.exponent_fit(Ts, [-math.log(e.p_hat) for e in ests], [e.stderr / e.p_hat for e in ests])
lo, hi = fit.ci95()
print(f"\nfitted exponent gamma = {fit.gamma_hat:.3f}  CI [{lo:.3f}, {hi:.3f}]  (d/(d+2) = 0.5)")
