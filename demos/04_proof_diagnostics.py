"""Numerically exercise the quantitative ingredients of the survival bounds.

Each section checks one mechanism: heat smoothing collapses the range of any
initial profile, the heat-difference energy stays proportional to torus
distance, the S_i / T_i stopping chain decomposes a long run into flat
intervals whose noise and string sausages are comparable, and the optimal
trap-clearing radius has a closed form.
"""

import dataclasses
import warnings

import numpy as np

import string_sausage as ss
from string_sausage.rng import AUX, substream

# 1. range smoothing: range(G_t f) <= 4 d e^{-2 pi^2 t} ||f - mean||_2
params = ss.ModelParams(d=2, K=32, M=128, eps_tail=2e-3)
worst = 0.0
for r in range(50):
    f = ss.sample_stationary_field(params, substream(31, AUX, r))
    rep = ss.range_smoothing_check(params, f, t=1.0)
    worst = max(worst, rep.lhs / rep.rhs)
    assert rep.holds
print(f"range smoothing: bound holds on 50 stationary fields (worst lhs/rhs = {worst:.3f})")

# 2. heat-difference energy vs torus distance: ratio pinned near [1/2, 1]
rng = np.random.default_rng(32)
pairs = [(x, y) for x, y in rng.random((40, 2)) if abs(x - y) > 1e-3]
g = ss.gspace_ratio(1.0, pairs)
print(f"gspace ratios: c1 = {g.c1:.4f}, c2 = {g.c2:.4f}, spread = {g.spread:.3f} (<= 25: {g.bounded})")

# 3. stopping chain on a long run
p = ss.ModelParams(d=2, K=8, M=32, dt=0.05, T=1.0, a=0.3, eps_tail=5e-3)
E = ss.choose_E(p.d, p.a)
L = ss.chain_L(p.a, E)
Lam = ss.calibrate_lambda(p, L, n_rep=100, seed=33)
print(f"\nchain parameters: delta = {ss.chain_delta(p.a)}, E = {E:.3f}, L = {L:.3f}, Lambda = {Lam:.3f}")

long_p = dataclasses.replace(p, T=12.0 * L)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", UserWarning)
    trace = ss.simulate(long_p, 34)
    chain = ss.stopping_chain(trace, Lam, seed=35, n_mc=4000)
print(f"intervals found over T = {long_p.T:.1f}: {chain.n_intervals}")
for i in range(chain.n_intervals):
    print(
        f"  S_{i + 1} = {chain.S[i]:7.2f}  T_{i + 1} = {chain.T_seq[i]:7.2f}"
        f"  range(u) = {chain.range_string[i]:.4f}  range(N) = {chain.range_noise[i]:.4f}"
        f"  vol(u,a) = {chain.vol_string[i]:.4f}  vol(N,a/2) = {chain.vol_noise[i]:.4f}"
    )

# 4. clearing strategy: closed-form optimal ball radius and its exponent
cb = ss.clearing_bound(d=3, nu=1.0, a=0.3, J=1.0, T=10.0, logC0=-1.0)
print(f"\nclearing bound (d=3): alpha* = {cb.alpha_star:.4f}, exponent = {cb.exponent_value:.4f}")
print(f"trap-free probability of the cleared ball: {cb.clearing_probability:.3e}")

# cross-check the closed form against a grid search
alphas = np.linspace(0.05, 5.0, 20_000)
A = 1.0 * cb.c_d * 2 ** 3
B = 10.0 * 1.0
grid_best = alphas[np.argmax([ss.clearing_exponent(al, A, B, 3) for al in alphas])]
print(f"grid-search maximizer: {grid_best:.4f} (closed form {cb.alpha_star:.4f})")

# 5. confinement event frequencies behind the soft lower bound.  The events
# compare the string to a/8 and a/16; since the stationary range is of order
# one they are genuinely rare at any admissible trap radius, which is exactly
# why the lower bound decays with T.  The center-of-mass hold over a short
# window is the least rare and shows up at this sample size.
wide = dataclasses.replace(p, a=1.0)
rep = ss.confinement_stats(wide, t=2.0, s_max=0.01, n_rep=200, seed=36)
print(
    f"\nconfinement frequencies (t = {rep.t}, s_max = {rep.s_max}, a = {wide.a}): "
    f"range {rep.freq_range:.3f}, field-hold {rep.freq_field_hold:.3f}, "
    f"com-hold {rep.freq_com_hold:.3f}, joint {rep.freq_joint:.3f}"
)
print("(range and field-hold events need range(u) << a; they are rare by design)")
