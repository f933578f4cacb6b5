"""Simulate one random string and look at its path statistics.

The string is the R^d-valued solution of the stochastic heat equation on a
circle driven by space-time white noise.  Its spatial average (center of
mass) is a standard Brownian motion, and the spread around that center (the
radius) fluctuates at order one, independently of the center.
"""

import numpy as np

import string_sausage as ss

params = ss.ModelParams(d=2, K=32, M=128, dt=0.02, T=2.0)
trace = ss.simulate(params, seed=7)
com, radius = trace.com, trace.radius

print("snapshots:", trace.n_snapshots)
print("final center of mass:", np.round(com[-1], 4))
print("final radius:", round(float(radius[-1]), 4))
print("max radius over the run:", round(float(radius.max()), 4))
print("final range:", round(ss.range_of(trace.values[-1]), 4))

# the center of mass should diffuse like sqrt(t) while the radius stays O(1)
print("\n  t      |X_t|    R_t")
for i in range(0, trace.n_snapshots, trace.n_snapshots // 8):
    print(f"  {trace.times[i]:5.2f}  {np.linalg.norm(com[i]):7.4f}  {radius[i]:6.4f}")

# check the Brownian law of the center of mass over replicas
ends = []
for r in range(500):
    tr = ss.simulate(ss.ModelParams(d=2, K=1, M=3, dt=1.0, T=1.0, eps_tail=5e-2), 7, replica=r)
    ends.append(tr.coeffs[-1][:, 0])
ends = np.asarray(ends)
print("\nper-coordinate variance of X_1 over 500 replicas:", np.round(ends.var(axis=0), 3), "(expect ~1)")
