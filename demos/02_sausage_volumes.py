"""Estimate sausage volumes three ways and probe the trajectory's dimension.

The sausage of radius a around a trajectory is the union of radius-a balls
centered at every sampled string point.  Hit-or-miss Monte Carlo and voxel
counting measure the same set; the Wiener sausage is the analogous object
around the center-of-mass path alone.
"""

import math

import numpy as np

import string_sausage as ss
from string_sausage.rng import MC, substream
from string_sausage.spectral import grid_values

params = ss.ModelParams(d=2, K=16, M=64, dt=0.02, T=1.0, a=0.3, eps_tail=2e-3)
cloud = ss.simulate(params, seed=11).cloud()
print("cloud points:", cloud.points.shape[0])

mc = ss.sausage_volume_hit_or_miss(cloud, params.a, 100_000, substream(11, MC, 0))
vx = ss.sausage_volume_voxel(cloud, params.a, voxel_size=params.a / 10)
print(f"hit-or-miss volume: {mc.volume:.4f} +- {mc.stderr:.4f}")
print(f"voxel volume:       {vx.volume:.4f}")

# sanity oracle: one frozen point gives exactly a disk
disk = ss.sausage_volume_voxel(ss.PointCloud(np.zeros((1, 2))), 0.5, 0.01)
print(f"single-point disk:  {disk.volume:.4f} (pi/4 = {math.pi / 4:.4f})")

# Wiener sausage around a 3-d Brownian path vs the closed form
spitzer = 2 * math.pi * 0.5 + 4 * 0.25 * math.sqrt(2 * math.pi) + 4 * math.pi * 0.125 / 3
vols = []
for r in range(100):
    path = ss.brownian_path(3, 1.0, 0.00025, seed=12, replica=r)
    vols.append(ss.wiener_sausage_volume(path, 0.5, 2000, substream(12, MC, r)).volume)
print(f"wiener sausage mean: {np.mean(vols):.4f} (closed form {spitzer:.4f})")

# box-counting dimension: a straight segment is 1-dimensional, the image of
# the string field looks 2-dimensional in R^3 until mode truncation smooths it
seg = np.zeros((4096, 2))
seg[:, 0] = np.linspace(0, 1, 4096)
scales = np.array([2.0 ** -e for e in range(3, 8)])
print("segment slope:", round(ss.box_counting_dimension(seg, scales).slope, 3))

p3 = ss.ModelParams(d=3, K=256, M=16384, eps_tail=1e-2)
field = ss.sample_stationary_field(p3, substream(13, MC, 0))
res = ss.box_counting_dimension(grid_values(p3, field), np.geomspace(0.5, 0.03, 5))
print("stationary-field image slope:", round(res.slope, 3), "(tends to 2 as K grows)")
