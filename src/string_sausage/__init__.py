"""Simulation of a random string (stochastic heat equation on a circle)
among Poissonian traps: exact spectral evolution, sausage-volume geometry,
annealed/quenched survival estimation, and proof-machinery diagnostics.

The package namespace carries the entry points the demos and the acceptance
tests use; everything else is imported from its module
(`string_sausage.traps`, ...).
"""

from .asymptotics import (
    calibrate_lambda,
    chain_L,
    chain_delta,
    choose_E,
    clearing_bound,
    clearing_exponent,
    exponent_fit,
    gspace_ratio,
    range_smoothing_check,
    stopping_chain,
)
from .geometry import (
    PointCloud,
    box_counting_dimension,
    sausage_volume_hit_or_miss,
    sausage_volume_voxel,
    wiener_sausage_volume,
)
from .simulate import brownian_path, simulate
from .spectral import ModelParams, sample_stationary_field, variance_series
from .statistics import range_of
from .survival import annealed_hard, annealed_soft, scaling_check

__version__ = "0.1.0"
