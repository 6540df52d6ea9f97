"""Forward diffusion, reference inversion, and masked mixing.

All operations take noise explicitly (never draw it internally), so
every call is a pure function and every test is reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .volume import SemanticLayout, VoxelVolume


@dataclass(frozen=True)
class NoisyState:
    """A volume diffused to noise level t under a given schedule."""

    x_t: VoxelVolume
    t: float
    schedule: object

    def __post_init__(self):
        if self.t < 0 or self.t > self.schedule.T:
            raise ValueError(f"t={self.t} outside [0, {self.schedule.T}]")


def diffuse(x0, t, eps, s):
    """sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps on plain arrays: two
    products and one addition, in that order."""
    ab, sig, _ = s.coefficients(t)
    return np.sqrt(ab) * x0 + sig * eps


def q_sample(x0, t, eps, s):
    """Diffuse clean data to level t: x_t = sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps."""
    if eps.dims != x0.dims:
        raise ValueError(f"eps dims {eps.dims} != x0 dims {x0.dims}")
    return NoisyState(VoxelVolume(diffuse(x0.data, t, eps.data, s),
                                  x0.spacing), t, s)


def invert_reference(x, t_start, eps, s):
    """Diffuse a reference volume up to t_start (the background carrier).

    Identical computation to :func:`q_sample`; named separately because
    the anatomically aware sampler treats the result as the carrier of
    the pulmonary background.
    """
    return q_sample(x, t_start, eps, s)


def masked_mix(bg, n, m):
    """Replace nodule-labeled voxels of a noisy background with fresh noise.

    Voxelwise select: nodule voxels take ``n``, all others keep
    ``bg.x_t``.  The time index is unchanged.
    """
    if n.dims != bg.x_t.dims or m.dims != bg.x_t.dims:
        raise ValueError(
            f"dims mismatch: bg {bg.x_t.dims}, n {n.dims}, m {m.dims}")
    mask = m.nodule_mask()
    mixed = np.where(mask, n.data, bg.x_t.data)
    return NoisyState(VoxelVolume(mixed, bg.x_t.spacing), bg.t, bg.schedule)
