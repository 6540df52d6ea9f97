"""Forward diffusion, reference inversion, and masked mixing.

All operations take noise explicitly (never draw it internally), so
every call is a pure function and every test is reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .volume import SemanticLayout, VoxelVolume


@dataclass(frozen=True)
class NoisyState:
    """A volume diffused to noise level t under a given schedule."""

    x_t: VoxelVolume
    t: float
    schedule: object

    def __post_init__(self):
        self.schedule.coefficients_at(self.t)  # the [0, T] range check


def diffuse(x0, t, eps, s):
    """sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps on plain arrays: two
    products and one addition, in that order."""
    ab, sig, _ = s.coefficients_at(t)
    return np.sqrt(ab) * x0 + sig * eps


def q_sample(x0, t, eps, s):
    """Diffuse clean data to level t: x_t = sqrt(ab_t) * x0 + sqrt(1 - ab_t) * eps."""
    if eps.dims != x0.dims:
        raise ValidationError(f"eps dims {eps.dims} != x0 dims {x0.dims}")
    return NoisyState(VoxelVolume(diffuse(x0.data, t, eps.data, s),
                                  x0.spacing), t, s)


# Diffusing the reference up to t_start gives the background carrier.
invert_reference = q_sample


def masked_mix(bg, n, m):
    """Replace nodule-labeled voxels of a noisy background with fresh noise.

    Voxelwise select: nodule voxels take ``n``, all others keep
    ``bg.x_t``.  The time index is unchanged.
    """
    if n.dims != bg.x_t.dims or m.dims != bg.x_t.dims:
        raise ValidationError(
            f"dims mismatch: bg {bg.x_t.dims}, n {n.dims}, m {m.dims}")
    mask = m.nodule_mask()
    mixed = np.where(mask, n.data, bg.x_t.data)
    return NoisyState(VoxelVolume(mixed, bg.x_t.spacing), bg.t, bg.schedule)
