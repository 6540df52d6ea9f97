"""Rule-based nodule semantic layout generation.

Nodules are rotated ellipsoids whose diameters follow the three-class
size distribution observed in the LIDC-style nodule population:
19% small [1.41, 6) mm, 62% medium [6, 16) mm, 19% large
[16, 57.42] mm, with uniform diameters within each class.  Placement
rasterizes the ellipsoid at a random center inside lung-labeled
regions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PlacementError, SearchExhaustedError, ValidationError
from .schedule import is_finite_real
from .volume import LUNG, NODULE, CropRegion, SemanticLayout

SIZE_CLASSES = ("small", "medium", "large")
MIN_LUNG_OVERLAP = 0.9
MIN_LUNG_FRAC = 0.05
PLACE_TRIES = 100   # centres place_nodule tries for one spec
CROP_TRIES = 1000   # origins pick_healthy_crop tries


def _real_tuple(value, shape):
    """``value`` as nested tuples of finite real numbers of ``shape``, or
    None when it is not a list or tuple of that shape."""
    if not isinstance(value, (tuple, list)) or len(value) != shape[0]:
        return None
    if len(shape) == 1:
        return tuple(value) if all(map(is_finite_real, value)) else None
    items = tuple(_real_tuple(v, shape[1:]) for v in value)
    return None if None in items else items


@dataclass(frozen=True)
class LayoutConfig:
    """Nodule size and shape distribution; list values become tuples."""

    class_probs: tuple = (0.19, 0.62, 0.19)
    diameter_bounds_mm: tuple = ((1.41, 6.0), (6.0, 16.0), (16.0, 57.42))
    axis_ratio_range: tuple = (0.6, 1.0)
    max_diameter_mm: float = None  # optional extra cap (e.g. patch size)

    def __post_init__(self):
        n = len(SIZE_CLASSES)
        probs = _real_tuple(self.class_probs, (n,))
        if probs is None or min(probs) < 0 or abs(sum(probs) - 1.0) > 1e-9:
            raise ValidationError(
                f"class_probs must be finite, >= 0 and sum to 1 over the "
                f"{n} size classes, got {self.class_probs!r}")
        ratios = _real_tuple(self.axis_ratio_range, (2,))
        if ratios is None or not 0 < ratios[0] <= ratios[1] <= 1.0:
            raise ValidationError(
                f"bad axis_ratio_range {self.axis_ratio_range!r}: need "
                f"(lo, hi) with 0 < lo <= hi <= 1")
        bounds = _real_tuple(self.diameter_bounds_mm, (n, 2))
        lows = [lo for lo, _ in bounds or ()]
        if (bounds is None or lows != sorted(lows)
                or not all(0 < lo < hi for lo, hi in bounds)):
            raise ValidationError(
                f"diameter bounds must be ordered (lo, hi) pairs, one per "
                f"size class, got {self.diameter_bounds_mm!r}")
        cap = self.max_diameter_mm
        if not (cap is None or (is_finite_real(cap) and cap > 0)):
            raise ValidationError(f"max_diameter_mm must be None or finite "
                                  f"and > 0, got {cap!r}")
        object.__setattr__(self, "class_probs", probs)
        object.__setattr__(self, "axis_ratio_range", ratios)
        object.__setattr__(self, "diameter_bounds_mm", bounds)


@dataclass(frozen=True)
class EllipsoidSpec:
    size_class: str
    semi_axes_mm: tuple  # (a, b, c), a is the largest
    rotation: tuple      # Euler angles (z, y, x) in radians

    @property
    def diameter_mm(self):
        return 2.0 * max(self.semi_axes_mm)


def sample_nodule_spec(cfg, rng):
    """Draw a nodule spec: class per class_probs, diameter uniform within
    the class bounds, axis ratios and rotation uniform."""
    idx = rng.choice(len(SIZE_CLASSES), p=cfg.class_probs)
    lo, hi = cfg.diameter_bounds_mm[idx]
    if cfg.max_diameter_mm is not None:
        hi = min(hi, cfg.max_diameter_mm)
        lo = min(lo, hi)
    diameter = rng.uniform(lo, hi)
    a = diameter / 2.0
    r_lo, r_hi = cfg.axis_ratio_range
    b = a * rng.uniform(r_lo, r_hi)
    c = a * rng.uniform(r_lo, r_hi)
    rotation = tuple(rng.uniform(0.0, 2.0 * np.pi, size=3))
    return EllipsoidSpec(size_class=SIZE_CLASSES[idx], semi_axes_mm=(a, b, c),
                         rotation=rotation)


def _rotation_matrix(angles):
    """Intrinsic z-y-x Euler rotation."""
    az, ay, ax = angles
    cz, sz = np.cos(az), np.sin(az)
    cy, sy = np.cos(ay), np.sin(ay)
    cx, sx = np.cos(ax), np.sin(ax)
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    return rz @ ry @ rx


def _ellipsoid_box(spec, center, dims, spacing):
    """``(slices, inside)``: the voxel box around ``center`` that can hold
    the rotated ellipsoid, clipped to ``dims`` (empty when ``center``
    lies far outside), and the ellipsoid's mask within it.

    A voxel belongs to the nodule when its physical offset from the
    center, rotated into the ellipsoid frame, lies inside the unit ball
    scaled by the semi-axes.
    """
    rot = _rotation_matrix(spec.rotation)
    axes = np.asarray(spec.semi_axes_mm)
    # Bounding box in voxels: the largest semi-axis covers every rotation.
    r_vox = np.ceil(max(axes) / np.asarray(spacing)).astype(int) + 1
    lo = np.maximum(np.round(center).astype(int) - r_vox, 0)
    hi = np.maximum(
        np.minimum(np.round(center).astype(int) + r_vox + 1, dims), lo)
    # Physical offsets from the center, one axis at a time, broadcast
    # into the (*box, 3) array that the rotation multiplies.
    offsets_mm = np.empty(tuple(hi - lo) + (3,))
    for axis, (l, h, c, sp) in enumerate(zip(lo, hi, center, spacing)):
        shape = [-1 if a == axis else 1 for a in range(3)]
        offsets_mm[..., axis] = ((np.arange(l, h) - c) * sp).reshape(shape)
    local = offsets_mm @ rot  # rotate world offsets into ellipsoid frame
    local /= axes
    local *= local
    # Summed in the order of sum(axis=-1), so boundary voxels round alike.
    inside = local[..., 0] + local[..., 1] + local[..., 2] <= 1.0
    return tuple(slice(l, h) for l, h in zip(lo, hi)), inside


def place_nodule(spec, lung, spacing, rng):
    """Place the ellipsoid at a random center with >= MIN_LUNG_OVERLAP of
    its voxels on lung labels.  Returns a new layout with nodule labels added.

    Only the ellipsoid's bounding box is rasterized and counted.  Raises
    PlacementError after PLACE_TRIES failed placements (the caller may
    resample the spec).
    """
    lung_flat = np.flatnonzero(lung.labels == LUNG)
    if len(lung_flat) == 0:
        raise PlacementError("layout contains no lung-labeled voxels")
    for _ in range(PLACE_TRIES):
        center = np.array(np.unravel_index(
            lung_flat[rng.integers(len(lung_flat))], lung.dims), np.float64)
        sl, inside = _ellipsoid_box(spec, center, lung.dims, spacing)
        n_total = int(inside.sum())
        if n_total == 0:
            continue
        n_lung = int((inside & (lung.labels[sl] == LUNG)).sum())
        if n_lung / n_total < MIN_LUNG_OVERLAP:
            continue
        labels = lung.labels.copy()
        labels[sl][inside] = NODULE
        return SemanticLayout(labels, lung.spacing)
    raise PlacementError(
        f"no valid placement for {spec.diameter_mm:.1f} mm nodule "
        f"after {PLACE_TRIES} tries")


def pick_healthy_crop(layout, existing_nodules, size, rng):
    """Uniformly pick a crop region free of existing nodule voxels and
    overlapping lung labels in at least MIN_LUNG_FRAC of its voxels.

    Rejection sampling over valid origins; raises SearchExhaustedError
    after CROP_TRIES attempts.
    """
    dims = layout.dims
    whole = CropRegion((0, 0, 0), size)  # the box rule, before any draw
    whole.validate_within(dims)
    size = whole.size
    n_vox = int(np.prod(size))
    for _ in range(CROP_TRIES):
        origin = tuple(int(rng.integers(0, d - sz + 1))
                       for d, sz in zip(dims, size))
        region = CropRegion(origin, size)
        # Each candidate is checked on its own slice: no full-layout mask.
        sl = region.slices()
        if existing_nodules is not None and np.any(
                existing_nodules.labels[sl] == NODULE):
            continue
        if (np.count_nonzero(layout.labels[sl] == LUNG)
                < MIN_LUNG_FRAC * n_vox):
            continue
        return region
    raise SearchExhaustedError(
        f"no nodule-free crop of size {size} found in {CROP_TRIES} attempts")
