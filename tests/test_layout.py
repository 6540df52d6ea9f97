import itertools

import numpy as np
import pytest

from nodulesynth.errors import PlacementError, SearchExhaustedError
from nodulesynth.layout import (SIZE_CLASSES, EllipsoidSpec, LayoutConfig,
                                pick_healthy_crop, place_nodule,
                                rasterize_ellipsoid, sample_nodule_spec)
from nodulesynth.volume import LUNG, NODULE, SemanticLayout


def test_layout_config_validation():
    with pytest.raises(ValueError):
        LayoutConfig(class_probs=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        LayoutConfig(axis_ratio_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        LayoutConfig(diameter_bounds_mm=((5.0, 2.0), (6.0, 16.0), (16.0, 57.0)))


def test_sample_spec_class_distribution(rng):
    cfg = LayoutConfig()
    counts = {c: 0 for c in SIZE_CLASSES}
    n = 20000
    for _ in range(n):
        counts[sample_nodule_spec(cfg, rng).size_class] += 1
    # 4-sigma binomial bounds around (0.19, 0.62, 0.19).
    for cls, p in zip(SIZE_CLASSES, (0.19, 0.62, 0.19)):
        se = np.sqrt(p * (1 - p) / n)
        assert abs(counts[cls] / n - p) < 4 * se


def test_sample_spec_diameters_within_class(rng):
    cfg = LayoutConfig()
    bounds = dict(zip(SIZE_CLASSES, cfg.diameter_bounds_mm))
    for _ in range(2000):
        spec = sample_nodule_spec(cfg, rng)
        lo, hi = bounds[spec.size_class]
        assert lo <= spec.diameter_mm <= hi
        a, b, c = spec.semi_axes_mm
        assert a >= b and a >= c
        assert 0.6 * a - 1e-12 <= b <= a
        assert 0.6 * a - 1e-12 <= c <= a


def test_sample_spec_diameter_cap(rng):
    cfg = LayoutConfig(max_diameter_mm=10.0)
    for _ in range(500):
        assert sample_nodule_spec(cfg, rng).diameter_mm <= 10.0


def test_unrotated_sphere_cube_symmetries():
    # A sphere at the center of an odd cube must be invariant under all
    # 48 signed axis permutations.
    spec = EllipsoidSpec("small", (4.0, 4.0, 4.0), (0.0, 0.0, 0.0))
    dims = (15, 15, 15)
    mask = rasterize_ellipsoid(spec, (7.0, 7.0, 7.0), dims, (1.0, 1.0, 1.0))
    for perm in itertools.permutations((0, 1, 2)):
        for flips in itertools.product((False, True), repeat=3):
            m = np.transpose(mask, perm)
            for ax, f in enumerate(flips):
                if f:
                    m = np.flip(m, axis=ax)
            np.testing.assert_array_equal(m, mask)


def test_ellipsoid_volume_close_to_analytic(rng):
    # Voxel count vs (4/3) pi a b c for a few random rotated ellipsoids
    # of diameter >= 8 voxels.
    for seed in range(5):
        r = np.random.default_rng(seed)
        axes = tuple(r.uniform(4.0, 8.0, size=3))
        spec = EllipsoidSpec("large", axes, tuple(r.uniform(0, 2 * np.pi, 3)))
        dims = (40, 40, 40)
        mask = rasterize_ellipsoid(spec, (20.0, 20.0, 20.0), dims,
                                   (1.0, 1.0, 1.0))
        analytic = 4.0 / 3.0 * np.pi * np.prod(axes)
        assert abs(mask.sum() - analytic) / analytic < 0.15


def test_rasterize_respects_spacing():
    spec = EllipsoidSpec("small", (4.0, 4.0, 4.0), (0.0, 0.0, 0.0))
    fine = rasterize_ellipsoid(spec, (10, 10, 10), (21, 21, 21), (1, 1, 1))
    coarse = rasterize_ellipsoid(spec, (5, 5, 5), (11, 11, 11), (2, 2, 2))
    # Doubling the spacing shrinks the voxel count roughly 8x.
    assert fine.sum() / max(coarse.sum(), 1) == pytest.approx(8.0, rel=0.3)


def test_place_nodule_overlap_invariant(rng):
    labels = np.zeros((24, 24, 24), np.uint8)
    labels[4:20, 4:20, 4:20] = LUNG
    lung = SemanticLayout(labels)
    spec = EllipsoidSpec("medium", (3.0, 2.5, 2.0),
                         tuple(rng.uniform(0, 2 * np.pi, 3)))
    placed = place_nodule(spec, lung, (1.0, 1.0, 1.0), rng)
    mask = placed.nodule_mask()
    assert mask.sum() > 0
    # Brute-force the overlap constraint against the original lung labels.
    on_lung = (mask & (labels == LUNG)).sum()
    assert on_lung / mask.sum() >= 0.9
    # Placement only promotes labels within the mask.
    np.testing.assert_array_equal(placed.labels[~mask], labels[~mask])
    assert placed._placed_spec.center is not None


def test_place_nodule_no_lung_raises(rng):
    lung = SemanticLayout(np.zeros((8, 8, 8), np.uint8))
    spec = EllipsoidSpec("small", (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(PlacementError):
        place_nodule(spec, lung, (1.0, 1.0, 1.0), rng)


def test_place_nodule_exhausts_tries(rng):
    # A nodule far larger than the lung field can never reach 90% overlap.
    labels = np.zeros((16, 16, 16), np.uint8)
    labels[8, 8, 8] = LUNG
    lung = SemanticLayout(labels)
    spec = EllipsoidSpec("large", (10.0, 10.0, 10.0), (0.0, 0.0, 0.0))
    with pytest.raises(PlacementError, match="tries"):
        place_nodule(spec, lung, (1.0, 1.0, 1.0), rng, max_tries=20)


def test_pick_healthy_crop_invariants(rng):
    labels = np.zeros((24, 24, 24), np.uint8)
    labels[2:22, 2:22, 2:22] = LUNG
    labels[4:7, 4:7, 4:7] = NODULE
    layout = SemanticLayout(labels)
    for _ in range(20):
        region = pick_healthy_crop(layout, layout, (8, 8, 8), rng)
        sl = region.slices()
        # Brute-force scan: not a single nodule voxel inside the crop.
        assert not (labels[sl] == NODULE).any()
        assert (labels[sl] == LUNG).sum() >= 0.05 * 8 ** 3


def test_pick_healthy_crop_exhausted(rng):
    labels = np.full((8, 8, 8), NODULE, dtype=np.uint8)
    layout = SemanticLayout(labels)
    with pytest.raises(SearchExhaustedError):
        pick_healthy_crop(layout, layout, (4, 4, 4), rng, max_tries=50)


def test_pick_healthy_crop_size_validation(rng):
    layout = SemanticLayout(np.zeros((8, 8, 8), np.uint8))
    with pytest.raises(ValueError):
        pick_healthy_crop(layout, None, (16, 16, 16), rng)
