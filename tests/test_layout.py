import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodulesynth import layout as layout_mod
from nodulesynth.errors import (PlacementError, SearchExhaustedError,
                               ValidationError)
from nodulesynth.layout import (SIZE_CLASSES, EllipsoidSpec, LayoutConfig,
                                _ellipsoid_box, _rotation_matrix,
                                pick_healthy_crop, place_nodule,
                                sample_nodule_spec)
from nodulesynth.volume import (LUNG, NODULE, CropRegion, SemanticLayout, crop,
                                make_phantom)


def rasterize_ellipsoid(spec, center, dims, spacing):
    """Boolean mask of the whole ``dims`` with the ellipsoid's box written
    in: what placement sees of the shape."""
    mask = np.zeros(dims, dtype=bool)
    sl, inside = _ellipsoid_box(spec, center, dims, spacing)
    mask[sl] = inside
    return mask


def test_layout_config_validation():
    with pytest.raises(ValueError):
        LayoutConfig(class_probs=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        LayoutConfig(axis_ratio_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        LayoutConfig(diameter_bounds_mm=((5.0, 2.0), (6.0, 16.0), (16.0, 57.0)))


@pytest.mark.parametrize("field,value", [
    ("max_diameter_mm", -5.0), ("max_diameter_mm", 0.0),
    ("max_diameter_mm", float("nan")), ("max_diameter_mm", float("inf")),
    ("class_probs", (float("nan"), 0.5, 0.5)),
    ("class_probs", (-0.5, 1.0, 0.5)),
    ("class_probs", (float("inf"), 0.5, 0.5)),
], ids=["negative_max_diameter", "zero_max_diameter", "nan_max_diameter",
        "infinite_max_diameter", "nan_class_prob", "negative_class_prob",
        "infinite_class_prob"])
def test_layout_config_rejects_values_outside_finite_range(field, value):
    with pytest.raises(ValueError, match=f"{field} must be (None or )?finite"):
        LayoutConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("class_probs", 5), ("class_probs", (0.5, 0.5)), ("class_probs", "abc"),
    ("axis_ratio_range", (0.5, 0.7, 0.9)), ("axis_ratio_range", ("a", "b")),
    ("diameter_bounds_mm", ((1.0, 2.0, 3.0),)),
    ("diameter_bounds_mm", ((1.0, 2.0), (3.0, 4.0), (5.0, "x"))),
    ("max_diameter_mm", "x"), ("max_diameter_mm", True),
])
def test_layout_config_rejects_malformed_values(field, value):
    with pytest.raises(ValidationError):
        LayoutConfig(**{field: value})


def test_layout_config_turns_lists_into_tuples():
    cfg = LayoutConfig(class_probs=[0.2, 0.6, 0.2],
                       diameter_bounds_mm=[[1, 6], [6, 16], [16, 50]],
                       axis_ratio_range=[0.5, 1])
    assert cfg.class_probs == (0.2, 0.6, 0.2)
    assert cfg.diameter_bounds_mm == ((1, 6), (6, 16), (16, 50))
    assert cfg.axis_ratio_range == (0.5, 1)
    assert hash(cfg)


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


@pytest.mark.parametrize("center", [(-20.0, 5.0, 5.0), (50.0, 5.0, 5.0),
                                    (5.0, 5.0, -5.0)])
def test_rasterize_center_far_outside_is_empty(center):
    spec = EllipsoidSpec("small", (3.0, 2.0, 2.0), (0.1, 0.2, 0.3))
    mask = rasterize_ellipsoid(spec, center, (10, 10, 10), (1.0, 1.0, 1.0))
    assert mask.shape == (10, 10, 10) and not mask.any()


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
    with patch.object(layout_mod, "PLACE_TRIES", 20), \
            pytest.raises(PlacementError, match="after 20 tries"):
        place_nodule(spec, lung, (1.0, 1.0, 1.0), rng)
    with pytest.raises(PlacementError, match="after 100 tries"):
        place_nodule(spec, lung, (1.0, 1.0, 1.0), rng)


def _meshgrid_mask(spec, center, dims, spacing):
    """Reference rasterizer: the ellipsoid test on a meshgrid of the
    bounding box, summed with ``sum(axis=-1)``, in a mask of ``dims``."""
    rot = _rotation_matrix(spec.rotation)
    axes = np.asarray(spec.semi_axes_mm)
    r_vox = np.ceil(max(axes) / np.asarray(spacing)).astype(int) + 1
    lo = np.maximum(np.round(center).astype(int) - r_vox, 0)
    hi = np.maximum(np.minimum(np.round(center).astype(int) + r_vox + 1,
                               dims), lo)
    grids = np.meshgrid(*(np.arange(l, h) for l, h in zip(lo, hi)),
                        indexing="ij")
    offsets_mm = np.stack(
        [(g - c) * sp for g, c, sp in zip(grids, center, spacing)], axis=-1)
    mask = np.zeros(dims, dtype=bool)
    mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = (
        ((offsets_mm @ rot / axes) ** 2).sum(axis=-1) <= 1.0)
    return mask


@settings(max_examples=80, deadline=None)
@given(a=st.floats(0.5, 20.0), ratios=st.tuples(*[st.floats(0.6, 1.0)] * 2),
       rotation=st.tuples(*[st.floats(0.0, 2 * np.pi)] * 3),
       dims=st.tuples(*[st.integers(1, 40)] * 3),
       center=st.tuples(*[st.floats(-8.0, 48.0)] * 3),
       spacing=st.tuples(*[st.sampled_from([0.7, 1.0, 1.5, 2.5])] * 3))
@example(a=4.0, ratios=(1.0, 1.0), rotation=(0.0, 0.0, 0.0), dims=(15, 15, 15),
         center=(7.0, 7.0, 7.0), spacing=(1.0, 1.0, 1.0))
def test_ellipsoid_box_matches_meshgrid_oracle(a, ratios, rotation, dims,
                                               center, spacing):
    # Fractional centres, some outside the layout, and anisotropic
    # spacing; the example puts voxels exactly on the surface.
    spec = EllipsoidSpec("medium", (a, a * ratios[0], a * ratios[1]),
                         rotation)
    center = np.array(center)
    np.testing.assert_array_equal(
        rasterize_ellipsoid(spec, center, dims, spacing),
        _meshgrid_mask(spec, center, dims, spacing))


def _full_mask_place(spec, lung, spacing, rng, max_tries):
    """Reference placement: each try rasterizes the ellipsoid into a
    mask of the whole layout, counts the overlap and writes the nodule
    over the whole layout.  Returns the labels."""
    lung_idx = np.argwhere(lung.labels == LUNG)
    if len(lung_idx) == 0:
        raise PlacementError("layout contains no lung-labeled voxels")
    for _ in range(max_tries):
        center = lung_idx[rng.integers(len(lung_idx))].astype(np.float64)
        mask = _meshgrid_mask(spec, center, lung.dims, spacing)
        n_total = int(mask.sum())
        if n_total == 0:
            continue
        if int((mask & (lung.labels == LUNG)).sum()) / n_total < 0.9:
            continue
        labels = lung.labels.copy()
        labels[mask] = NODULE
        return labels
    raise PlacementError(
        f"no valid placement for {spec.diameter_mm:.1f} mm nodule "
        f"after {max_tries} tries")


@pytest.fixture(scope="module")
def phantom_lung():
    return make_phantom(4, (48, 48, 48))[1]


def _outcome(place, *args):
    try:
        return place(*args)
    except PlacementError as err:
        return str(err)


# The crops cut the lung fields, so nodules land on the crop border; a
# lung slab flush with the layout's faces does the same on purpose, and
# large nodules in small crops exhaust the patched PLACE_TRIES.
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size_class=st.integers(0, 2),
       origin=st.tuples(*[st.integers(0, 32)] * 3),
       size=st.tuples(*[st.integers(16, 32)] * 3),
       spacing=st.tuples(*[st.sampled_from([0.7, 1.0, 1.5])] * 3),
       slab=st.booleans(), max_tries=st.integers(1, 40))
@example(seed=0, size_class=2, origin=(0, 0, 0), size=(16, 16, 16),
         spacing=(1.0, 1.0, 1.0), slab=True, max_tries=5)
def test_place_nodule_matches_full_mask_oracle(phantom_lung, seed, size_class,
                                               origin, size, spacing, slab,
                                               max_tries):
    size = tuple(min(n, 48 - o) for n, o in zip(size, origin))
    lung = crop(phantom_lung, CropRegion(origin, size))
    if slab:
        labels = np.zeros(size, np.uint8)
        labels[:6, -5:, :] = LUNG
        lung = SemanticLayout(labels)
    probs = tuple(float(i == size_class) for i in range(3))
    spec = sample_nodule_spec(LayoutConfig(class_probs=probs),
                              np.random.default_rng(seed))
    got_rng, want_rng = (np.random.default_rng(seed + 1) for _ in range(2))
    with patch.object(layout_mod, "PLACE_TRIES", max_tries):
        got = _outcome(place_nodule, spec, lung, spacing, got_rng)
    want = _outcome(_full_mask_place, spec, lung, spacing, want_rng,
                    max_tries)
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got.labels, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


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


def _full_mask_crop(layout, existing_nodules, size, rng, max_tries):
    """Reference crop search: nodule and lung masks of the whole layout,
    built once and sliced per candidate.  Returns the region, or the
    exhaustion message."""
    nodule = (np.zeros(layout.dims, dtype=bool) if existing_nodules is None
              else existing_nodules.labels == NODULE)
    lung = layout.labels == LUNG
    for _ in range(max_tries):
        origin = tuple(int(rng.integers(0, d - sz + 1))
                       for d, sz in zip(layout.dims, size))
        sl = CropRegion(origin, size).slices()
        if nodule[sl].any() or lung[sl].sum() < 0.05 * np.prod(size):
            continue
        return CropRegion(origin, size)
    return (f"no nodule-free crop of size {size} found in {max_tries} "
            f"attempts")


# Sparse to dense lung and nodule labels, crops up to the whole layout,
# with and without existing nodules, and budgets small enough to run out.
@settings(max_examples=80, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 12)] * 3),
       lung_p=st.sampled_from([0.0, 0.02, 0.3, 1.0]),
       nodule_p=st.sampled_from([0.0, 0.005, 0.05]),
       with_nodules=st.booleans(), data=st.data(),
       max_tries=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_pick_healthy_crop_matches_full_mask_reference(
        dims, lung_p, nodule_p, with_nodules, data, max_tries, seed):
    u = np.random.default_rng(seed).random(dims)
    labels = np.where(u < lung_p, LUNG, 0).astype(np.uint8)
    labels[u < nodule_p] = NODULE
    layout = SemanticLayout(labels)
    size = tuple(data.draw(st.integers(1, d)) for d in dims)
    existing = layout if with_nodules else None
    got_rng, want_rng = (np.random.default_rng(seed + 1) for _ in range(2))
    with patch.object(layout_mod, "CROP_TRIES", max_tries):
        try:
            got = pick_healthy_crop(layout, existing, size, got_rng)
        except SearchExhaustedError as err:
            got = str(err)
    assert got == _full_mask_crop(layout, existing, size, want_rng,
                                  max_tries)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_pick_healthy_crop_exhausted(rng):
    labels = np.full((8, 8, 8), NODULE, dtype=np.uint8)
    layout = SemanticLayout(labels)
    with patch.object(layout_mod, "CROP_TRIES", 50), \
            pytest.raises(SearchExhaustedError, match="in 50 attempts"):
        pick_healthy_crop(layout, layout, (4, 4, 4), rng)
    with pytest.raises(SearchExhaustedError, match="in 1000 attempts"):
        pick_healthy_crop(layout, layout, (4, 4, 4), rng)


def test_pick_healthy_crop_size_validation(rng):
    layout = SemanticLayout(np.zeros((8, 8, 8), np.uint8))
    with pytest.raises(ValueError):
        pick_healthy_crop(layout, None, (16, 16, 16), rng)
    # A fractional or two-axis size is rejected, not truncated, before
    # any draw.
    _, layout = make_phantom(0, (16, 16, 16))
    state = rng.bit_generator.state
    for size in [(4.9, 4, 4), (4, 4)]:
        with pytest.raises(ValidationError, match="must be integers"):
            pick_healthy_crop(layout, None, size, rng)
    assert rng.bit_generator.state == state
