import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodulesynth.errors import FormatError, ValidationError
from nodulesynth.volume import (LUNG, CropRegion, SemanticLayout, VoxelVolume,
                                crop, make_phantom, paste, read_layout,
                                read_volume, write_layout, write_volume)

dims_st = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))


def _random_f32(rng, dims):
    return rng.standard_normal(dims).astype(np.float32).astype(np.float64)


# -- dataclass validation ----------------------------------------------------


def test_volume_validation():
    with pytest.raises(ValueError):
        VoxelVolume(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        VoxelVolume(np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError):
        VoxelVolume(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))


@pytest.mark.parametrize("spacing", [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0)])
def test_spacing_must_be_finite(spacing):
    with pytest.raises(ValidationError, match="spacing must be 3 positive"):
        VoxelVolume(np.zeros((2, 2, 2)), spacing)
    with pytest.raises(ValidationError, match="spacing must be 3 positive"):
        SemanticLayout(np.zeros((2, 2, 2), np.uint8), spacing)


def test_layout_validation():
    with pytest.raises(ValueError):
        SemanticLayout(np.full((2, 2, 2), 3, dtype=np.uint8))
    with pytest.raises(ValueError):
        SemanticLayout(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        SemanticLayout(np.zeros((2, 2, 2), dtype=np.uint8),
                       cut=((True, False),) * 2)


@pytest.mark.parametrize("labels", [
    np.full((2, 2, 2), 258, np.int64),   # would wrap to NODULE
    np.full((2, 2, 2), -255, np.int64),  # would wrap to LUNG
    np.full((2, 2, 2), 1.7),             # would truncate to LUNG
    np.full((2, 2, 2), np.nan),
    np.full((2, 2, 2), "1"),
], ids=["258", "-255", "1.7", "nan", "str"])
def test_layout_rejects_labels_a_uint8_cast_would_change(labels):
    with pytest.raises(ValidationError, match=r"labels must be in \{0, 1, 2\}"):
        SemanticLayout(labels)


def test_layout_keeps_labels_of_other_dtypes_that_fit():
    for dtype in (np.int64, np.float64, bool):
        given = (np.arange(8).reshape(2, 2, 2) % (2 if dtype is bool else 3))
        lay = SemanticLayout(given.astype(dtype))
        assert lay.labels.dtype == np.uint8
        np.testing.assert_array_equal(lay.labels, given)


@pytest.mark.parametrize("cut", [((True,),) * 3, (True, False, True),
                                 ((True, False, True),) * 3, 5])
def test_layout_rejects_a_cut_that_is_not_three_pairs(cut):
    with pytest.raises(ValidationError, match="cut must be 3"):
        SemanticLayout(np.zeros((2, 2, 2), np.uint8), cut=cut)


@pytest.mark.parametrize("data", ["abc", [[[1.0]], [[1.0, 2.0]]]],
                         ids=["str", "ragged"])
def test_grids_reject_what_is_not_a_numeric_array(data):
    with pytest.raises(ValidationError, match="volume data must be a numeric"):
        VoxelVolume(data)
    with pytest.raises(ValidationError, match="layout labels must be"):
        SemanticLayout(data)


def test_volume_data_readonly(small_volume):
    with pytest.raises(ValueError):
        small_volume.data[0, 0, 0] = 1.0


def test_wrapping_leaves_callers_array_writable():
    data = np.zeros((2, 2, 2))
    labels = np.zeros((2, 2, 2), dtype=np.uint8)
    v, lay = VoxelVolume(data), SemanticLayout(labels)
    # Still no copy: the wrappers share the caller's memory.
    assert np.shares_memory(v.data, data)
    assert np.shares_memory(lay.labels, labels)
    data[0, 0, 0] = 1.0
    labels[0, 0, 0] = 2
    for frozen in (v.data, lay.labels):
        with pytest.raises(ValueError):
            frozen[1, 1, 1] = 1


def test_crop_region_validation():
    with pytest.raises(ValueError):
        CropRegion((-1, 0, 0), (2, 2, 2))
    # Non-integers are rejected, not truncated.
    for origin, size in [((0.5, 0, 0), (2, 2, 2)), ((0.7, 0, 0), (2.9, 2, 2)),
                         ((0, 0, 0), (2, 2.0, 2)), ((0, True, 0), (2, 2, 2)),
                         (("0", 0, 0), (2, 2, 2)),
                         # Exactly three axes.
                         ((0, 0), (2, 2)), ((0,) * 4, (2,) * 4),
                         ((0, 0, 0), (2, 2)), ((0, 0), (2, 2, 2))]:
        with pytest.raises(ValidationError, match="must be integers"):
            CropRegion(origin, size)
    r = CropRegion(np.arange(3), np.full(3, 2))
    assert r.origin == (0, 1, 2) and r.size == (2, 2, 2)
    assert {type(v) for v in r.origin + r.size} == {int}
    with pytest.raises(ValueError):
        CropRegion((0, 0, 0), (0, 2, 2))
    r = CropRegion((1, 2, 3), (2, 2, 2))
    assert r.slices() == (slice(1, 3), slice(2, 4), slice(3, 5))
    r.validate_within((3, 4, 5))  # exact fit is allowed
    with pytest.raises(ValueError):
        r.validate_within((3, 4, 4))
    # z and x: low face inside, high on the border; y: both inside.
    assert r.cut_faces((3, 5, 5)) == ((True, False), (True, True),
                                      (True, False))
    assert CropRegion((0, 0, 0), (3, 5, 5)).cut_faces((3, 5, 5)) == \
        ((False, False),) * 3


# -- crop / paste ------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_crop_paste_identity(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(v) for v in rng.integers(3, 9, size=3))
    v = VoxelVolume(_random_f32(rng, dims))
    size = tuple(int(rng.integers(1, d + 1)) for d in dims)
    origin = tuple(int(rng.integers(0, d - s + 1))
                   for d, s in zip(dims, size))
    r = CropRegion(origin, size)
    patch = crop(v, r)
    assert patch.dims == size
    # Pasting the crop back is a bit-exact no-op.
    np.testing.assert_array_equal(paste(v, patch, r).data, v.data)


def test_paste_changes_only_region(rng):
    v = VoxelVolume(rng.standard_normal((6, 6, 6)))
    r = CropRegion((1, 2, 3), (2, 2, 2))
    patch = VoxelVolume(np.zeros((2, 2, 2)))
    out = paste(v, patch, r)
    outside = np.ones(v.dims, dtype=bool)
    outside[r.slices()] = False
    np.testing.assert_array_equal(out.data[outside], v.data[outside])
    assert np.all(out.data[r.slices()] == 0.0)


def test_paste_dims_mismatch(rng):
    v = VoxelVolume(rng.standard_normal((6, 6, 6)))
    with pytest.raises(ValueError):
        paste(v, VoxelVolume(np.zeros((3, 3, 3))), CropRegion((0, 0, 0), (2, 2, 2)))


def test_crop_layout(small_layout):
    r = CropRegion((2, 2, 2), (3, 3, 3))
    patch = crop(small_layout, r)
    assert isinstance(patch, SemanticLayout)
    np.testing.assert_array_equal(patch.labels, small_layout.labels[r.slices()])


# -- binary I/O --------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(dims=dims_st, seed=st.integers(0, 2 ** 32 - 1))
def test_volume_roundtrip_bit_exact(tmp_path_factory, dims, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("io") / "v.ldpv"
    spacing = tuple(float(np.float32(s)) for s in rng.uniform(0.3, 3.0, 3))
    v = VoxelVolume(_random_f32(rng, dims), spacing)
    write_volume(v, path)
    v2 = read_volume(path)
    assert v2.dims == v.dims
    np.testing.assert_array_equal(v2.data, v.data)
    assert v2.spacing == v.spacing


@settings(max_examples=50, deadline=None)
@given(dims=dims_st, seed=st.integers(0, 2 ** 32 - 1))
def test_layout_roundtrip_bit_exact(tmp_path_factory, dims, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("io") / "l.ldpv"
    lay = SemanticLayout(rng.integers(0, 3, size=dims).astype(np.uint8))
    write_layout(lay, path)
    lay2 = read_layout(path)
    np.testing.assert_array_equal(lay2.labels, lay.labels)


def test_single_voxel_roundtrip(tmp_path):
    v = VoxelVolume(np.array([[[0.25]]]))
    write_volume(v, tmp_path / "one.ldpv")
    np.testing.assert_array_equal(read_volume(tmp_path / "one.ldpv").data, v.data)


def test_read_truncated_header(tmp_path):
    p = tmp_path / "bad.ldpv"
    p.write_bytes(b"LDPV\x01")
    with pytest.raises(FormatError, match="truncated"):
        read_volume(p)


def test_read_bad_magic(tmp_path, rng):
    p = tmp_path / "v.ldpv"
    write_volume(VoxelVolume(rng.standard_normal((2, 2, 2))), p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="offset 0"):
        read_volume(p)


def test_read_bad_version(tmp_path, rng):
    p = tmp_path / "v.ldpv"
    write_volume(VoxelVolume(rng.standard_normal((2, 2, 2))), p)
    raw = bytearray(p.read_bytes())
    raw[4] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_volume(p)


def test_read_dtype_mismatch(tmp_path, rng):
    p = tmp_path / "v.ldpv"
    write_volume(VoxelVolume(rng.standard_normal((2, 2, 2))), p)
    with pytest.raises(FormatError, match="dtype"):
        read_layout(p)


def test_read_payload_size_mismatch(tmp_path, rng):
    p = tmp_path / "v.ldpv"
    write_volume(VoxelVolume(rng.standard_normal((2, 2, 2))), p)
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(FormatError, match="payload size mismatch"):
        read_volume(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_volume_with_a_non_finite_value(tmp_path, rng, bad):
    p = tmp_path / "v.ldpv"
    write_volume(VoxelVolume(rng.standard_normal((3, 4, 5))), p)
    raw = bytearray(p.read_bytes())
    for i in (17, 59):  # the first one is named
        raw[36 + 4 * i:40 + 4 * i] = struct.pack("<f", bad)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"non-finite value {bad} at index "
                       r"17 \(at byte offset 104\)") as err:
        read_volume(p)
    assert err.value.offset == 36 + 4 * 17


def test_read_layout_with_a_label_above_nodule(tmp_path):
    p = tmp_path / "l.ldpv"
    write_layout(SemanticLayout(np.full((3, 4, 5), LUNG, np.uint8)), p)
    raw = bytearray(p.read_bytes())
    raw[36 + 9], raw[36 + 40] = 3, 255  # the first one is named
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"label 3 at index 9 outside "
                       r"\{0, 1, 2\} \(at byte offset 45\)") as err:
        read_layout(p)
    assert err.value.offset == 45


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("write,read", [
    (lambda p: write_volume(VoxelVolume(np.zeros((2, 2, 2))), p),
     read_volume),
    (lambda p: write_layout(SemanticLayout(np.zeros((2, 2, 2), np.uint8)), p),
     read_layout),
], ids=["volume", "layout"])
def test_read_spacing_that_is_not_positive_and_finite(tmp_path, axis, bad,
                                                      write, read):
    p = tmp_path / "g.ldpv"
    write(p)
    raw = bytearray(p.read_bytes())
    raw[24 + 4 * axis:28 + 4 * axis] = struct.pack("<f", bad)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"spacing {bad} on axis {axis} is "
                       "not positive and finite") as err:
        read(p)
    assert err.value.offset == 24 + 4 * axis


# -- misc --------------------------------------------------------------------


def test_make_phantom_deterministic():
    v1, l1 = make_phantom(42, (20, 20, 20))
    v2, l2 = make_phantom(42, (20, 20, 20))
    np.testing.assert_array_equal(v1.data, v2.data)
    np.testing.assert_array_equal(l1.labels, l2.labels)
    assert (l1.labels == LUNG).sum() > 0
    assert not l1.nodule_mask().any()
    assert v1.data.min() >= -1.0 and v1.data.max() <= 1.0


def test_make_phantom_roundtrips_f32(tmp_path):
    v, _ = make_phantom(3, (16, 16, 16))
    write_volume(v, tmp_path / "p.ldpv")
    np.testing.assert_array_equal(read_volume(tmp_path / "p.ldpv").data, v.data)


def _full_volume_phantom(seed, dims):
    """Reference phantom: lungs on a full meshgrid and every vessel tube
    tested on all voxels, with the same generator calls in the same
    order as :func:`make_phantom`."""
    rng = np.random.default_rng(seed)
    nz, ny, nx = dims
    z, y, x = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx),
                          indexing="ij")
    data = np.full(dims, 0.1, dtype=np.float64)
    data += 0.02 * rng.standard_normal(dims)
    labels = np.zeros(dims, dtype=np.uint8)
    for side in (-1.0, 1.0):
        cz = nz * (0.5 + 0.03 * rng.uniform(-1, 1))
        cy = ny * (0.5 + 0.03 * rng.uniform(-1, 1))
        cx = nx * (0.5 + side * (0.22 + 0.02 * rng.uniform(-1, 1)))
        az = nz * (0.38 + 0.03 * rng.uniform(-1, 1))
        ay = ny * (0.30 + 0.03 * rng.uniform(-1, 1))
        ax = nx * (0.16 + 0.02 * rng.uniform(-1, 1))
        inside = (((z - cz) / az) ** 2 + ((y - cy) / ay) ** 2
                  + ((x - cx) / ax) ** 2) <= 1.0
        data[inside] = -0.9 + 0.03 * rng.standard_normal(int(inside.sum()))
        labels[inside] = LUNG
    for _ in range(3 + int(rng.integers(0, 3))):
        p0 = rng.uniform([0, 0, 0], dims)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        rel = np.stack([z - p0[0], y - p0[1], x - p0[2]], axis=-1)
        along = rel @ d
        radial2 = (rel * rel).sum(axis=-1) - along ** 2
        tube = (radial2 <= rng.uniform(1.0, 2.5) ** 2) & (labels == LUNG)
        data[tube] = 0.5
    data = np.clip(data, -1.0, 1.0).astype(np.float32).astype(np.float64)
    return data, labels


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.tuples(*[st.integers(16, 40)] * 3))
@example(seed=0, dims=(96, 96, 96))
@example(seed=0, dims=(16, 96, 24))
@example(seed=0, dims=(40, 17, 64))
# Each draws a tube whose largest |d_a| is below 0.585, near 45 degrees to
# every axis (1/sqrt(3) = 0.577), so its windows are the widest.
@example(seed=841, dims=(24, 24, 24))
@example(seed=2872, dims=(24, 24, 24))
@example(seed=1851, dims=(16, 96, 24))
def test_make_phantom_bit_identical_to_full_volume_oracle(seed, dims):
    vol, lay = make_phantom(seed, dims)
    data, labels = _full_volume_phantom(seed, dims)
    assert np.array_equal(vol.data.view(np.uint64), data.view(np.uint64))
    assert np.array_equal(lay.labels, labels)


def test_make_phantom_memory_peak():
    # Full-volume tube tests through (N, 3) temporaries peaked at ~109 MB,
    # and full-volume lung tests at ~25 MB; the output is ~8 MB.
    make_phantom(0, (16, 16, 16))
    tracemalloc.start()
    try:
        make_phantom(0, (96, 96, 96))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_make_phantom_validation():
    with pytest.raises(ValueError):
        make_phantom(0, (8, 8, 8))
    for dims in [(16.5, 16, 16), (16.9, 16, 16), ("x", 16, 16),
                 (16, 16.0, 16), (16, 16), (16, 16, 16, 16)]:
        with pytest.raises(ValidationError, match="phantom dims must be"):
            make_phantom(0, dims)
