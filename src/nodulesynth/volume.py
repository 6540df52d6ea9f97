"""Voxel volumes, semantic layouts, crop geometry, phantoms and binary I/O.

Intensities live in normalized units in [-1, 1].  Voxel order is z-major
(z outermost, x innermost) everywhere, which fixes the byte order of the
binary format.

Binary format (little-endian): magic ``LDPV``, u32 version=1, u32 dtype
(0 = f32 intensities, 1 = u8 labels), u32 x 3 dims (nz, ny, nx),
f32 x 3 spacing in mm, then the payload in z-major order.  Intensities
are stored as f32, so volumes whose in-memory values originate from f32
round-trip bit-exactly.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .schedule import check_seed, is_int

BACKGROUND, LUNG, NODULE = 0, 1, 2

_MAGIC = b"LDPV"
_VERSION = 1
_DTYPE_F32, _DTYPE_U8 = 0, 1
_HEADER = struct.Struct("<4sIIIIIfff")


@dataclass(frozen=True)
class VoxelVolume:
    """A 3D scalar field with physical voxel spacing.

    data: float64 array of shape (nz, ny, nx); spacing: (sz, sy, sx) mm.
    """

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        # A read-only view: no copy, and the caller's array stays writable.
        data = np.asarray(self.data, dtype=np.float64).view()
        if data.ndim != 3:
            raise ValidationError(f"volume data must be 3D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValidationError("volume data contains non-finite values")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
            raise ValidationError(f"spacing must be 3 positive finite floats, got {self.spacing}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self):
        return self.data.shape


# Per axis (z, y, x): whether the (low, high) face is cut (see SemanticLayout).
NO_CUT = ((False, False),) * 3


@dataclass(frozen=True)
class SemanticLayout:
    """Per-voxel labels: 0 background, 1 lung, 2 nodule.

    ``cut`` marks, per axis, the (low, high) faces where the layout was
    cut out of the patch being sampled (:meth:`CropRegion.cut_faces`)
    rather than lying on its border.  As a predictor condition it says
    that only output voxels at least ``HALO`` voxels from every cut face
    are needed (see ``NoisePredictor``).
    """

    labels: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    cut: tuple = NO_CUT

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.uint8).view()
        if labels.ndim != 3:
            raise ValidationError(f"layout labels must be 3D, got shape {labels.shape}")
        if labels.size and labels.max() > NODULE:
            raise ValidationError("layout labels must be in {0, 1, 2}")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
            raise ValidationError(f"spacing must be 3 positive finite floats, got {self.spacing}")
        cut = tuple((bool(lo), bool(hi)) for lo, hi in self.cut)
        if len(cut) != 3:
            raise ValidationError(f"cut must be 3 (low, high) pairs, got {self.cut}")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "cut", cut)

    @property
    def dims(self):
        return self.labels.shape

    def nodule_mask(self):
        return self.labels == NODULE


@dataclass(frozen=True)
class CropRegion:
    """An axis-aligned box in voxel indices: origin (z, y, x), size (dz, dy, dx)."""

    origin: tuple
    size: tuple

    def __post_init__(self):
        if not all(map(is_int, (*self.origin, *self.size))):
            raise ValidationError(f"origin and size must be integers, got "
                                  f"{self.origin!r}, {self.size!r}")
        origin = tuple(int(v) for v in self.origin)
        size = tuple(int(v) for v in self.size)
        if any(v < 0 for v in origin):
            raise ValidationError(f"origin must be non-negative, got {origin}")
        if any(v <= 0 for v in size):
            raise ValidationError(f"size must be positive, got {size}")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "size", size)

    def slices(self):
        return tuple(slice(o, o + s) for o, s in zip(self.origin, self.size))

    def cut_faces(self, dims):
        """Per axis, whether the (low, high) face of the box lies inside
        a volume of ``dims`` rather than on its border."""
        return tuple((o > 0, o + s < d)
                     for o, s, d in zip(self.origin, self.size, dims))

    def validate_within(self, dims):
        if any(o + s > d for o, s, d in zip(self.origin, self.size, dims)):
            raise ValidationError(
                f"region origin={self.origin} size={self.size} "
                f"exceeds parent dims {tuple(dims)}")


def crop(v, r):
    """Extract the subvolume (or sublayout) covered by ``r``."""
    r.validate_within(v.dims)
    if isinstance(v, SemanticLayout):
        return SemanticLayout(v.labels[r.slices()].copy(), v.spacing)
    return VoxelVolume(v.data[r.slices()].copy(), v.spacing)


def paste(parent, patch, r):
    """Return a copy of ``parent`` with ``patch`` written into region ``r``."""
    r.validate_within(parent.dims)
    if patch.dims != r.size:
        raise ValidationError(f"patch dims {patch.dims} != region size {r.size}")
    if isinstance(parent, SemanticLayout):
        labels = parent.labels.copy()
        labels[r.slices()] = patch.labels
        return SemanticLayout(labels, parent.spacing)
    data = parent.data.copy()
    data[r.slices()] = patch.data
    return VoxelVolume(data, parent.spacing)


def make_phantom(seed, dims):
    """Procedural synthetic thorax: soft-tissue background (~0.1), two
    ellipsoidal low-intensity lung fields (~-0.9), and a few bright
    tube structures as vessel proxies (~0.5).

    A tube only relabels lung voxels, so each tube is tested on the lung
    voxels alone.  Returns (VoxelVolume, SemanticLayout) with lung
    voxels labeled.  Deterministic given the seed.
    """
    if len(dims) != 3 or not all(is_int(d) and d >= 16 for d in dims):
        raise ValidationError(
            f"phantom dims must be integers >= (16, 16, 16), got {dims!r}")
    dims = tuple(int(d) for d in dims)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    nz, ny, nx = dims
    z, y, x = np.ogrid[:nz, :ny, :nx]

    data = np.full(dims, 0.1, dtype=np.float64)
    data += 0.02 * rng.standard_normal(dims)
    labels = np.zeros(dims, dtype=np.uint8)

    # Two lungs, mirrored about the mid-sagittal plane, with jittered
    # centers and semi-axes.
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

    # Vessel proxies: bright tubes through the lung fields.
    lung = np.nonzero(labels == LUNG)
    n_tubes = 3 + int(rng.integers(0, 3))
    for _ in range(n_tubes):
        p0 = rng.uniform([0, 0, 0], dims)
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        rel = np.stack([i - c for i, c in zip(lung, p0)], axis=-1)
        along = rel @ d
        radial2 = (rel * rel).sum(axis=-1) - along ** 2
        tube = radial2 <= rng.uniform(1.0, 2.5) ** 2
        data[tuple(i[tube] for i in lung)] = 0.5

    np.clip(data, -1.0, 1.0, out=data)
    # Round through f32 so phantoms round-trip the binary format exactly.
    data[...] = data.astype(np.float32)
    return VoxelVolume(data, (1.0, 1.0, 1.0)), SemanticLayout(labels, (1.0, 1.0, 1.0))


def _write(path, arr, spacing, dtype_code):
    nz, ny, nx = arr.shape
    header = _HEADER.pack(_MAGIC, _VERSION, dtype_code, nz, ny, nx, *spacing)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes(order="C"))


def _read(path, expect_dtype):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"truncated header: {len(raw)} bytes", offset=len(raw))
    magic, version, dtype_code, nz, ny, nx, sz, sy, sx = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}", offset=0)
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if dtype_code != expect_dtype:
        raise FormatError(
            f"dtype code {dtype_code}, expected {expect_dtype}", offset=8)
    n_vox = nz * ny * nx
    if n_vox <= 0 or n_vox > 2 ** 31:
        raise FormatError(f"dimension overflow: {(nz, ny, nx)}", offset=12)
    itemsize = 4 if dtype_code == _DTYPE_F32 else 1
    expected = _HEADER.size + n_vox * itemsize
    if len(raw) != expected:
        raise FormatError(
            f"payload size mismatch: expected {expected} bytes total "
            f"for dims {(nz, ny, nx)}, got {len(raw)}", offset=_HEADER.size)
    np_dtype = np.dtype("<f4") if dtype_code == _DTYPE_F32 else np.dtype("u1")
    payload = np.frombuffer(raw, dtype=np_dtype, offset=_HEADER.size)
    return payload.reshape(nz, ny, nx), (sz, sy, sx)


def write_volume(v, path):
    _write(path, v.data.astype("<f4"), v.spacing, _DTYPE_F32)


def read_volume(path):
    arr, spacing = _read(path, _DTYPE_F32)
    return VoxelVolume(arr.astype(np.float64), spacing)


def write_layout(layout, path):
    _write(path, layout.labels, layout.spacing, _DTYPE_U8)


def read_layout(path):
    arr, spacing = _read(path, _DTYPE_U8)
    return SemanticLayout(arr.copy(), spacing)
