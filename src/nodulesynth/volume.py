"""Voxel volumes, semantic layouts, crop geometry, phantoms and binary I/O.

Intensities live in normalized units in [-1, 1].  Voxel order is z-major
(z outermost, x innermost) everywhere, which fixes the byte order of the
binary format.

Binary files (little-endian) open with magic and u32 version=1
(:func:`write_binary`).  Volumes and layouts (magic ``LDPV``) then hold
u32 dtype (0 = f32 intensities, 1 = u8 labels), u32 x 3 dims (nz, ny,
nx), f32 x 3 spacing in mm and the payload in z-major order, with
intensities as f32: values that originate from f32 round-trip exactly.
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
_DTYPES = {_DTYPE_F32: "<f4", _DTYPE_U8: "u1"}
_HEADER = struct.Struct("<4sIIIIIfff")


def _set_grid(grid, name, dtype, what):
    """Set ``grid``'s field ``name`` to a read-only ``dtype`` view (no
    copy; the caller's array stays writable) and its spacing to 3 floats,
    or raise ValidationError unless the view (``what``) is 3D and the
    spacing 3 positive finite numbers.  Returns the view."""
    arr = np.asarray(getattr(grid, name), dtype=dtype).view()
    if arr.ndim != 3:
        raise ValidationError(f"{what} must be 3D, got shape {arr.shape}")
    spacing = tuple(float(s) for s in grid.spacing)
    if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
        raise ValidationError(f"spacing must be 3 positive finite floats, got {grid.spacing}")
    arr.setflags(write=False)
    object.__setattr__(grid, name, arr)
    object.__setattr__(grid, "spacing", spacing)
    return arr


@dataclass(frozen=True)
class VoxelVolume:
    """A 3D scalar field with physical voxel spacing.

    data: float64 array of shape (nz, ny, nx); spacing: (sz, sy, sx) mm.
    """

    data: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        data = _set_grid(self, "data", np.float64, "volume data")
        if not np.all(np.isfinite(data)):
            raise ValidationError("volume data contains non-finite values")

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
        labels = _set_grid(self, "labels", np.uint8, "layout labels")
        if labels.size and labels.max() > NODULE:
            raise ValidationError("layout labels must be in {0, 1, 2}")
        cut = tuple((bool(lo), bool(hi)) for lo, hi in self.cut)
        if len(cut) != 3:
            raise ValidationError(f"cut must be 3 (low, high) pairs, got {self.cut}")
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
        if not (len(self.origin) == len(self.size) == 3
                and all(map(is_int, (*self.origin, *self.size)))):
            raise ValidationError(f"origin and size must be integers, 3 each, "
                                  f"got {self.origin!r}, {self.size!r}")
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


def write_binary(path, head, magic, fields, payload):
    """Write ``head`` packed from ``magic``, version 1 and ``fields``,
    then ``payload``'s bytes in C order."""
    with open(path, "wb") as fh:
        fh.write(head.pack(magic, _VERSION, *fields))
        fh.write(payload.tobytes())


def read_binary(path, head, magic, dtype, count):
    """(header fields after magic and version, payload as ``dtype``) of a
    :func:`write_binary` file; ``count(fields)`` is the payload's item
    count.  Raises FormatError for a short header, another magic or
    version, or a payload of another size."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < head.size:
        raise FormatError(f"truncated header: {len(raw)} bytes", offset=len(raw))
    got, version, *fields = head.unpack_from(raw)
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}", offset=0)
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    expected = head.size + count(fields) * np.dtype(dtype).itemsize
    if len(raw) != expected:
        raise FormatError(f"payload size mismatch: expected {expected} bytes "
                          f"total, got {len(raw)}", offset=head.size)
    return fields, np.frombuffer(raw, dtype, offset=head.size)


def _read(path, dtype_code):
    def count(fields):
        got, nz, ny, nx = fields[:4]
        if got != dtype_code:
            raise FormatError(f"dtype code {got}, expected {dtype_code}", offset=8)
        if not 0 < nz * ny * nx <= 2 ** 31:
            raise FormatError(f"dimension overflow: {(nz, ny, nx)}", offset=12)
        return nz * ny * nx

    (_, *dims, sz, sy, sx), payload = read_binary(
        path, _HEADER, _MAGIC, _DTYPES[dtype_code], count)
    return payload.reshape(dims), (sz, sy, sx)


def write_volume(v, path):
    write_binary(path, _HEADER, _MAGIC, (_DTYPE_F32, *v.dims, *v.spacing),
                 v.data.astype("<f4"))


def read_volume(path):
    arr, spacing = _read(path, _DTYPE_F32)
    return VoxelVolume(arr.astype(np.float64), spacing)


def write_layout(layout, path):
    write_binary(path, _HEADER, _MAGIC, (_DTYPE_U8, *layout.dims,
                                         *layout.spacing), layout.labels)


def read_layout(path):
    arr, spacing = _read(path, _DTYPE_U8)
    return SemanticLayout(arr.copy(), spacing)
