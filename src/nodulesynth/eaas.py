"""End-to-end anatomically aware sampling.

One request turns a nodule-free reference volume plus its lung layout
into a full volume carrying one synthetic nodule and the matching
label map: sample a healthy crop and a nodule spec placed in it, then
work on the box of the patch that the solver evaluates
(:func:`~nodulesynth.solver.eval_region`) only; no other module cuts
to it.  The initial state is built on that box: the reference cut to it
is diffused up to the start level, and fresh noise is spliced in under
the nodule mask.  The solver samples exactly that box down to clean
data, and the box is pasted once into a copy of the reference at its
exact coordinates.  Every noise draw is still made at full-patch shape,
into one reused buffer, so the bytes equal sampling the whole patch:
one :class:`BoxNoise` per request makes them all, one ahead on the
spare-core worker while a core is idle.  Every result is checked for
fusion locality before it is returned.  The emitted (volume, layout)
pair is self-labeling by construction.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NoduleSynthError, PlacementError, ValidationError
from .forward import invert_reference, masked_mix
from .layout import (LayoutConfig, pick_healthy_crop, place_nodule,
                     sample_nodule_spec)
from .schedule import check_int, check_seed, is_int
from .solver import (SolverConfig, eval_region, expected_nfe,
                     make_time_grid, noise_draws, pulmonary_solve,
                     start_time)
from .spare import counted_request, settle, submit
from .volume import (NODULE, CropRegion, SemanticLayout, VoxelVolume, crop,
                     paste)

_PLACEMENT_RETRIES = 25


@dataclass(frozen=True)
class EaasRequest:
    reference: VoxelVolume
    lung_layout: SemanticLayout
    predictor: object
    schedule: object
    solver: SolverConfig = field(default_factory=SolverConfig)
    layout_cfg: LayoutConfig = None
    patch_size: tuple = (64, 64, 64)
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)
        size = self.patch_size
        if (not isinstance(size, (tuple, list)) or len(size) != 3
                or not all(is_int(v) and v > 0 for v in size)):
            raise ValidationError(
                f"patch size must be 3 positive integers, got {size!r}")
        object.__setattr__(self, "patch_size", tuple(int(v) for v in size))
        if self.lung_layout.dims != self.reference.dims:
            raise ValidationError(
                f"layout dims {self.lung_layout.dims} != reference dims "
                f"{self.reference.dims}")
        if any(sz > d for sz, d in zip(self.patch_size, self.reference.dims)):
            raise ValidationError(
                f"patch size {self.patch_size} exceeds reference dims "
                f"{self.reference.dims}")
        start_time(self.schedule, self.solver)


@dataclass(frozen=True)
class EaasResult:
    """One fused output; ``patch`` is a read-only view of the ``crop``
    box of ``full_volume``, not a copy."""

    full_volume: VoxelVolume
    full_layout: SemanticLayout
    crop: object
    patch: VoxelVolume
    provenance: dict


def _default_layout_cfg(req):
    # Cap diameters so the nodule can physically fit inside the patch.
    patch_mm = min(sz * sp for sz, sp in
                   zip(req.patch_size, req.reference.spacing))
    return LayoutConfig(max_diameter_mm=0.8 * patch_mm)


def _verify_fusion_locality(result, reference, blend_mode):
    """Raise NoduleSynthError unless ``result`` left ``reference`` as it
    was where it promises to.

    Every mode leaves the volume outside the crop untouched; only
    ``per_step`` re-imposes the background, so only it promises that no
    voxel outside the nodule mask changes.  Voxels compare bit for bit,
    so a -0.0 that turns into +0.0 counts as a change.
    """
    box = result.crop.slices()
    changed = (result.full_volume.data.view(np.uint64)
               != reference.data.view(np.uint64))
    if np.count_nonzero(changed) != np.count_nonzero(changed[box]):
        raise NoduleSynthError("fusion locality violated outside the crop")
    if blend_mode == "per_step" and np.any(
            changed[box] & (result.full_layout.labels[box] != NODULE)):
        raise NoduleSynthError("voxels outside the nodule mask were modified")


class BoxNoise:
    """Generator view for a request on one box of a patch: it makes the
    ``count`` planned draws, each a full-patch ``rng.standard_normal``
    into one reused buffer, of which a copy of ``region`` is returned.

    The values are those of ``rng.standard_normal(dims)`` cut to the
    box, and ``rng`` advances the same, without a fresh patch-sized
    array per draw.  The draws run one ahead of the caller on the spare
    worker when a core is idle (see :func:`nodulesynth.spare.submit`):
    the next is submitted when the previous one is taken, so it overlaps
    the work in between.  Without an idle core nothing is submitted and
    each draw runs on the caller when it is needed, as does a submitted
    draw the worker has not started (a busy worker, a forked child).
    Either way they are the same calls on the same generator in the same
    order, so every value matches bit for bit.  At most one draw is in
    flight, so neither the generator nor the buffer is used by two
    threads at once; :meth:`close` waits for it.
    """

    def __init__(self, rng, dims, region, count):
        self._rng = rng
        self._buf = np.empty(dims)
        self._size = region.size
        self._slices = region.slices()
        self._left = count  # draws not yet taken, the one ahead included
        self._ahead = submit(self._draw) if count else None

    def _draw(self):
        self._rng.standard_normal(out=self._buf)
        return self._buf[self._slices].copy()

    def standard_normal(self, size):
        if tuple(size) != self._size:
            raise ValidationError(
                f"draw of shape {tuple(size)} != box size {self._size}")
        if not self._left:
            raise RuntimeError("noise draw beyond the request's noise plan")
        self._left -= 1
        ahead, self._ahead = self._ahead, None
        if ahead is None or ahead.cancel():  # not started: draw here
            draw = self._draw()
        else:
            draw = ahead.result()
        self._ahead = submit(self._draw) if self._left else None
        return draw

    def close(self):
        """Cancel the draw ahead if it has not started, else wait for it;
        no draw follows."""
        ahead, self._ahead = self._ahead, None
        settle(ahead)
        self._left = 0


@counted_request()
def run_eaas(req):
    """Execute one synthesis request; deterministic given the seed when
    gamma = 0.  When it returns or raises, no noise draw is in flight."""
    started = time.perf_counter()
    rng = np.random.default_rng(req.seed)
    s = req.schedule
    cfg = req.solver
    layout_cfg = req.layout_cfg if req.layout_cfg is not None \
        else _default_layout_cfg(req)

    region = pick_healthy_crop(req.lung_layout, req.lung_layout,
                               req.patch_size, rng)
    lung_patch = crop(req.lung_layout, region)

    m = None
    last_err = None
    for _ in range(_PLACEMENT_RETRIES):
        spec = sample_nodule_spec(layout_cfg, rng)
        try:
            m = place_nodule(spec, lung_patch, req.reference.spacing, rng)
            break
        except PlacementError as err:
            # Only the message: the traceback holds this frame, a cycle
            # that would keep the request's arrays until a full gc.
            last_err = str(err)
    if m is None:
        raise PlacementError(
            f"no placeable nodule spec after {_PLACEMENT_RETRIES} resamples: "
            f"{last_err}")

    # Everything from here to the paste is cut to the evaluated box.
    evaluated = eval_region(m, cfg)
    placed = CropRegion(np.add(region.origin, evaluated.origin),
                        evaluated.size)
    m_box = replace(crop(m, evaluated), cut=evaluated.cut_faces(m.dims))
    ref_box = crop(req.reference, placed)
    grid = make_time_grid(s, cfg)
    # The initial state's two draws, then the solve's.
    noise = BoxNoise(rng, m.dims, evaluated, 2 + noise_draws(grid, cfg, s))
    try:
        eps = VoxelVolume(noise.standard_normal(evaluated.size),
                          ref_box.spacing)
        carrier = invert_reference(ref_box, int(grid.ts[0]), eps, s)
        x_init = masked_mix(carrier, VoxelVolume(
            noise.standard_normal(evaluated.size), ref_box.spacing), m_box)
        box = pulmonary_solve(x_init, ref_box, m_box, req.predictor, cfg,
                              noise, s)
    finally:
        noise.close()
    del noise  # its patch buffer, freed before the output volume

    full_volume = paste(req.reference, box, placed)
    full_layout = paste(req.lung_layout, m, region)
    nfe = expected_nfe(cfg.method, cfg.steps)
    # Predictors that count their FLOPs (the tiny conv net) expose them.
    flops = getattr(req.predictor, "flops", None)
    provenance = {
        "seed": int(req.seed),
        "nfe": nfe,
        "eval_flops": None if flops is None else nfe * flops(
            evaluated.size, m_box.cut),
        "wall_time_s": time.perf_counter() - started,
        "crop_origin": list(region.origin),
        "crop_size": list(region.size),
        "nodule_voxels": int(np.count_nonzero(m_box.nodule_mask())),
        "eval_origin": list(evaluated.origin),
        "eval_size": list(evaluated.size),
        "eval_voxels": int(np.prod(evaluated.size)),
    }
    result = EaasResult(
        full_volume=full_volume, full_layout=full_layout, crop=region,
        patch=VoxelVolume(full_volume.data[region.slices()],
                          full_volume.spacing),
        provenance=provenance)
    _verify_fusion_locality(result, req.reference, cfg.blend_mode)
    return result


@dataclass(frozen=True)
class BatchItem:
    result: EaasResult = None
    error: str = None
    error_type: type = None  # a class: a kept error would pin its frames


def run_batch(requests, parallelism=1):
    """Run independent requests, order-aligned with the input.

    Each item is identical to a standalone :func:`run_eaas` with the
    same seed regardless of ``parallelism``; a request that raises a
    ``NoduleSynthError`` (a ``ValidationError`` included) is captured in
    its item (message and class) instead of aborting the batch.  Any
    other exception is a bug and propagates.
    """
    requests = list(requests)
    check_int("parallelism", parallelism, 1)

    def one(req):
        try:
            return BatchItem(result=run_eaas(req))
        except NoduleSynthError as err:
            return BatchItem(error=f"{type(err).__name__}: {err}",
                             error_type=type(err))

    if parallelism == 1 or len(requests) <= 1:
        return [one(req) for req in requests]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(one, requests))


def write_provenance(result, path):
    with open(path, "w") as fh:
        json.dump(result.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
