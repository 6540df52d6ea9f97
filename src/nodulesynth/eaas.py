"""End-to-end anatomically aware sampling.

One request turns a nodule-free reference volume plus its lung layout
into a full volume carrying one synthetic nodule and the matching
label map: sample a nodule spec and a healthy crop, diffuse the cropped
reference patch up to the start level, splice fresh noise under the
nodule mask, run the mask-conditioned solver down to a clean patch, and
paste the patch back at the exact crop coordinates.  The emitted
(volume, layout) pair is self-labeling by construction.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import NoduleSynthError, PlacementError
from .forward import invert_reference, masked_mix
from .layout import (LayoutConfig, pick_healthy_crop, place_nodule,
                     sample_nodule_spec)
from .schedule import is_int
from .solver import (SolverConfig, counted_request, eval_region, expected_nfe,
                     pulmonary_solve)
from .volume import NODULE, SemanticLayout, VoxelVolume, crop, paste

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
        size = self.patch_size
        if (not isinstance(size, (tuple, list)) or len(size) != 3
                or not all(is_int(v) and v > 0 for v in size)):
            raise ValueError(f"patch size must be 3 positive integers, got "
                             f"{size!r}")
        object.__setattr__(self, "patch_size", tuple(int(v) for v in size))
        if self.lung_layout.dims != self.reference.dims:
            raise ValueError(
                f"layout dims {self.lung_layout.dims} != reference dims "
                f"{self.reference.dims}")
        for sz, d in zip(self.patch_size, self.reference.dims):
            if sz > d:
                raise ValueError(
                    f"patch size {self.patch_size} exceeds reference dims "
                    f"{self.reference.dims}")


@dataclass(frozen=True)
class EaasResult:
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


@counted_request()
def run_eaas(req):
    """Execute one synthesis request; deterministic given the seed when
    gamma = 0."""
    started = time.perf_counter()
    rng = np.random.default_rng(req.seed)
    s = req.schedule
    cfg = req.solver
    layout_cfg = req.layout_cfg if req.layout_cfg is not None \
        else _default_layout_cfg(req)

    region = pick_healthy_crop(req.lung_layout, req.lung_layout,
                               req.patch_size, rng)
    ref_patch = crop(req.reference, region)
    lung_patch = crop(req.lung_layout, region)

    m = None
    last_err = None
    for _ in range(_PLACEMENT_RETRIES):
        spec = sample_nodule_spec(layout_cfg, rng)
        try:
            m = place_nodule(spec, lung_patch, ref_patch.spacing, rng)
            break
        except PlacementError as err:
            last_err = err
    if m is None:
        raise PlacementError(
            f"no placeable nodule spec after {_PLACEMENT_RETRIES} resamples: "
            f"{last_err}")

    t_start = s.T if cfg.t_start is None else int(cfg.t_start)
    eps = VoxelVolume(rng.standard_normal(ref_patch.dims), ref_patch.spacing)
    carrier = invert_reference(ref_patch, t_start, eps, s)
    noise = VoxelVolume(rng.standard_normal(ref_patch.dims), ref_patch.spacing)
    x_init = masked_mix(carrier, noise, m)
    del eps, carrier, noise  # full-patch arrays, freed before the solve

    patch = pulmonary_solve(x_init, ref_patch, m, req.predictor, cfg, rng, s)

    full_volume = paste(req.reference, patch, region)
    full_layout = paste(req.lung_layout, m, region)
    evaluated = eval_region(m, cfg)
    nfe = expected_nfe(cfg.method, cfg.steps)
    # Predictors that count their FLOPs (the tiny conv net) expose them.
    flops = getattr(req.predictor, "flops", None)
    provenance = {
        "seed": int(req.seed),
        "nfe": nfe,
        "eval_flops": None if flops is None else nfe * flops(
            evaluated.size, evaluated.cut_faces(m.dims)),
        "wall_time_s": time.perf_counter() - started,
        "crop_origin": list(region.origin),
        "crop_size": list(region.size),
        "nodule_voxels": int((m.labels == NODULE).sum()),
        "eval_origin": list(evaluated.origin),
        "eval_size": list(evaluated.size),
        "eval_voxels": int(np.prod(evaluated.size)),
    }
    return EaasResult(full_volume=full_volume, full_layout=full_layout,
                      crop=region, patch=patch, provenance=provenance)


@dataclass(frozen=True)
class BatchItem:
    request: EaasRequest
    result: EaasResult = None
    error: str = None


def run_batch(requests, parallelism=1):
    """Run independent requests, order-aligned with the input.

    Each item is identical to a standalone :func:`run_eaas` with the
    same seed regardless of ``parallelism``; per-request failures
    (``NoduleSynthError`` or ``ValueError``) are captured in the item
    instead of aborting the batch.  Any other exception is a bug and
    propagates.
    """
    requests = list(requests)
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")

    def one(req):
        try:
            return BatchItem(request=req, result=run_eaas(req))
        except (NoduleSynthError, ValueError) as err:
            return BatchItem(request=req, error=f"{type(err).__name__}: {err}")

    if parallelism == 1 or len(requests) <= 1:
        return [one(req) for req in requests]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(one, requests))


def write_provenance(result, path):
    with open(path, "w") as fh:
        json.dump(result.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")
