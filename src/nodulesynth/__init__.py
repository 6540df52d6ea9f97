"""Mask-conditioned 3D diffusion synthesis of lung nodules.

A desk-scale, fully self-contained pipeline: diffusion coefficient
schedules, voxel volumes with bit-exact binary I/O, forward diffusion,
noise predictors (an analytic Gaussian oracle and a tiny trainable
conv net), an exponential-integrator sampler with per-step background
blending, rule-based ellipsoid nodule layouts, the end-to-end
anatomically aware sampling pipeline, and an efficiency benchmark
harness.
"""

from .schedule import NoiseSchedule, make_schedule
from .volume import (
    CropRegion,
    SemanticLayout,
    VoxelVolume,
    crop,
    make_phantom,
    paste,
    read_layout,
    read_volume,
    write_layout,
    write_volume,
)
from .forward import NoisyState, invert_reference, masked_mix, q_sample
from .predictor import (
    AnalyticGaussianPredictor,
    NoisePredictor,
    TinyConvPredictor,
    train,
    train_step,
)
from .solver import (
    SolverConfig,
    TimeGrid,
    ancestral_solve,
    ancestral_step,
    dpm_solve,
    expected_nfe,
    grid_from_times,
    make_time_grid,
    pulmonary_solve,
)
from .layout import (
    EllipsoidSpec,
    LayoutConfig,
    pick_healthy_crop,
    place_nodule,
    sample_nodule_spec,
)
from .eaas import EaasRequest, EaasResult, run_batch, run_eaas
from .bench import BenchReport, compare, estimate_flops, run_bench

__all__ = [
    "NoiseSchedule",
    "make_schedule",
    "VoxelVolume",
    "SemanticLayout",
    "CropRegion",
    "crop",
    "paste",
    "make_phantom",
    "read_volume",
    "write_volume",
    "read_layout",
    "write_layout",
    "NoisyState",
    "q_sample",
    "invert_reference",
    "masked_mix",
    "NoisePredictor",
    "AnalyticGaussianPredictor",
    "TinyConvPredictor",
    "train",
    "train_step",
    "SolverConfig",
    "TimeGrid",
    "make_time_grid",
    "grid_from_times",
    "dpm_solve",
    "ancestral_solve",
    "ancestral_step",
    "expected_nfe",
    "pulmonary_solve",
    "LayoutConfig",
    "EllipsoidSpec",
    "sample_nodule_spec",
    "place_nodule",
    "pick_healthy_crop",
    "EaasRequest",
    "EaasResult",
    "run_eaas",
    "run_batch",
    "BenchReport",
    "estimate_flops",
    "run_bench",
    "compare",
]

__version__ = "0.1.0"
