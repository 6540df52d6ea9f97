"""Sampler efficiency in four currencies.

NFE (exact), an analytic FLOPs estimate, wall time, and a peak heap
allocation proxy.  The headline structural facts: doubling the edge of
a cube multiplies convolutional FLOPs by exactly 8, and the 50-step
multistep sampler consumes 51 evaluations where the ancestral baseline
needs 1000.
"""

import numpy as np

from nodulesynth import (AnalyticGaussianPredictor, SolverConfig, VoxelVolume,
                         ancestral_solve, compare, dpm_solve, estimate_flops,
                         make_schedule, make_time_grid, run_bench)
from nodulesynth.bench import BenchConfig, format_table, tiny_conv_arch

arch = tiny_conv_arch()
print(f"FLOPs/eval at 64^3:  {estimate_flops(arch, (64,) * 3):.3e}")
print(f"FLOPs/eval at 128^3: {estimate_flops(arch, (128,) * 3):.3e}  "
      f"(ratio {estimate_flops(arch, (128,) * 3) / estimate_flops(arch, (64,) * 3)})")

s = make_schedule("cosine", 1000)
dims = (24, 24, 24)


def ancestral_run(seed):
    rng = np.random.default_rng(seed)
    p = AnalyticGaussianPredictor(0.0, 1.0, s)
    grid = make_time_grid(s, SolverConfig(method="ancestral", steps=1000))
    ancestral_solve(VoxelVolume(rng.standard_normal(dims)), grid, p, None, s,
                    rng)
    return p.eval_count


def dpm_run(seed):
    rng = np.random.default_rng(seed)
    p = AnalyticGaussianPredictor(0.0, 1.0, s)
    grid = make_time_grid(s, SolverConfig(steps=50))
    dpm_solve(VoxelVolume(rng.standard_normal(dims)), grid, 2, p, None, s)
    return p.eval_count


reports = [
    run_bench(BenchConfig(name="ancestral-1000", dims=dims, run=ancestral_run),
              n_trials=3),
    run_bench(BenchConfig(name="dpm2-50", dims=dims, run=dpm_run), n_trials=3),
]
print()
print(format_table(reports))
row = compare(reports, baseline=0)[1]
print(f"\ndpm2-50 vs ancestral: {row['nfe_ratio']:.1f}x fewer evaluations, "
      f"{row['speed_ratio']:.1f}x wall-clock speedup")
