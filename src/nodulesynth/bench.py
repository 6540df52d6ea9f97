"""Efficiency benchmark harness.

Reports four currencies per sampler configuration: NFE (predictor
evaluations, exact), wall time (monotonic clock, mean/std over trials),
an analytic FLOPs estimate for fully convolutional predictors, and a
peak heap-allocation proxy (tracemalloc high-water mark; stands in for
accelerator memory since this artifact is accelerator-agnostic).
Timed trials run strictly sequentially; the harness never runs trials
concurrently.
"""

import csv
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from .errors import NoduleSynthError


@dataclass(frozen=True)
class ConvLayerSpec:
    """One 3^3 convolution layer of a fully convolutional predictor."""

    in_ch: int
    out_ch: int


def tiny_conv_arch():
    """Layer descriptor of :class:`~nodulesynth.TinyConvPredictor`."""
    return (ConvLayerSpec(2, 8), ConvLayerSpec(8, 8), ConvLayerSpec(8, 1))


def estimate_flops(arch, dims):
    """Analytic FLOPs of one forward pass at the given dims.

    Per same-padded 3^3 conv layer: 2 * 27 * C_in * C_out * voxel count
    (multiply-add counted as two operations).
    """
    n_vox = int(np.prod(dims))
    return sum(2 * 27 * layer.in_ch * layer.out_ch * n_vox for layer in arch)


@dataclass(frozen=True)
class BenchConfig:
    """A runnable sampler configuration.

    ``run`` executes one full sampling chain for a trial seed and
    returns the NFE it consumed.  ``dims`` are the volume dims the
    FLOPs estimate is accounted at; ``timed_dims`` (when different)
    records the dims the wall-clock run actually used, for proxy rows.
    """

    name: str
    dims: tuple
    run: callable
    arch: tuple = field(default_factory=tiny_conv_arch)
    timed_dims: tuple = None


@dataclass(frozen=True)
class BenchReport:
    config: str
    dims: tuple
    nfe: int
    wall_mean_s: float
    wall_std_s: float
    est_flops_per_eval: int
    est_flops_chain: int
    peak_alloc_bytes: int
    trials: int
    timed_dims: tuple


def run_bench(cfg, n_trials=10, warmup=1):
    """Warm up, then time ``n_trials`` sequential solves.

    The report is emitted if at least one trial succeeds; a trial that
    raises a library error (``NoduleSynthError`` or ``ValueError``) is
    recorded and skipped.  Any other exception is a bug and propagates.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    for i in range(warmup):
        cfg.run(i)

    times, nfes, peaks, failures = [], [], [], []
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for i in range(n_trials):
            tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                nfe = cfg.run(warmup + i)
            except (NoduleSynthError, ValueError) as err:
                failures.append(f"trial {i}: {type(err).__name__}: {err}")
                continue
            times.append(time.perf_counter() - t0)
            nfes.append(nfe)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        if not tracing:
            tracemalloc.stop()

    if not times:
        raise NoduleSynthError(
            f"all {n_trials} trials of {cfg.name!r} failed: {failures}")
    nfe = nfes[0]
    per_eval = estimate_flops(cfg.arch, cfg.dims)
    return BenchReport(
        config=cfg.name, dims=tuple(cfg.dims), nfe=int(nfe),
        wall_mean_s=float(np.mean(times)),
        wall_std_s=float(np.std(times, ddof=1)) if len(times) >= 3 else 0.0,
        est_flops_per_eval=per_eval,
        est_flops_chain=per_eval * int(nfe),
        peak_alloc_bytes=int(max(peaks)),
        trials=len(times), timed_dims=tuple(cfg.timed_dims or cfg.dims))


def compare(reports, baseline=0):
    """Ratio table of every report against a designated baseline row.

    Ratios are baseline / row, so larger means the row is cheaper.  The
    combined cost ratio is the chain-FLOPs ratio (voxel ratio x NFE
    ratio for a shared architecture).  Rows measured at different dims
    are allowed (that is the point) and noted.
    """
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    base = reports[baseline]
    return [{
        "config": rep.config,
        "nfe_ratio": base.nfe / rep.nfe,
        "flops_ratio": base.est_flops_per_eval / rep.est_flops_per_eval,
        "cost_ratio": base.est_flops_chain / rep.est_flops_chain,
        "speed_ratio": base.wall_mean_s / rep.wall_mean_s,
        "alloc_ratio": base.peak_alloc_bytes / rep.peak_alloc_bytes,
        "dims_differ": tuple(rep.dims) != tuple(base.dims),
    } for rep in reports]


def write_report_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "dims", "nfe", "est_flops_per_eval",
                         "est_flops_chain", "wall_mean_s", "wall_std_s",
                         "peak_alloc_bytes", "trials", "timed_dims"])
        for r in reports:
            writer.writerow([
                r.config, "x".join(str(d) for d in r.dims), r.nfe,
                r.est_flops_per_eval, r.est_flops_chain,
                f"{r.wall_mean_s:.6f}", f"{r.wall_std_s:.6f}",
                r.peak_alloc_bytes, r.trials,
                "x".join(str(d) for d in r.timed_dims)])


def format_table(reports):
    """Human-readable aligned table."""
    headers = ["config", "dims", "nfe", "flops/eval", "flops/chain",
               "wall mean (s)", "wall std", "peak alloc (B)", "trials",
               "timed dims"]
    rows = [[r.config, "x".join(str(d) for d in r.dims), str(r.nfe),
             f"{r.est_flops_per_eval:.3e}", f"{r.est_flops_chain:.3e}",
             f"{r.wall_mean_s:.4f}", f"{r.wall_std_s:.4f}",
             str(r.peak_alloc_bytes), str(r.trials),
             "x".join(str(d) for d in r.timed_dims)] for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows))
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
