"""Efficiency benchmark harness on the real pipeline.

A row times sequential :func:`~nodulesynth.eaas.run_eaas` requests and
reads NFE and the conv FLOPs actually evaluated from their provenance,
so its predictor must count FLOPs (the tiny conv net).  Peak heap
allocation, the tracemalloc high-water mark, comes from one untimed
request: no timed trial runs under tracing.
"""

import csv
import time
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from .eaas import run_eaas
from .errors import NoduleSynthError, ValidationError
from .predictor import TinyConvPredictor
from .schedule import check_int


@dataclass(frozen=True)
class ConvLayerSpec:
    """One 3^3 convolution layer of a fully convolutional predictor."""

    in_ch: int
    out_ch: int


def tiny_conv_arch():
    """Layer descriptor of :class:`~nodulesynth.TinyConvPredictor`."""
    return tuple(ConvLayerSpec(shape[1], shape[0])
                 for name, shape in TinyConvPredictor.SHAPES
                 if name.startswith("w"))


def estimate_flops(arch, dims):
    """Analytic FLOPs of one forward pass at the given dims.

    Per same-padded 3^3 conv layer: 2 * 27 * C_in * C_out * voxel count
    (multiply-add counted as two operations).
    """
    n_vox = int(np.prod(dims))
    return sum(2 * 27 * layer.in_ch * layer.out_ch * n_vox for layer in arch)


@dataclass(frozen=True)
class BenchReport:
    config: str
    nfe: int
    eval_flops: float  # the mean over the trials' provenance
    wall_mean_s: float
    wall_std_s: float
    peak_alloc_bytes: int
    trials: int


def _traced_peak(request):
    """Peak bytes one ``run_eaas(request)`` allocates above the live ones."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run_eaas(request)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def run_bench(name, request, n_trials=10, warmup=1):
    """Time ``n_trials`` sequential requests after ``warmup`` untimed
    ones; request ``k`` runs at seed ``request.seed + k``.

    The last warm-up is traced for the peak allocation; without one, the
    first successful trial's seed runs again, traced, after the timed
    ones.  A trial that raises a ``NoduleSynthError`` (a
    ``ValidationError`` included) is skipped, and the report needs one
    success.  Any other exception is a bug and propagates.
    """
    check_int("n_trials", n_trials, 1)
    check_int("warmup", warmup, 0)

    def seeded(k):
        return replace(request, seed=request.seed + k)

    for k in range(warmup - 1):
        run_eaas(seeded(k))
    peak = _traced_peak(seeded(warmup - 1)) if warmup else None

    times, provenances, failures = [], [], []
    for i in range(n_trials):
        t0 = time.perf_counter()
        try:
            result = run_eaas(seeded(warmup + i))
        except NoduleSynthError as err:
            failures.append(f"trial {i}: {type(err).__name__}: {err}")
            continue
        times.append(time.perf_counter() - t0)
        provenances.append(result.provenance)
    if not times:
        raise NoduleSynthError(
            f"all {n_trials} trials of {name!r} failed: {failures}")
    if peak is None:
        peak = _traced_peak(replace(request, seed=provenances[0]["seed"]))
    return BenchReport(
        config=name, nfe=int(provenances[0]["nfe"]),
        eval_flops=float(np.mean([p["eval_flops"] for p in provenances])),
        wall_mean_s=float(np.mean(times)),
        wall_std_s=float(np.std(times, ddof=1)) if len(times) > 1 else 0.0,
        peak_alloc_bytes=int(peak), trials=len(times))


def compare(reports):
    """Ratio table of every report against the first, the baseline row.

    Ratios are baseline / row, so larger means the row is cheaper.
    """
    if len(reports) < 2:
        raise ValidationError("need at least 2 reports to compare")
    base = reports[0]
    return [{
        "config": rep.config,
        "nfe_ratio": base.nfe / rep.nfe,
        "flops_ratio": base.eval_flops / rep.eval_flops,
        "speed_ratio": base.wall_mean_s / rep.wall_mean_s,
        "alloc_ratio": base.peak_alloc_bytes / rep.peak_alloc_bytes,
    } for rep in reports]


# (header, format) per column, shared by the CSV and the table.
_COLUMNS = (("config", "{}"), ("nfe", "{}"), ("eval_flops", "{:.4e}"),
            ("wall_mean_s", "{:.6f}"), ("wall_std_s", "{:.6f}"),
            ("peak_alloc_bytes", "{}"), ("trials", "{}"))


def _cells(report):
    return [fmt.format(getattr(report, name)) for name, fmt in _COLUMNS]


def write_report_csv(reports, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(name for name, _ in _COLUMNS)
        writer.writerows(_cells(r) for r in reports)


def format_table(reports):
    """Human-readable aligned table."""
    rows = [[name for name, _ in _COLUMNS]] + [_cells(r) for r in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(_COLUMNS))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths))
                     for row in rows)
