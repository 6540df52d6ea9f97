"""Time one request's cost against the size of its reference and write
BENCH_reference_size.json.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/bench_reference_size.py \
        --out BENCH_reference_size.json

For each reference edge (96, 192 and 256 by default) it builds the
phantom ``make_phantom(0, (edge,) * 3)``, once traced and once timed,
then runs :func:`nodulesynth.bench.run_bench` on it: the tiny conv net,
the dpm2 multistep solver at 10 steps, a 64^3 patch, the request
perfbench's synth-tinyconv-64 workload makes on its 96^3 phantom.  Per
edge the file records the phantom's build time and traced peak, the
requests' wall mean and std, one request's traced peak and its NFE; it
also records the machine.  A cost that grows with the edge is one the
request pays for the whole reference, not for its patch.
"""

import argparse
import json
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

from bench_pairs import machine
from nodulesynth import (EaasRequest, SolverConfig, TinyConvPredictor,
                         make_phantom, make_schedule)
from nodulesynth.bench import run_bench

SOLVER = SolverConfig(method="dpm2_multistep", steps=10)


def row(edge, patch, trials):
    """One edge's row; the traced phantom build also warms up the timed one."""
    tracemalloc.start()
    try:
        make_phantom(0, (edge,) * 3)
        phantom_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t0 = time.perf_counter()
    reference, lung = make_phantom(0, (edge,) * 3)
    phantom_s = time.perf_counter() - t0
    request = EaasRequest(reference, lung, TinyConvPredictor(seed=0),
                          make_schedule("cosine", 1000), SOLVER,
                          patch_size=(patch,) * 3)
    report = run_bench(f"dpm2-10-ref{edge}", request, trials, warmup=1)
    return {"edge": edge, "patch": patch,
            "phantom_s": round(phantom_s, 4),
            "phantom_peak_bytes": phantom_peak,
            "wall_mean_s": round(report.wall_mean_s, 4),
            "wall_std_s": round(report.wall_std_s, 4),
            "peak_alloc_bytes": report.peak_alloc_bytes,
            "nfe": report.nfe, "trials": report.trials}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--edges", default="96,192,256",
                    help="comma-separated reference edges")
    ap.add_argument("--patch", type=int, default=64)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--out", type=Path, default=Path("BENCH_reference_size.json"))
    args = ap.parse_args(argv)

    edges = [int(v) for v in args.edges.split(",")]
    bench = {"machine": machine(), "solver": asdict(SOLVER),
             "predictor": "TinyConvPredictor(seed=0)",
             "rows": [row(edge, args.patch, args.trials) for edge in edges]}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
