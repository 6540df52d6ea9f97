"""Benchmark the shape rasterizers of two checkouts and write BENCH_phantom.json.

Usage, from the repository root, with a clean copy of each tree:

    python3 tools/bench_phantom.py --parent ../parent --change ../change \
        --out BENCH_phantom.json

Three measurements, each run in a fresh process per checkout:

- micro: ``make_phantom`` wall time and ``tracemalloc`` peak at 32^3,
  64^3 and 96^3, ``place_nodule`` and ``eval_region`` per call, and
  digests of their outputs and generator states (equal digests mean
  equal bytes);
- pairs: ``PAIRS`` runs of ``perfbench/run.py`` per tree on every
  workload, ``SECONDS`` each, parent and change alternating which runs
  first, comparing the end-to-end metrics and the per-output digests
  of each pair;
- faults: minor page faults (``ru_minflt``) per operation of each
  workload after set-up, from ``FAULT_RUNS`` closed loops per tree like
  perfbench's, ``FAULT_SECONDS`` each.
"""

import argparse
import hashlib
import json
import statistics
import time
from pathlib import Path

from benchkit import child, compare_faults, compare_pairs, faults, machine

WORKLOADS = {"synth-tinyconv-64": 4101, "synth-analytic-batch-32": 4201,
             "train-tinyconv-32": 4301}  # first seed of each workload's pairs
PAIRS, SECONDS = 10, 30  # SECONDS is perfbench's run_seconds
FAULT_RUNS, FAULT_SECONDS = 3, 10


def micro():
    import tracemalloc

    import numpy as np

    from nodulesynth.errors import PlacementError
    from nodulesynth.layout import (LayoutConfig, place_nodule,
                                    sample_nodule_spec)
    from nodulesynth.solver import SolverConfig, eval_region
    from nodulesynth.volume import CropRegion, crop, make_phantom

    out = {"make_phantom": {}}
    for n in (32, 64, 96):
        make_phantom(0, (n,) * 3)
        times = []
        for seed in range(7):
            start = time.perf_counter()
            make_phantom(seed, (n,) * 3)
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        make_phantom(0, (n,) * 3)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out["make_phantom"][f"{n}^3"] = {
            "ms_median_of_7": round(1e3 * statistics.median(times), 2),
            "traced_peak_mb": round(peak / 1e6, 2)}
    h = hashlib.sha256()
    for seed in range(10):
        for dims in ((16, 16, 16), (17, 23, 29), (40, 33, 21), (64, 64, 64)):
            vol, lay = make_phantom(seed, dims)
            h.update(vol.data.tobytes() + lay.labels.tobytes())
    out["make_phantom"]["digest"] = h.hexdigest()

    _, lung = make_phantom(3, (96, 96, 96))
    rng = np.random.default_rng(0)
    cfg = LayoutConfig(max_diameter_mm=0.8 * 64)
    h, times, placed = hashlib.sha256(), [], []
    for _ in range(300):
        patch = crop(lung, CropRegion(tuple(rng.integers(0, 33, 3)), (64,) * 3))
        spec = sample_nodule_spec(cfg, rng)
        start = time.perf_counter()
        try:
            m = place_nodule(spec, patch, (1.0, 1.0, 1.0), rng, max_tries=10)
            h.update(m.labels.tobytes() + repr(m._placed_spec).encode())
            placed.append(m)
        except PlacementError as err:
            h.update(str(err).encode())
        times.append(time.perf_counter() - start)
        h.update(repr(rng.bit_generator.state).encode())
    out["place_nodule"] = {
        "ms_mean_of_300": round(1e3 * statistics.mean(times), 3),
        "placed": len(placed), "digest": h.hexdigest()}

    times = []
    for m in placed:
        start = time.perf_counter()
        eval_region(m, SolverConfig())
        times.append(time.perf_counter() - start)
    out["eval_region"] = {
        "ms_mean": round(1e3 * statistics.mean(times), 3), "calls": len(times)}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path, default=Path("BENCH_phantom.json"))
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        kind, *rest = args.child
        print(json.dumps(micro() if kind == "micro" else
                         faults(rest[0], int(rest[1]), FAULT_SECONDS, 1)))
        return

    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = {"machine": machine()}
    bench["micro"] = {side: child(__file__, tree, "--child", "micro")
                      for side, tree in trees.items()}
    bench["faults"] = compare_faults(__file__, trees, WORKLOADS, FAULT_RUNS)
    bench["pairs"] = compare_pairs(trees, WORKLOADS, PAIRS, SECONDS)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
