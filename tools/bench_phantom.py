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
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = {"synth-tinyconv-64": 4101, "synth-analytic-batch-32": 4201,
             "train-tinyconv-32": 4301}  # first seed of each workload's pairs
METRICS = {"setup_s": "lower", "volumes_per_s": "higher",
           "call_s.p50": "lower", "peak_rss_mb": "lower"}
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


def faults(workload, seed):
    import workloads

    state = workloads.WORKLOADS[workload].setup(seed)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start, k = time.perf_counter(), 0
    while not k or time.perf_counter() - start < FAULT_SECONDS:
        state.op(k)
        k += 1
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return {"ops": k, "minflt_per_op": round((after - before) / k, 1)}


def child(checkout, *args):
    """Run this script in a fresh interpreter against ``checkout``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")]))
    done = subprocess.run([sys.executable, __file__, *args], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def perfbench(checkout, workload, seed):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((checkout / "perfbench" / "out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return ({name: m["value"] for name, m in result["metrics"].items()},
            result["failed"], result["attempted"], record["digests"])


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(v, 4) for v in (q[0], statistics.median(values), q[2])]


def compare_pairs(trees):
    out = {}
    for workload, first_seed in WORKLOADS.items():
        runs = {side: [] for side in trees}
        same_digests = 0
        for i in range(PAIRS):
            seed = first_seed + i
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            got = {side: perfbench(trees[side], workload, seed)
                   for side in order}
            for side in trees:
                runs[side].append(got[side])
            # Runs of equal length can hold different operation counts.
            n = min(len(got[side][3]) for side in trees)
            same_digests += got["parent"][3][:n] == got["change"][3][:n]
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} {got[side][0]}" for side in trees), file=sys.stderr)
        row = {"pairs": PAIRS, "seconds": SECONDS,
               "seeds": [first_seed + i for i in range(PAIRS)],
               "pairs_with_identical_digests": same_digests}
        for side in trees:
            row[f"{side}_failed"] = sum(r[1] for r in runs[side])
            row[f"{side}_attempted"] = sum(r[2] for r in runs[side])
        for name, better in METRICS.items():
            parent = [r[0][name] for r in runs["parent"]]
            change = [r[0][name] for r in runs["change"]]
            wins = sum((c < p) if better == "lower" else (c > p)
                       for p, c in zip(parent, change))
            row[name] = {"parent": [round(v, 4) for v in parent],
                         "change": [round(v, 4) for v in change],
                         "parent_quartiles": quartiles(parent),
                         "change_quartiles": quartiles(change),
                         "change_better_pairs": wins}
        out[workload] = row
    return out


def machine():
    import numpy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": {"name": deps.get("name"), "version": deps.get("version")}}


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
                         faults(rest[0], int(rest[1]))))
        return

    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = {"machine": machine()}
    bench["micro"] = {side: child(tree, "--child", "micro")
                      for side, tree in trees.items()}
    bench["faults"] = {}
    for workload, seed in WORKLOADS.items():
        runs = {side: [] for side in trees}
        for i in range(FAULT_RUNS):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                runs[side].append(child(trees[side], "--child", "faults",
                                        workload, str(seed + i)))
        bench["faults"][workload] = runs
    bench["pairs"] = compare_pairs(trees)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
