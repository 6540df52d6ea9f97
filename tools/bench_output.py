"""Benchmark the output path of a synthesis request on two checkouts and
write BENCH_output.json.

Usage, from the repository root, with a clean copy of each tree:

    python3 tools/bench_output.py --parent ../parent --change ../change \
        --out BENCH_output.json

Three measurements, each run in fresh processes per checkout:

- requests: each synth workload after perfbench's set-ups, then one
  warm-up ``run_eaas`` and ``REQUESTS`` more, one at a time, the
  requests perfbench's first operations make.  Per request: minor page
  faults (``ru_minflt``) and wall time, with the requests back to back
  (glibc trims its heap by what is freed between them, so any work
  there, such as a digest's 7 MB ``tobytes`` copy at 96^3, moves the
  fault count); then the same requests again, each alone under
  ``tracemalloc``, for its traced peak, with a digest of every output
  volume and layout (equal digests mean equal bytes).  One process per
  seed of ``REQUEST_SEEDS``, parent and change alternating which runs
  first;
- faults: minor faults per operation of each synth workload's
  perfbench loop (the request plus perfbench's output checks) after
  its set-ups, from ``FAULT_RUNS`` closed loops per tree,
  ``FAULT_SECONDS`` each;
- pairs: ``PAIRS`` runs of ``perfbench/run.py`` per tree on every
  workload, ``SECONDS`` each, parent and change alternating which runs
  first, comparing the end-to-end metrics and the per-output digests
  of each pair.
"""

import argparse
import hashlib
import json
import statistics
import time
from pathlib import Path

from benchkit import (child, compare_faults, compare_pairs, faults, machine,
                      minflt, setup)

WORKLOADS = {"synth-tinyconv-64": 8101, "synth-analytic-batch-32": 8201,
             "train-tinyconv-32": 8301}  # first seed of each workload's pairs
SYNTH = ("synth-tinyconv-64", "synth-analytic-batch-32")
PAIRS, SECONDS = 10, 30  # SECONDS is perfbench's run_seconds
REQUESTS, REQUEST_SEEDS = 11, (8401, 8402, 8403)
FAULT_RUNS, FAULT_SECONDS = 2, 10


def requests(workload, seed, setups):
    import tracemalloc

    from nodulesynth import eaas

    state = setup(workload, seed, setups)
    reqs, k = [], 0
    while len(reqs) <= REQUESTS:
        reqs += state.requests(k)
        k += 1
    warm, reqs = reqs[0], reqs[1:REQUESTS + 1]
    eaas.run_eaas(warm)

    flts, secs = [], []
    for req in reqs:
        before, start = minflt(), time.perf_counter()
        eaas.run_eaas(req)
        secs.append(time.perf_counter() - start)
        flts.append(minflt() - before)
    peaks, digest = [], hashlib.sha256()
    for req in reqs:
        tracemalloc.start()
        res = eaas.run_eaas(req)
        peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        tracemalloc.stop()
        digest.update(res.full_volume.data.tobytes())
        digest.update(res.full_layout.labels.tobytes())
        del res
    return {"requests": len(reqs),
            "traced_peak_mb": {"median": round(statistics.median(peaks), 3),
                               "max": round(max(peaks), 3)},
            "minflt_per_request": {"median": statistics.median(flts),
                                   "mean": round(statistics.mean(flts), 1)},
            "request_ms_p50": round(1e3 * statistics.median(secs), 3),
            "digest": digest.hexdigest()}


def summary(runs):
    """Median over processes of each per-process median."""
    return {"traced_peak_mb_median": round(statistics.median(
                r["traced_peak_mb"]["median"] for r in runs), 3),
            "minflt_per_request_median": statistics.median(
                r["minflt_per_request"]["median"] for r in runs),
            "request_ms_p50_median": round(statistics.median(
                r["request_ms_p50"] for r in runs), 3)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path, default=Path("BENCH_output.json"))
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        from run import SETUP_REPEATS

        kind, workload, seed = args.child
        print(json.dumps(
            requests(workload, int(seed), SETUP_REPEATS)
            if kind == "requests" else
            faults(workload, int(seed), FAULT_SECONDS, SETUP_REPEATS)))
        return

    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = {"machine": machine(), "requests": {}}
    for workload in SYNTH:
        runs = {side: [] for side in trees}
        for i, seed in enumerate(REQUEST_SEEDS):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                runs[side].append(dict(child(
                    __file__, trees[side], "--child", "requests", workload,
                    str(seed)), seed=seed))
        bench["requests"][workload] = {
            side: {"summary": summary(runs[side]), "runs": runs[side]}
            for side in trees}
    bench["faults"] = compare_faults(
        __file__, trees, {w: WORKLOADS[w] for w in SYNTH}, FAULT_RUNS)
    bench["pairs"] = compare_pairs(trees, WORKLOADS, PAIRS, SECONDS)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
