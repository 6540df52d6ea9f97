"""Benchmark the training step of two checkouts and write BENCH_train.json.

Usage, from the repository root, with a clean copy of each tree:

    python3 tools/bench_train.py --parent ../parent --change ../change \
        --out BENCH_train.json

Three measurements, each run in a fresh process per checkout:

- steps: ``train-tinyconv-32`` after perfbench's set-ups, then ``STEPS``
  training steps, one seed of ``STEP_SEEDS`` per process: minor page
  faults (``ru_minflt``) and wall time per step, and a digest of every
  step's loss and parameters (equal digests mean equal bytes).  Then,
  outside the timing, the ``tracemalloc`` peak of a fresh predictor's
  first step and of its second, and the bytes of the training
  workspace, if the tree has one;
- faults: minor faults per operation of every workload after
  perfbench's set-ups, from ``FAULT_RUNS`` closed loops per tree,
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
from pathlib import Path

from benchkit import (child, compare_faults, compare_pairs, faults, machine,
                      minflt, setup)

TRAIN = "train-tinyconv-32"
WORKLOADS = {"synth-tinyconv-64": 6101, "synth-analytic-batch-32": 6201,
             TRAIN: 6301}  # first seed of each workload's pairs
PAIRS, SECONDS = 10, 30  # SECONDS is perfbench's run_seconds
STEPS, STEP_SEEDS = 150, (6401, 6402, 6403)
FAULT_RUNS, FAULT_SECONDS = 2, 10


def steps(seed):
    import tracemalloc

    import numpy as np
    from run import SETUP_REPEATS

    from nodulesynth.predictor import Adam, TinyConvPredictor, train_step

    state = setup(TRAIN, seed, SETUP_REPEATS)
    flts, secs, h = [], [], hashlib.sha256()
    for k in range(STEPS):
        before = minflt()
        op = state.op(k)
        flts.append(minflt() - before)
        secs.append(op.seconds)
        h.update(op.units[0].digest.encode())

    x0, m = state.pairs[0]
    p = TinyConvPredictor(seed=0)
    opt, rng = Adam(p.n_params), np.random.default_rng(seed)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        train_step(p, x0, m, rng, state.schedule, optimizer=opt)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # One workspace per shape; trees before that kept one, as _workspace.
    spaces = getattr(p, "_workspaces", None) or {
        None: getattr(p, "_workspace", None)}
    return {"steps": STEPS,
            "minflt_per_step": {"median": statistics.median(flts),
                                "mean": round(statistics.mean(flts), 1),
                                "max": max(flts)},
            "step_s_p50": round(statistics.median(secs), 5),
            "first_step_traced_peak_mb": round(peaks[0] / 1e6, 2),
            "second_step_traced_peak_mb": round(peaks[1] / 1e6, 2),
            "workspace_mb": None if None in spaces.values() else round(sum(
                b.nbytes for ws in spaces.values()
                for b in ws.slots.values()) / 1e6, 2),
            "digest": h.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path, default=Path("BENCH_train.json"))
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        kind, *rest = args.child
        if kind == "steps":
            print(json.dumps(steps(int(rest[0]))))
        else:
            from run import SETUP_REPEATS
            print(json.dumps(faults(rest[0], int(rest[1]), FAULT_SECONDS,
                                    SETUP_REPEATS)))
        return

    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = {"machine": machine(), "steps": {side: [] for side in trees}}
    for i, seed in enumerate(STEP_SEEDS):
        for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            bench["steps"][side].append(
                dict(child(__file__, trees[side], "--child", "steps",
                           str(seed)), seed=seed))
    bench["faults"] = compare_faults(__file__, trees, WORKLOADS, FAULT_RUNS)
    bench["pairs"] = compare_pairs(trees, WORKLOADS, PAIRS, SECONDS)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
