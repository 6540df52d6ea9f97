"""Benchmark sharing each conv layer's blocks with the spare core, and
write BENCH_share.json.

Usage, from the repository root, with a clean copy of each tree:

    python3 tools/bench_share.py --parent ../parent --change ../change \
        --out BENCH_share.json

Three measurements, each in fresh processes:

- probe, before and after the rest: ``PROBES`` runs of a fixed einsum
  loop in one process and then in two at once.  ``scaling`` is twice
  the one-process time over the slower of the two: ~2.0 when the host
  gives the second vCPU, ~1.0 when it does not (no sharing can pay
  then);
- layers, in the change only: each conv layer's time with the spare
  worker forced off (``spare._CORES = 1``, every block on the caller)
  and on, alternating over ``ROUNDS`` rounds of ``REPS`` calls.  Cases:
  inference regions of 13^3, 21^3 and 33^3 with every face cut (the
  einsum ``_forward``), and a 32^3 training step (``loss_and_grads``:
  the BLAS forward, ``grad_x`` and ``grad_w``).  Each layer records its
  block count, and each case whether its output bytes were equal with
  the worker off and on;
- pairs: ``PAIRS`` runs of ``perfbench/run.py`` per tree on every
  workload, ``SECONDS`` each, parent and change alternating which runs
  first, comparing the end-to-end metrics and the per-output digests
  of each pair.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchkit import child, compare_pairs, machine

WORKLOADS = {"synth-tinyconv-64": 8101, "synth-analytic-batch-32": 8201,
             "train-tinyconv-32": 8301}  # first seed of each workload's pairs
PAIRS, SECONDS = 10, 30  # SECONDS is perfbench's run_seconds
PROBES, PROBE_LOOPS = 3, 4000
ROUNDS, REPS = 7, 9
INFER_DIMS, TRAIN_DIMS = (13, 21, 33), 32
INFER_LAYERS = ("conv1", "conv2", "conv3")
# The call order of loss_and_grads: forward, then backward per layer.
TRAIN_LAYERS = INFER_LAYERS + ("grad_w3", "grad_x3", "grad_w2", "grad_x2",
                               "grad_w1")


def probe():
    """Seconds of a fixed single-threaded einsum loop."""
    import numpy as np

    a, b = np.ones((8, 8)), np.ones((8, 8192))
    start = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        np.einsum("oi,il->ol", a, b)
    return time.perf_counter() - start


def run_probe():
    def timed(n):
        procs = [subprocess.Popen([sys.executable, __file__, "--child",
                                   "probe"], stdout=subprocess.PIPE,
                                  text=True) for _ in range(n)]
        return max(float(p.communicate()[0].splitlines()[-1])
                   for p in procs)

    runs = []
    for _ in range(PROBES):
        one, two = timed(1), timed(2)
        runs.append({"one_s": round(one, 3), "two_s": round(two, 3),
                     "scaling": round(2 * one / two, 2)})
    return runs


def layers():
    """Per-layer medians (ms) with the worker off and on, per case."""
    import numpy as np

    from nodulesynth import predictor, spare
    from nodulesynth.schedule import make_schedule
    from nodulesynth.volume import SemanticLayout, VoxelVolume

    calls = []

    def timed(fn):
        def wrapper(layout, *args):
            start = time.perf_counter()
            out = fn(layout, *args)
            blocks = -(-predictor._taps(layout[1])[1] // predictor._BLOCK)
            calls.append((time.perf_counter() - start, blocks))
            return out
        return wrapper

    predictor._correlate = timed(predictor._correlate)
    predictor._conv3d_grad_w = timed(predictor._conv3d_grad_w)
    s = make_schedule("cosine", 1000)
    p = predictor.TinyConvPredictor(seed=0)
    rng = np.random.default_rng(0)
    cases = {}
    for n in INFER_DIMS:
        x, mask = rng.standard_normal((n,) * 3), rng.integers(0, 2, (n,) * 3)
        cases[f"infer-{n}"] = (INFER_LAYERS, lambda x=x, mask=mask: p._forward(
            x, mask.astype(float), 500, predictor._einsum_product,
            ((1, 1),) * 3)[0])
    dims = (TRAIN_DIMS,) * 3
    x0, eps = (VoxelVolume(rng.standard_normal(dims)) for _ in range(2))
    m = SemanticLayout(rng.integers(0, 3, dims).astype(np.uint8))
    cases[f"train-{TRAIN_DIMS}"] = (TRAIN_LAYERS, lambda: p.loss_and_grads(
        x0, m, 300, eps, s)[1]["w1"])

    out = {}
    for case, (names, call) in cases.items():
        rounds = {side: [] for side in ("off", "on")}
        digests = {}
        for r in range(ROUNDS):
            for side in (("off", "on") if r % 2 == 0 else ("on", "off")):
                spare._CORES = 1 if side == "off" else 64
                per_call = []
                for _ in range(REPS):
                    calls.clear()
                    start = time.perf_counter()
                    got = call()
                    per_call.append([c[0] for c in calls]
                                    + [time.perf_counter() - start])
                digests[side] = hashlib.sha256(got.tobytes()).hexdigest()
                rounds[side].append([statistics.median(col)
                                     for col in zip(*per_call)])
        row = {"blocks": dict(zip(names, (c[1] for c in calls))),
               "bytes_equal_off_on": digests["off"] == digests["on"]}
        for side, values in rounds.items():
            row[f"{side}_ms"] = {
                name: round(1e3 * statistics.median(col), 2)
                for name, col in zip(names + ("call",), zip(*values))}
        out[case] = row
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path, default=Path("BENCH_share.json"))
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(probe() if args.child[0] == "probe" else layers()))
        return

    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = {"machine": machine(), "probe_before": run_probe(),
             "layers": child(__file__, trees["change"], "--child", "layers")}
    bench["pairs"] = compare_pairs(trees, WORKLOADS, PAIRS, SECONDS)
    bench["probe_after"] = run_probe()
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
