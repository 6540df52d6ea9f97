"""Benchmark the per-step solver path of two checkouts and write
BENCH_step.json.

Usage, from the repository root, with a clean copy of each tree:

    python3 tools/bench_step.py --parent ../parent --change ../change \
        --out BENCH_step.json

Two measurements, each run in fresh processes per checkout:

- requests: ``synth-analytic-batch-32`` after one perfbench set-up,
  then the requests of ``OPS`` operations, one ``run_eaas`` at a time,
  with every noise draw on the caller (``spare._CORES = 1``, the path
  a parallel batch on a busy machine takes).  Per request: the
  ``VoxelVolume`` and ``NoisyState`` constructions inside the solve and
  in the whole request, the solve's wall time, the time spent inside
  its full-patch ``standard_normal`` draws, and the difference (the
  non-draw solve time), with a digest of every output volume.  One
  process per seed of ``REQUEST_SEEDS``, parent and change alternating
  which runs first;
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
from collections import Counter
from pathlib import Path

from benchkit import child, compare_pairs, machine, setup

BATCH = "synth-analytic-batch-32"
WORKLOADS = {"synth-tinyconv-64": 7101, BATCH: 7201,
             "train-tinyconv-32": 7301}  # first seed of each workload's pairs
PAIRS, SECONDS = 10, 30  # SECONDS is perfbench's run_seconds
OPS, REQUEST_SEEDS = 10, (7401, 7402, 7403)


class _TimedDraws:
    """Generator view that sums the time spent inside its draws."""

    def __init__(self, rng):
        self.rng = rng
        self.seconds = 0.0

    def standard_normal(self, size):
        start = time.perf_counter()
        try:
            return self.rng.standard_normal(size)
        finally:
            self.seconds += time.perf_counter() - start


def requests(seed):
    from nodulesynth import eaas, forward, solver, volume

    state = setup(BATCH, seed, 1)
    try:
        from nodulesynth import spare as gate
    except ImportError:  # a tree from before the gate left solver.py
        gate = solver
    gate._CORES = 1  # every draw on the caller, as in a busy batch
    built, in_solve = Counter(), [False]
    for cls in (volume.VoxelVolume, forward.NoisyState):
        def counting(self, _check=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            built[_name + ".solve"] += in_solve[0]
            _check(self)
        cls.__post_init__ = counting

    solve, draws = [], []
    honest = eaas.pulmonary_solve

    def timed_solve(x_init, x_ref, m, p, cfg, rng, s):
        timed = _TimedDraws(rng)
        in_solve[0] = True
        start = time.perf_counter()
        try:
            return honest(x_init, x_ref, m, p, cfg, timed, s)
        finally:
            solve.append(time.perf_counter() - start)
            draws.append(timed.seconds)
            in_solve[0] = False

    eaas.pulmonary_solve = timed_solve
    digest, n = hashlib.sha256(), 0
    for k in range(OPS):
        for req in state.requests(k):
            out = eaas.run_eaas(req).full_volume.data
            digest.update(out.tobytes())
            n += 1
    non_draw = [a - b for a, b in zip(solve, draws)]
    return {"requests": n,
            "voxel_volumes_per_request": built["VoxelVolume"] / n,
            "voxel_volumes_per_solve": built["VoxelVolume.solve"] / n,
            "noisy_states_per_solve": built["NoisyState.solve"] / n,
            "solve_ms_p50": round(1e3 * statistics.median(solve), 3),
            "draw_ms_p50": round(1e3 * statistics.median(draws), 3),
            "non_draw_solve_ms_p50": round(1e3 * statistics.median(non_draw),
                                           3),
            "non_draw_solve_ms_mean": round(1e3 * statistics.mean(non_draw),
                                            3),
            "digest": digest.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--out", type=Path, default=Path("BENCH_step.json"))
    ap.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(requests(int(args.child[1]))))
        return

    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = {"machine": machine(), "requests": {side: [] for side in trees}}
    for i, seed in enumerate(REQUEST_SEEDS):
        for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
            bench["requests"][side].append(
                dict(child(__file__, trees[side], "--child", "requests",
                           str(seed)), seed=seed))
    bench["pairs"] = compare_pairs(trees, WORKLOADS, PAIRS, SECONDS)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
