"""Helpers shared by the ``tools/bench_*.py`` scripts that compare two
checkouts: the machine record, fresh-interpreter child runs, minor-fault
counts after perfbench-style set-ups, and interleaved perfbench pairs.

Each script runs from the repository root against clean copies of the
parent and the change (``git archive`` of each commit), so both sides
run the same benchmark code from their own ``perfbench/``.
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# BENCHMARK.json's end-to-end metrics and which way is better.
METRICS = {"setup_s": "lower", "volumes_per_s": "higher",
           "call_s.p50": "lower", "peak_rss_mb": "lower"}


def machine():
    """Core count, CPU model, Python, numpy and its BLAS."""
    import numpy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": {"name": deps.get("name"), "version": deps.get("version")}}


def child(script, checkout, *args):
    """Run ``script`` in a fresh interpreter with ``checkout``'s ``src/``
    and ``perfbench/`` on the path; its last output line is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")]))
    done = subprocess.run([sys.executable, script, *args], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def setup(workload, seed, setups):
    """The state of ``workload`` after ``setups`` set-ups in a row, each
    freeing the one before, as perfbench's ``measure`` does."""
    import workloads

    for _ in range(setups):
        state = None  # free the previous set-up before the next
        state = workloads.WORKLOADS[workload].setup(seed)
    return state


def minflt():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def faults(workload, seed, seconds, setups):
    """Minor page faults per operation of a closed loop of ``seconds``
    after ``setups`` set-ups (run in a child of the checkout)."""
    state = setup(workload, seed, setups)
    before = minflt()
    start, k = time.perf_counter(), 0
    while not k or time.perf_counter() - start < seconds:
        state.op(k)
        k += 1
    return {"ops": k, "minflt_per_op": round((minflt() - before) / k, 1)}


def compare_faults(script, trees, first_seeds, runs):
    """``faults`` of each workload from ``runs`` children of ``script``
    (``script --child faults WORKLOAD SEED``) per tree, seeds
    ``first_seeds[workload] + i``, alternating which tree runs first."""
    out = {}
    for workload, seed in first_seeds.items():
        out[workload] = {side: [] for side in trees}
        for i in range(runs):
            for side in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                out[workload][side].append(child(
                    script, trees[side], "--child", "faults", workload,
                    str(seed + i)))
    return out


def perfbench(checkout, workload, seed, seconds):
    """One untraced ``perfbench/run.py`` run: (end-to-end metrics,
    failed, attempted, per-output digests)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((checkout / "perfbench" / "out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return ({name: m["value"] for name, m in result["metrics"].items()},
            result["failed"], result["attempted"], record["digests"])


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(v, 4) for v in (q[0], statistics.median(values), q[2])]


def compare_pairs(trees, first_seeds, pairs, seconds):
    """``pairs`` perfbench runs of each workload per tree, seeds
    ``first_seeds[workload] + i``, the parent and the change alternating
    which runs first.  Per workload: each metric's runs, quartiles and
    the pairs the change wins, failures, and the pairs whose per-output
    digests are equal."""
    out = {}
    for workload, first_seed in first_seeds.items():
        runs = {side: [] for side in trees}
        same_digests = 0
        for i in range(pairs):
            seed = first_seed + i
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            got = {side: perfbench(trees[side], workload, seed, seconds)
                   for side in order}
            for side in trees:
                runs[side].append(got[side])
            # Runs of equal length can hold different operation counts.
            n = min(len(got[side][3]) for side in trees)
            same_digests += got["parent"][3][:n] == got["change"][3][:n]
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{side} {got[side][0]}" for side in trees), file=sys.stderr)
        row = {"pairs": pairs, "seconds": seconds,
               "seeds": [first_seed + i for i in range(pairs)],
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
