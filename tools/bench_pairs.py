"""Compare two checkouts on every perfbench workload and write one
BENCH_*.json.

Usage, from the repository root, with a clean copy of each tree (e.g.
from ``git archive``):

    python3 tools/bench_pairs.py --parent ../parent --change ../change \
        --seed 9101 --out BENCH_pairs.json

Both trees must hold byte-identical ``perfbench/`` and ``BENCHMARK.json``;
the run stops before any measurement otherwise, and the file records
their shared digest.  The workloads, the end-to-end metrics with the
direction that is better, and the run length come from
``BENCHMARK.json``.  Workload ``i`` (in ``BENCHMARK.json``'s order) runs
at seeds ``seed + 100 * i + k``; give every bench a seed no committed
bench used, so no claim rests on seeds a change was developed on.

Two measurements, each in fresh processes:

- faults: minor page faults (``ru_minflt``) per operation of each
  workload's perfbench loop after perfbench's set-ups, from
  ``FAULT_RUNS`` closed loops of ``FAULT_SECONDS`` per tree, the trees
  alternating which runs first, with each side's quartiles.  One tree
  read from 2.2k to 4.7k faults per operation on one workload across
  seeds, so two loops per tree could not tell trees apart.  A loop
  takes ~11 s with its set-ups (2-vCPU VM), so six loops per tree on
  three workloads take ~6.6 min, ~4.4 min more than two did;
- pairs: ``PAIRS`` untraced runs of ``perfbench/run.py`` per tree on
  every workload, the parent and the change alternating which runs
  first.  Per workload: each metric's runs, quartiles and the pairs the
  change wins (ties count for neither side), failures against attempts,
  and the pairs whose per-output digests are equal.

It also records each tree's ``src/nodulesynth`` line counts (see
:func:`source_lines`) and count of settable values (see
:func:`settable_values`).
"""

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

PAIRS = 10
FAULT_RUNS, FAULT_SECONDS = 6, 10
SEED_STRIDE = 100  # seed offset between consecutive workloads
# Generated inside a tree by running it, so left out of its digest.
GENERATED = {"out", "__pycache__", ".pytest_cache"}
# Run by a fresh interpreter with a checkout's src/ and perfbench/ and
# this directory on its path; prints ``faults(workload, seed)`` as JSON.
FAULTS_CHILD = ("import json, sys, bench_pairs; print(json.dumps("
                "bench_pairs.faults(sys.argv[1], int(sys.argv[2]))))")


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


def benchmark_digest(tree):
    """SHA-256 over ``BENCHMARK.json`` and every file of ``perfbench/``
    (relative path and bytes), skipping what running it generates."""
    digest = hashlib.sha256()
    files = [tree / "BENCHMARK.json"] + sorted(
        path for path in (tree / "perfbench").rglob("*")
        if path.is_file()
        and not GENERATED & set(path.relative_to(tree).parts))
    for path in files:
        digest.update(str(path.relative_to(tree)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def source_lines(tree):
    """``{"raw", "code"}`` line counts of the ``.py`` files under
    ``tree``'s ``src/nodulesynth``.  ``raw`` counts newlines, as
    ``wc -l`` does.  ``code`` counts the lines that hold a token of a
    statement, so it leaves out blank lines, comment lines and
    docstrings: a statement that is one string alone."""
    raw = code = 0
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    for path in sorted((tree / "src" / "nodulesynth").rglob("*.py")):
        text = path.read_text()
        raw += text.count("\n")
        lines, statement = set(), []
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type in skip:
                continue
            if tok.type != tokenize.NEWLINE:
                statement.append(tok)
                continue
            if not (len(statement) == 1
                    and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        code += len(lines)
    return {"raw": raw, "code": code}


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "attr", getattr(decorator, "id", None)) == \
        "dataclass"


def settable_values(tree):
    """The settable values of the ``.py`` files under ``tree``'s
    ``src/nodulesynth``: every parameter with a default (of a function,
    method or lambda) and every field with a default of a class
    decorated with ``dataclass``."""
    count = 0
    for path in sorted((tree / "src" / "nodulesynth").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif (isinstance(node, ast.ClassDef)
                  and any(map(_is_dataclass, node.decorator_list))):
                count += sum(isinstance(stmt, ast.AnnAssign)
                             and stmt.value is not None
                             for stmt in node.body)
    return count


def settings(tree):
    """(workload names, {metric: "lower" | "higher"}, run seconds) from
    ``tree``'s ``BENCHMARK.json``."""
    bench = json.loads((tree / "BENCHMARK.json").read_text())
    return ([w["name"] for w in bench["workloads"]],
            {m["name"]: m["better"] for m in bench["end_to_end"]},
            bench["run_seconds"])


def faults(workload, seed):
    """Minor page faults per operation of a closed loop of
    ``FAULT_SECONDS`` after perfbench's set-ups, each freeing the one
    before, as its ``measure`` does (run in a child of the checkout)."""
    import workloads
    from run import SETUP_REPEATS

    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before the next
        state = workloads.WORKLOADS[workload].setup(seed)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start, k = time.perf_counter(), 0
    while not k or time.perf_counter() - start < FAULT_SECONDS:
        state.op(k)
        k += 1
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return {"ops": k, "minflt_per_op": round((after - before) / k, 1)}


def child_faults(tree, workload, seed):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent), str(tree / "src"),
         str(tree / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c", FAULTS_CHILD, workload, str(seed)],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def perfbench(tree, workload, seed, seconds):
    """One untraced ``perfbench/run.py`` run: (end-to-end metrics,
    failed, attempted, per-output digests)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((tree / "perfbench" / "out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return ({name: m["value"] for name, m in result["metrics"].items()},
            result["failed"], result["attempted"], record["digests"])


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(v, 4) for v in (q[0], statistics.median(values), q[2])]


def summarize_faults(got):
    """One workload's ``faults`` entry from ``got[side]``, the
    :func:`faults` results of each tree's loops: the runs, then each
    side's quartiles of minor faults per operation beside them."""
    row = dict(got)
    for side, runs in got.items():
        row[f"{side}_quartiles"] = quartiles(
            [r["minflt_per_op"] for r in runs])
    return row


def summarize(runs, metrics, seeds, seconds):
    """One workload's ``pairs`` entry from ``runs[side]``, a list of
    ``perfbench`` results for "parent" and "change" whose ``i``-th runs
    form pair ``i``; ``metrics`` maps each metric to its better
    direction."""
    same_digests = 0
    for parent, change in zip(runs["parent"], runs["change"]):
        # Runs of equal length can hold different operation counts.
        n = min(len(parent[3]), len(change[3]))
        same_digests += parent[3][:n] == change[3][:n]
    row = {"pairs": len(seeds), "seconds": seconds, "seeds": list(seeds),
           "pairs_with_identical_digests": same_digests}
    for side in ("parent", "change"):
        row[f"{side}_failed"] = sum(r[1] for r in runs[side])
        row[f"{side}_attempted"] = sum(r[2] for r in runs[side])
    for name, better in metrics.items():
        parent = [r[0][name] for r in runs["parent"]]
        change = [r[0][name] for r in runs["change"]]
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(parent, change))
        row[name] = {"parent": [round(v, 4) for v in parent],
                     "change": [round(v, 4) for v in change],
                     "parent_quartiles": quartiles(parent),
                     "change_quartiles": quartiles(change),
                     "change_better_pairs": wins}
    return row


def alternating(trees, i):
    """The sides in the order pair ``i`` runs them."""
    return list(trees) if i % 2 == 0 else list(trees)[::-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="first seed; no committed bench may have used it")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    digests = {side: benchmark_digest(tree) for side, tree in trees.items()}
    if digests["parent"] != digests["change"]:
        sys.exit("bench_pairs: the trees' perfbench/ and BENCHMARK.json "
                 f"differ (sha256 {digests['parent']} vs "
                 f"{digests['change']}); both sides must run identical "
                 "benchmark code and settings")
    names, metrics, seconds = settings(trees["change"])
    first = {w: args.seed + SEED_STRIDE * i for i, w in enumerate(names)}
    bench = {"machine": machine(), "benchmark_sha256": digests["change"],
             "source_lines": {side: source_lines(tree)
                              for side, tree in trees.items()},
             "settable_values": {side: settable_values(tree)
                                 for side, tree in trees.items()},
             "faults": {}, "pairs": {}}
    for workload, seed in first.items():
        got = {side: [] for side in trees}
        for i in range(FAULT_RUNS):
            for side in alternating(trees, i):
                got[side].append(child_faults(trees[side], workload, seed + i))
        bench["faults"][workload] = summarize_faults(got)
    for workload, seed in first.items():
        runs = {side: [] for side in trees}
        seeds = [seed + i for i in range(PAIRS)]
        for i, s in enumerate(seeds):
            for side in alternating(trees, i):
                runs[side].append(perfbench(trees[side], workload, s, seconds))
            print(f"{workload} seed {s}: " + "  ".join(
                f"{side} {runs[side][-1][0]}" for side in trees),
                file=sys.stderr)
        bench["pairs"][workload] = summarize(runs, metrics, seeds, seconds)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
