"""Print what each pairs bench recorded, one file after another.

Usage, from the repository root:

    python3 tools/bench_trajectory.py                  # every BENCH_*.json
    python3 tools/bench_trajectory.py BENCH_a.json BENCH_b.json

Reads the files that ``tools/bench_pairs.py`` writes, the ones holding
``benchmark_sha256``; a file in an older format is skipped.  They are
printed in the order of their first seed, since every bench takes a
seed no earlier bench used, each above the last.  For each file:
``source_lines`` and ``settable_values`` of parent and change, where
the file records them; then, per workload, the median over its pairs of
change / parent for every end-to-end metric (above 1 means the change
read higher, whichever direction is better) and
``pairs_with_identical_digests`` out of the pairs run.
"""

import argparse
import json
import statistics
from pathlib import Path


def load(paths):
    """(path, bench) of each pairs bench among ``paths``, by first seed."""
    benches = [(Path(p), json.loads(Path(p).read_text())) for p in paths]
    benches = [(p, b) for p, b in benches if "benchmark_sha256" in b]
    return sorted(benches, key=lambda pb: min(
        row["seeds"][0] for row in pb[1]["pairs"].values()))


def median_ratios(row):
    """{metric: median of change / parent over the pairs} of one
    workload's ``pairs`` entry."""
    return {name: statistics.median(c / p for p, c in
                                    zip(m["parent"], m["change"]))
            for name, m in row.items()
            if isinstance(m, dict) and "parent" in m}


def report(path, bench):
    """The lines printed for one bench file."""
    lines = [path.name]
    counts = []
    if "source_lines" in bench:
        parent, change = (bench["source_lines"][side]
                          for side in ("parent", "change"))
        counts.append("source_lines " + ", ".join(
            f"{kind} {parent[kind]} -> {change[kind]}" for kind in parent))
    if "settable_values" in bench:
        counts.append("settable_values {parent} -> {change}".format(
            **bench["settable_values"]))
    if counts:
        lines.append("  " + "; ".join(counts))
    for workload, row in bench["pairs"].items():
        ratios = "  ".join(f"{name} {ratio:.3f}"
                           for name, ratio in median_ratios(row).items())
        lines.append(f"  {workload}: {ratios}  identical digests "
                     f"{row['pairs_with_identical_digests']}/{row['pairs']}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path,
                    help="bench files (default: BENCH_*.json here)")
    args = ap.parse_args(argv)
    for path, bench in load(args.paths or sorted(Path().glob("BENCH_*.json"))):
        print("\n".join(report(path, bench)))


if __name__ == "__main__":
    main()
