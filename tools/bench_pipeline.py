"""Run the ``table2-desk`` bench suite on the real pipeline and write
BENCH_pipeline.json.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/bench_pipeline.py --out BENCH_pipeline.json

Each row of the suite times sequential ``run_eaas`` requests with the
tiny conv net on the same seeds (see ``nodulesynth bench``); the file
records every row's report, the ratios against the first row (the
ancestral-1000 full-patch baseline), the suite's geometry and solver
configs, and the machine.  ~4 min on 2 cores at the defaults, nearly
all of it in the baseline's requests.
"""

import argparse
import json
from dataclasses import asdict
from pathlib import Path

from bench_pairs import machine
from nodulesynth.bench import compare
from nodulesynth.cli import _SUITES, bench_suite

SUITE = "table2-desk"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--warmup", type=int, default=1)
    ap.add_argument("--out", type=Path, default=Path("BENCH_pipeline.json"))
    args = ap.parse_args()

    edge, patch, rows = _SUITES[SUITE]
    reports = bench_suite(SUITE, args.trials, args.warmup)
    bench = {
        "machine": machine(),
        "suite": SUITE, "phantom_edge": edge, "patch_edge": patch,
        "solvers": {name: asdict(cfg) for name, cfg in rows},
        "trials": args.trials, "warmup": args.warmup,
        "rows": [asdict(rep) for rep in reports],
        "ratios_vs_baseline": compare(reports),
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
