"""Command-line surface binding the library into reproducible workflows.

Subcommands: phantom, train, sample, bench, oracle-check.  All
randomness flows from a single --seed, configs are strict JSON (unknown
keys rejected before any work starts), machine outputs go to files or
stdout while logs go to stderr (LDPM_LOG={error,info,debug}).

Exit codes: 0 success; 2 a ``ValidationError`` (a bad flag, config
value or library argument); 4 a ``FormatError`` or ``OSError`` (I/O);
3 any other ``NoduleSynthError`` (a runtime or numeric failure), so
``sample`` exits 2 only if every failed request's error is a
``ValidationError``.  Every other exception is a bug and propagates.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import bench as bench_mod
from . import oracle
from .eaas import EaasRequest, run_batch, write_provenance
from .errors import FormatError, NoduleSynthError, ValidationError
from .layout import LayoutConfig
from .predictor import (AnalyticGaussianPredictor, TinyConvPredictor, train,
                        write_loss_curve)
from .schedule import check_int, make_schedule
from .solver import SolverConfig
from .volume import (make_phantom, read_layout, read_volume, write_layout,
                     write_volume)

log = logging.getLogger("nodulesynth")

_SLOPE_THRESHOLDS = {1: 0.9, 2: 1.8, 3: 2.6}

# Allowed config keys per section; values are validated by the consuming
# constructors after this structural check.
_CONFIG_KEYS = {
    "schedule": {"kind", "T"},
    "solver": {f.name for f in fields(SolverConfig)},
    "predictor": {"mu", "var"},
    "layout": {f.name for f in fields(LayoutConfig)},
    "train": {"epochs", "lr"},
    "patch_size": None,
    "seed": None,
}


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as err:  # a JSONDecodeError or UnicodeDecodeError
        raise ValidationError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    for key, value in doc.items():
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"unknown config key {key!r}")
        allowed = _CONFIG_KEYS[key]
        if allowed is not None:
            if not isinstance(value, dict):
                raise ValidationError(f"config section {key!r} must be an object")
            unknown = set(value) - allowed
            if unknown:
                raise ValidationError(
                    f"unknown keys in config section {key!r}: {sorted(unknown)}")
    return doc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_phantom(args):
    vol, layout = make_phantom(args.seed, args.dims)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_volume(vol, f"{out}.vol.ldpv")
    write_layout(layout, f"{out}.lay.ldpv")
    log.info("wrote %s.vol.ldpv and %s.lay.ldpv", out, out)
    return 0


def _load_pairs(data_dir):
    vols = sorted(Path(data_dir).glob("*.vol.ldpv"))
    pairs = []
    for vol_path in vols:
        lay_path = Path(str(vol_path)[: -len(".vol.ldpv")] + ".lay.ldpv")
        if lay_path.exists():
            pairs.append((read_volume(vol_path), read_layout(lay_path)))
    return pairs


def cmd_train(args):
    doc = load_config(args.config)
    s = make_schedule(**doc.get("schedule", {}))
    train_sec = doc.get("train", {})
    epochs = train_sec.get("epochs", 10)
    lr = train_sec.get("lr", 1e-3)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    pairs = _load_pairs(args.data_dir)
    p = TinyConvPredictor(seed=seed)
    losses = train(p, pairs, s, epochs=epochs, lr=lr, seed=seed)
    Path(args.out_weights).parent.mkdir(parents=True, exist_ok=True)
    p.save(args.out_weights)
    write_loss_curve(losses, f"{args.out_weights}.loss.csv")
    log.info("trained on %d pairs for %d epochs; final loss %s",
             len(pairs), epochs, losses[-1] if losses else "n/a")
    return 0


def cmd_sample(args):
    doc = load_config(args.config)
    s = make_schedule(**doc.get("schedule", {}))
    solver_cfg = SolverConfig(**doc.get("solver", {}))
    layout_cfg = LayoutConfig(**doc["layout"]) if doc.get("layout") else None
    patch_size = doc.get("patch_size", (32, 32, 32))
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    check_int("--count", args.count, 0)
    check_int("--parallelism", args.parallelism, 1)

    reference = read_volume(args.reference)
    lung_layout = read_layout(args.lung_layout)
    if args.analytic:
        pred_sec = doc.get("predictor", {})
        predictor = AnalyticGaussianPredictor(
            pred_sec.get("mu", 0.0), pred_sec.get("var", 1.0), s)
    else:
        if not args.weights:
            raise ValidationError("either --weights or --analytic is required")
        predictor = TinyConvPredictor.load(args.weights)

    first = EaasRequest(reference=reference, lung_layout=lung_layout,
                        predictor=predictor, schedule=s, solver=solver_cfg,
                        layout_cfg=layout_cfg, patch_size=patch_size,
                        seed=seed)
    requests = [replace(first, seed=seed + i) for i in range(args.count)]
    Path(args.out_prefix).parent.mkdir(parents=True, exist_ok=True)
    items = run_batch(requests, parallelism=args.parallelism)
    failed = [item.error_type for item in items if item.error is not None]
    for i, item in enumerate(items):
        if item.error is not None:
            log.error("request %d failed: %s", i, item.error)
            continue
        prefix = f"{args.out_prefix}_{i:04d}"
        write_volume(item.result.full_volume, f"{prefix}.vol.ldpv")
        write_layout(item.result.full_layout, f"{prefix}.lay.ldpv")
        write_provenance(item.result, f"{prefix}.json")
    if failed:
        bad_input = all(issubclass(e, ValidationError) for e in failed)
        raise (ValidationError if bad_input else NoduleSynthError)(
            f"{len(failed)} of {len(items)} requests failed")
    log.info("wrote %d results to %s_*", len(items), args.out_prefix)
    return 0


# -- bench suites ------------------------------------------------------------

# Per suite: the phantom edge, the patch edge, and rows of (name, solver
# config); the first row is the baseline.  ancestral-1000-full evaluates
# the whole patch at every step, the stand-in for Lung-DDPM.
_SUITES = {
    "table2-desk": (48, 24, (
        ("ancestral-1000-full", SolverConfig(
            method="ancestral", steps=1000, blend_mode="init_only")),
        ("dpm2-50-region", SolverConfig(steps=50)),
        ("dpm2-10-region", SolverConfig(steps=10)),
    )),
    "smoke": (24, 16, (
        ("dpm2-10-full", SolverConfig(steps=10, blend_mode="init_only")),
        ("dpm2-10-region", SolverConfig(steps=10)),
    )),
}


def bench_suite(suite, n_trials, warmup):
    """Reports of every row of ``suite``: ``run_eaas`` on one phantom
    with one tiny conv net, every row on the same seeds, so each row
    places the same crops and nodules and only the solver differs."""
    edge, patch, rows = _SUITES[suite]
    reference, lung_layout = make_phantom(0, (edge,) * 3)
    request = EaasRequest(
        reference=reference, lung_layout=lung_layout,
        predictor=TinyConvPredictor(seed=0),
        schedule=make_schedule("cosine", 1000), patch_size=(patch,) * 3)
    return [bench_mod.run_bench(name, replace(request, solver=cfg),
                                n_trials=n_trials, warmup=warmup)
            for name, cfg in rows]


def cmd_bench(args):
    if args.suite not in _SUITES:
        raise ValidationError(
            f"unknown suite {args.suite!r}; available: {sorted(_SUITES)}")
    reports = bench_suite(args.suite, args.trials, args.warmup)
    if args.out_csv:
        bench_mod.write_report_csv(reports, args.out_csv)
    print(bench_mod.format_table(reports))
    rows = bench_mod.compare(reports)
    print()
    print(f"ratios vs baseline {reports[0].config}:")
    for row in rows[1:]:
        print(f"  {row['config']}: flops {row['flops_ratio']:.1f}x, "
              f"nfe {row['nfe_ratio']:.1f}x, speed {row['speed_ratio']:.1f}x, "
              f"alloc {row['alloc_ratio']:.1f}x")
    return 0


def _int_list(flag, text):
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as err:
        raise ValidationError(
            f"{flag} must be comma-separated integers, got {text!r}") from err


def cmd_oracle_check(args):
    orders = _int_list("--orders", args.orders)
    steps = _int_list("--steps", args.steps)
    if any(v < 2 for v in steps):
        raise ValidationError(f"--steps values must be >= 2, got {args.steps}")
    s = make_schedule("cosine", 1000)
    results = oracle.convergence_study(s, orders=orders, steps_list=steps,
                                       seed=args.seed)
    if args.out_csv:
        oracle.write_convergence_csv(results, args.out_csv)
    ok = True
    for res in results:
        if len(steps) < 2:
            print(f"order {res.order}: slope n/a (single step count)")
            continue
        threshold = _SLOPE_THRESHOLDS[res.order]
        passed = res.slope >= threshold
        ok = ok and passed
        print(f"order {res.order}: slope {res.slope:.3f} "
              f"(threshold {threshold}) {'PASS' if passed else 'FAIL'}")
    if not ok:
        raise NoduleSynthError("convergence slope thresholds not met")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nodulesynth",
        description="Mask-conditioned diffusion synthesis of lung nodules")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phantom", help="generate a synthetic thorax pair")
    sp.add_argument("--dims", type=int, nargs=3, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output path prefix")
    sp.set_defaults(func=cmd_phantom)

    sp = sub.add_parser("train", help="train the tiny conv predictor")
    sp.add_argument("--config", required=True)
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--out-weights", required=True)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("sample", help="run the synthesis pipeline")
    sp.add_argument("--config", required=True)
    sp.add_argument("--reference", required=True)
    sp.add_argument("--lung-layout", required=True)
    sp.add_argument("--weights", default=None)
    sp.add_argument("--analytic", action="store_true",
                    help="use the analytic Gaussian predictor")
    sp.add_argument("--out-prefix", required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--parallelism", type=int, default=1)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("bench", help="run an efficiency suite")
    sp.add_argument("--suite", default="table2-desk")
    sp.add_argument("--trials", type=int, default=3)
    sp.add_argument("--warmup", type=int, default=1)
    sp.add_argument("--out-csv", default=None)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("oracle-check",
                        help="solver convergence-order verification")
    sp.add_argument("--orders", default="1,2,3")
    sp.add_argument("--steps", default="8,16,32,64,128")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out-csv", default=None)
    sp.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None):
    level = os.environ.get("LDPM_LOG", "error").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 4
    except NoduleSynthError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
