"""Command-line surface binding the library into reproducible workflows.

Subcommands: phantom, train, sample, bench, oracle-check.  All
randomness flows from a single --seed, configs are strict JSON (unknown
keys rejected before any work starts), machine outputs go to files or
stdout while logs go to stderr (LDPM_LOG={error,info,debug}).

Exit codes: 0 success, 2 validation error, 3 runtime/numeric error,
4 I/O error.
"""

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import oracle
from .eaas import EaasRequest, run_batch, write_provenance
from .errors import FormatError, NoduleSynthError, ValidationError
from .layout import LayoutConfig
from .predictor import (AnalyticGaussianPredictor, TinyConvPredictor, train,
                        write_loss_curve)
from .schedule import make_schedule
from .solver import SolverConfig, ancestral_solve, dpm_solve, make_time_grid
from .volume import (VoxelVolume, make_phantom, read_layout, read_volume,
                     write_layout, write_volume)

log = logging.getLogger("nodulesynth")

_SLOPE_THRESHOLDS = {1: 0.9, 2: 1.8, 3: 2.6}

# Allowed config keys per section; values are validated by the consuming
# constructors after this structural check.
_CONFIG_KEYS = {
    "schedule": {"kind", "T"},
    "solver": {"method", "steps", "gamma", "blend_mode", "t_start"},
    "predictor": {"mu", "var"},
    "layout": {"class_probs", "diameter_bounds_mm", "axis_ratio_range",
               "max_diameter_mm"},
    "train": {"epochs", "lr"},
    "patch_size": None,
    "seed": None,
}


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
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


def _build_schedule(doc):
    sec = doc.get("schedule", {})
    try:
        return make_schedule(sec.get("kind", "cosine"), sec.get("T", 1000))
    except ValueError as err:
        raise ValidationError(f"schedule: {err}") from err


def _build_solver(doc):
    sec = dict(doc.get("solver", {}))
    try:
        return SolverConfig(**sec)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"solver: {err}") from err


def _build_layout_cfg(doc):
    sec = dict(doc.get("layout", {}))
    if not sec:
        return None
    for key in ("class_probs", "axis_ratio_range"):
        if key in sec:
            sec[key] = tuple(sec[key])
    if "diameter_bounds_mm" in sec:
        sec["diameter_bounds_mm"] = tuple(tuple(b) for b in sec["diameter_bounds_mm"])
    try:
        return LayoutConfig(**sec)
    except (TypeError, ValueError) as err:
        raise ValidationError(f"layout: {err}") from err


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_phantom(args):
    dims = tuple(args.dims)
    if len(dims) != 3 or any(d < 16 for d in dims):
        raise ValidationError(f"--dims must be 3 values >= 16, got {dims}")
    vol, layout = make_phantom(args.seed, dims)
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
    s = _build_schedule(doc)
    train_sec = doc.get("train", {})
    epochs = int(train_sec.get("epochs", 10))
    lr = float(train_sec.get("lr", 1e-3))
    if epochs < 0 or lr <= 0:
        raise ValidationError(f"train: epochs={epochs}, lr={lr}")
    seed = args.seed if args.seed is not None else doc.get("seed", 0)

    pairs = _load_pairs(args.data_dir)
    if not pairs:
        raise ValidationError(
            f"no *.vol.ldpv / *.lay.ldpv pairs found in {args.data_dir}")
    p = TinyConvPredictor(seed=seed)
    losses = train(p, pairs, s, epochs=epochs, lr=lr, seed=seed)
    Path(args.out_weights).parent.mkdir(parents=True, exist_ok=True)
    p.save(args.out_weights)
    write_loss_curve(losses, f"{args.out_weights}.loss.csv")
    log.info("trained on %d pairs for %d epochs; final loss %s",
             len(pairs), epochs, losses[-1] if losses else "n/a")
    return 0


def _verify_fusion_locality(result, reference, blend_mode):
    """Every mode leaves the volume outside the crop untouched; only
    ``per_step`` re-imposes the background, so only it promises that no
    voxel outside the nodule mask changes.  Voxels compare bit for bit,
    so a -0.0 that turns into +0.0 counts as a change."""
    changed = (result.full_volume.data.view(np.uint64)
               != reference.data.view(np.uint64))
    outside = np.ones(reference.dims, dtype=bool)
    outside[result.crop.slices()] = False
    if np.any(changed & outside):
        raise NoduleSynthError("fusion locality violated outside the crop")
    if blend_mode != "per_step":
        return
    if np.any(changed & ~result.full_layout.nodule_mask()):
        raise NoduleSynthError("voxels outside the nodule mask were modified")


def cmd_sample(args):
    doc = load_config(args.config)
    s = _build_schedule(doc)
    solver_cfg = _build_solver(doc)
    layout_cfg = _build_layout_cfg(doc)
    patch_size = doc.get("patch_size", (32, 32, 32))
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    if args.count < 0:
        raise ValidationError(f"--count must be >= 0, got {args.count}")

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

    try:
        requests = [
            EaasRequest(reference=reference, lung_layout=lung_layout,
                        predictor=predictor, schedule=s, solver=solver_cfg,
                        layout_cfg=layout_cfg, patch_size=patch_size,
                        seed=seed + i)
            for i in range(args.count)
        ]
    except ValueError as err:
        raise ValidationError(f"request: {err}") from err
    Path(args.out_prefix).parent.mkdir(parents=True, exist_ok=True)
    items = run_batch(requests, parallelism=args.parallelism)
    failures = 0
    for i, item in enumerate(items):
        if item.error is not None:
            failures += 1
            log.error("request %d failed: %s", i, item.error)
            continue
        _verify_fusion_locality(item.result, reference,
                                solver_cfg.blend_mode)
        prefix = f"{args.out_prefix}_{i:04d}"
        write_volume(item.result.full_volume, f"{prefix}.vol.ldpv")
        write_layout(item.result.full_layout, f"{prefix}.lay.ldpv")
        write_provenance(item.result, f"{prefix}.json")
    if failures:
        raise NoduleSynthError(f"{failures} of {len(items)} requests failed")
    log.info("wrote %d results to %s_*", len(items), args.out_prefix)
    return 0


# -- bench suites ------------------------------------------------------------


def _chain(s, dims, steps, ancestral=False):
    """A bench run: the ancestral or the dpm2 sampler at ``steps`` from
    pure noise at ``dims``, with the analytic N(0, 1) predictor;
    returns the NFE it consumed."""
    grid = make_time_grid(s, SolverConfig(steps=steps))

    def run(trial_seed):
        rng = np.random.default_rng(trial_seed)
        p = AnalyticGaussianPredictor(0.0, 1.0, s)
        x = VoxelVolume(rng.standard_normal(dims))
        if ancestral:
            ancestral_solve(x, grid, p, None, s, rng)
        else:
            dpm_solve(x, grid, 2, p, None, s)
        return p.eval_count

    return run


def _table2_desk_suite(s):
    """Desk-scale analog of the published efficiency table.

    The 128^3 ancestral row is a proxy: its FLOPs are accounted at
    128^3 but its wall clock is measured at 32^3 (a full 1000-step
    chain at 128^3 is not a desk-scale timing target).
    """
    return [
        bench_mod.BenchConfig(
            name="ancestral-1000-128^3-proxy(timed@32^3)", dims=(128,) * 3,
            timed_dims=(32,) * 3,
            run=_chain(s, (32,) * 3, s.T, ancestral=True)),
        bench_mod.BenchConfig(
            name="ancestral-1000-64^3", dims=(64,) * 3,
            run=_chain(s, (64,) * 3, s.T, ancestral=True)),
        bench_mod.BenchConfig(
            name="dpm2-50-64^3", dims=(64,) * 3,
            run=_chain(s, (64,) * 3, 50)),
        bench_mod.BenchConfig(
            name="dpm2-10-64^3", dims=(64,) * 3,
            run=_chain(s, (64,) * 3, 10)),
    ]


def _smoke_suite(s):
    """Tiny fast suite for CI-style runs."""
    return [
        bench_mod.BenchConfig(name="ancestral-1000-16^3", dims=(16,) * 3,
                              run=_chain(s, (16,) * 3, s.T, ancestral=True)),
        bench_mod.BenchConfig(name="dpm2-50-16^3", dims=(16,) * 3,
                              run=_chain(s, (16,) * 3, 50)),
    ]


_SUITES = {"table2-desk": _table2_desk_suite, "smoke": _smoke_suite}


def cmd_bench(args):
    if args.suite not in _SUITES:
        raise ValidationError(
            f"unknown suite {args.suite!r}; available: {sorted(_SUITES)}")
    if args.trials < 1:
        raise ValidationError(f"--trials must be >= 1, got {args.trials}")
    s = make_schedule("cosine", 1000)
    configs = _SUITES[args.suite](s)
    reports = [bench_mod.run_bench(cfg, n_trials=args.trials, warmup=args.warmup)
               for cfg in configs]
    if args.out_csv:
        bench_mod.write_report_csv(reports, args.out_csv)
    print(bench_mod.format_table(reports))
    rows = bench_mod.compare(reports, baseline=0)
    print()
    print("ratios vs baseline "
          f"({reports[0].config}): " + ", ".join(
              f"{row['config']}: cost {row['cost_ratio']:.1f}x, "
              f"nfe {row['nfe_ratio']:.1f}x" for row in rows[1:]))
    return 0


def cmd_oracle_check(args):
    orders = tuple(int(v) for v in args.orders.split(","))
    steps = tuple(int(v) for v in args.steps.split(","))
    if any(o not in (1, 2, 3) for o in orders):
        raise ValidationError(f"--orders must be from 1,2,3, got {args.orders}")
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
        log.error("%s", err)
        print(f"validation error: {err}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 4
    except (NoduleSynthError, ValueError, ArithmeticError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
