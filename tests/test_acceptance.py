"""Acceptance gate: ten end-to-end criteria, one test (and one printed
pass/fail line) per criterion."""

import time

import numpy as np
import pytest

from nodulesynth import (AnalyticGaussianPredictor, EaasRequest, SemanticLayout,
                         SolverConfig, TinyConvPredictor, VoxelVolume,
                         estimate_flops, expected_nfe, make_phantom,
                         make_schedule, pulmonary_solve, q_sample, read_layout,
                         read_volume, run_eaas, write_layout, write_volume)
from nodulesynth.bench import tiny_conv_arch
from nodulesynth.cli import main as cli_main
from nodulesynth.forward import invert_reference, masked_mix
from nodulesynth.layout import LayoutConfig, sample_nodule_spec
from nodulesynth.oracle import convergence_study
from nodulesynth.predictor import Adam, _blas_product, _flatten_grads
from nodulesynth.solver import dpm_update, grid_from_times, make_time_grid


def _report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({name}) failed: {detail}"


def test_criterion_01_forward_moments():
    start = time.perf_counter()
    schedules = [make_schedule("cosine", 1000), make_schedule("linear", 1000),
                 make_schedule("cosine", 100)]
    n = 10_000
    dims = (25, 20, 20)  # 10^4 draws
    x0 = VoxelVolume(np.full(dims, 0.3))
    worst = 0.0
    for k, s in enumerate(schedules):
        ts = [max(1, s.T // 10), s.T // 4, s.T // 2, 3 * s.T // 4, s.T]
        for j, t in enumerate(ts):
            rng = np.random.default_rng(1000 * k + j)
            eps = VoxelVolume(rng.standard_normal(dims))
            xt = q_sample(x0, t, eps, s).x_t.data
            ab, sig, _ = s.coefficients_at(t)
            se_mean = sig / np.sqrt(n)
            se_var = sig ** 2 * np.sqrt(2.0 / (n - 1))
            z_mean = abs(xt.mean() - np.sqrt(ab) * 0.3) / se_mean
            z_var = abs(xt.var(ddof=1) - sig ** 2) / se_var
            worst = max(worst, z_mean, z_var)
    elapsed = time.perf_counter() - start
    _report(1, "forward moments", worst < 4.0 and elapsed < 30.0,
            f"(worst z={worst:.2f}, {elapsed:.1f}s)")


def test_criterion_02_convergence_orders():
    start = time.perf_counter()
    s = make_schedule("cosine", 1000)
    results = convergence_study(s, mu=0.3, var=0.25,
                                steps_list=(8, 16, 32, 64, 128),
                                dims=(8, 8, 8), n_ref=100_000)
    slopes = {r.order: r.slope for r in results}
    elapsed = time.perf_counter() - start
    ok = (slopes[1] >= 0.9 and slopes[2] >= 1.8 and slopes[3] >= 2.6
          and elapsed < 120.0)
    _report(2, "solver convergence orders", ok,
            f"(slopes {slopes[1]:.2f}/{slopes[2]:.2f}/{slopes[3]:.2f}, "
            f"{elapsed:.1f}s)")


def test_criterion_03_order1_ddim_equivalence():
    s = make_schedule("cosine", 1000)
    p = AnalyticGaussianPredictor(0.3, 0.25, s)
    rng = np.random.default_rng(7)
    max_dev = 0.0
    for _ in range(100):
        t_hi = int(rng.integers(2, 1001))
        t_lo = int(rng.integers(1, t_hi))
        x = rng.standard_normal((4, 4, 4))
        grid = grid_from_times(s, [t_hi, t_lo])
        eps_hat = p.predict(VoxelVolume(x), t_hi, None).data
        ab_hi, sig_hi, lam_hi = s.coefficients_at(t_hi)
        ab_lo, sig_lo, _ = s.coefficients_at(t_lo)
        x0_hat = (x - sig_hi * eps_hat) / np.sqrt(ab_hi)
        ddim = np.sqrt(ab_lo) * x0_hat + sig_lo * eps_hat
        out = dpm_update(x, [(x0_hat, lam_hi)], grid, 1, order=1)
        max_dev = max(max_dev, float(np.max(np.abs(out - ddim))))
    _report(3, "order-1/DDIM equivalence", max_dev < 1e-10,
            f"(max dev {max_dev:.2e})")


def test_criterion_04_eaas_locality():
    s = make_schedule("cosine", 1000)
    vol, lay = make_phantom(21, (32, 32, 32))
    violations = 0
    for seed in range(25):
        req = EaasRequest(reference=vol, lung_layout=lay,
                          predictor=AnalyticGaussianPredictor(0.0, 1.0, s),
                          schedule=s,
                          solver=SolverConfig(blend_mode="per_step"),
                          patch_size=(16, 16, 16), seed=seed)
        res = run_eaas(req)
        outside = np.ones(vol.dims, dtype=bool)
        outside[res.crop.slices()] = False
        if not np.array_equal(res.full_volume.data[outside],
                              vol.data[outside]):
            violations += 1
            continue
        changed = res.full_volume.data != vol.data
        if np.any(changed & ~res.full_layout.nodule_mask()):
            violations += 1
    _report(4, "EAAS locality", violations == 0,
            f"({violations} violations in 25 runs)")


def test_criterion_05_layout_distribution():
    start = time.perf_counter()
    cfg = LayoutConfig()
    rng = np.random.default_rng(5)
    n = 100_000
    counts = {"small": 0, "medium": 0, "large": 0}
    d_min, d_max = np.inf, -np.inf
    for _ in range(n):
        spec = sample_nodule_spec(cfg, rng)
        counts[spec.size_class] += 1
        d_min = min(d_min, spec.diameter_mm)
        d_max = max(d_max, spec.diameter_mm)
    elapsed = time.perf_counter() - start
    fracs = {c: counts[c] / n for c in counts}
    ok = (abs(fracs["small"] - 0.19) < 0.015
          and abs(fracs["medium"] - 0.62) < 0.015
          and abs(fracs["large"] - 0.19) < 0.015
          and d_min >= 1.41 and d_max <= 57.42 and elapsed < 10.0)
    _report(5, "layout distribution", ok,
            f"(fracs {fracs['small']:.3f}/{fracs['medium']:.3f}/"
            f"{fracs['large']:.3f}, d in [{d_min:.2f}, {d_max:.2f}] mm, "
            f"{elapsed:.1f}s)")


def test_criterion_06_flops_ratio():
    arch = tiny_conv_arch()
    ratio = estimate_flops(arch, (128, 128, 128)) / estimate_flops(arch, (64, 64, 64))
    _report(6, "FLOPs ratio 128^3 vs 64^3", ratio == 8.0, f"(ratio {ratio})")


def test_criterion_07_nfe_and_speedup():
    s = make_schedule("cosine", 1000)
    labels = np.zeros((16, 16, 16), np.uint8)
    labels[2:14, 2:14, 2:14] = 1
    labels[6:10, 6:10, 6:10] = 2
    m = SemanticLayout(labels)
    rng = np.random.default_rng(0)
    x_ref = VoxelVolume(rng.standard_normal((16, 16, 16)))

    def run(cfg, seed):
        p = AnalyticGaussianPredictor(0.0, 1.0, s)
        r = np.random.default_rng(seed)
        init = invert_reference(
            x_ref, 1000, VoxelVolume(r.standard_normal(x_ref.dims)), s)
        init = masked_mix(init, VoxelVolume(r.standard_normal(x_ref.dims)), m)
        pulmonary_solve(init, x_ref, m, p, cfg, r, s)
        return p.eval_count

    fast_cfg = SolverConfig(method="dpm2_multistep", steps=50)
    slow_cfg = SolverConfig(method="ancestral", steps=1000)
    nfe_fast = run(fast_cfg, 0)
    nfe_slow = run(slow_cfg, 0)

    t_fast, t_slow = [], []
    for trial in range(10):
        t0 = time.perf_counter()
        run(fast_cfg, trial)
        t_fast.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run(slow_cfg, trial)
        t_slow.append(time.perf_counter() - t0)
    speedup = np.mean(t_slow) / np.mean(t_fast)
    ok = (nfe_fast == 51 and nfe_slow == 1000
          and nfe_fast == expected_nfe("dpm2_multistep", 50)
          and speedup >= 10.0)
    _report(7, "NFE reduction and speedup", ok,
            f"(NFE {nfe_fast} vs {nfe_slow}, wall speedup {speedup:.1f}x)")


def test_criterion_08_training_sanity():
    s = make_schedule("cosine", 1000)
    rng = np.random.default_rng(8)
    dims = (8, 8, 8)
    x0 = VoxelVolume(rng.standard_normal(dims) * 0.5)
    labels = np.zeros(dims, np.uint8)
    labels[2:5, 2:5, 2:5] = 2
    m = SemanticLayout(labels)
    eps = VoxelVolume(rng.standard_normal(dims))
    t = 400

    # (a) finite-difference gradient check on every parameter.
    p = TinyConvPredictor(seed=3)
    _, grads = p.loss_and_grads(x0, m, t, eps, s)
    g = _flatten_grads(p, grads)
    flat = p.get_flat()
    mask_f = m.nodule_mask().astype(np.float64)
    ab, sig, _ = s.coefficients_at(t)
    x_t = np.sqrt(ab) * x0.data + sig * eps.data

    def loss_only():
        out, _ = p._forward(x_t, mask_f, t, _blas_product)
        return float(np.mean((out - eps.data) ** 2))

    h = 1e-5
    worst_rel = 0.0
    for i in range(flat.size):
        fp = flat.copy(); fp[i] += h
        p.set_flat(fp)
        lp = loss_only()
        fm = flat.copy(); fm[i] -= h
        p.set_flat(fm)
        lm = loss_only()
        num = (lp - lm) / (2 * h)
        rel = abs(num - g[i]) / max(abs(num), abs(g[i]), 1e-6)
        worst_rel = max(worst_rel, rel)
    p.set_flat(flat)
    grad_ok = worst_rel < 1e-4

    # (b) 500-step overfit on one fixed (t, eps) draw.
    p2 = TinyConvPredictor(seed=3)
    opt = Adam(p2.n_params, lr=1e-3)
    losses = []
    for _ in range(500):
        loss, grads = p2.loss_and_grads(x0, m, t, eps, s)
        losses.append(loss)
        p2.set_flat(opt.step(p2.get_flat(), _flatten_grads(p2, grads)))
    overfit_ok = losses[-1] <= 0.5 * losses[0]

    # (c) zero-weight network: loss is the per-voxel noise power, ~1.
    pz = TinyConvPredictor()
    loss0, _ = pz.loss_and_grads(
        x0, m, t, VoxelVolume(np.random.default_rng(123).standard_normal(dims)), s)
    zero_ok = 0.9 <= loss0 <= 1.1

    _report(8, "training sanity", grad_ok and overfit_ok and zero_ok,
            f"(gradcheck max rel {worst_rel:.2e}, loss "
            f"{losses[0]:.3f}->{losses[-1]:.3f}, zero-weight {loss0:.3f})")


def test_criterion_09_cli_determinism(tmp_path):
    import json

    cfg = {"schedule": {"kind": "cosine", "T": 1000},
           "solver": {"steps": 50, "gamma": 0.0},
           "patch_size": [16, 16, 16], "seed": 0}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli_main(["phantom", "--dims", "32", "32", "32", "--seed", "1",
                     "--out", str(tmp_path / "ph")]) == 0

    def sample(tag, parallelism):
        prefix = tmp_path / tag / "s"
        rc = cli_main(["sample", "--config", str(tmp_path / "cfg.json"),
                       "--reference", str(tmp_path / "ph.vol.ldpv"),
                       "--lung-layout", str(tmp_path / "ph.lay.ldpv"),
                       "--analytic", "--count", "4",
                       "--parallelism", str(parallelism),
                       "--out-prefix", str(prefix)])
        assert rc == 0
        return [(prefix.parent / f"s_{i:04d}.vol.ldpv").read_bytes()
                for i in range(4)]

    run_a = sample("a", 1)
    run_b = sample("b", 1)
    run_c = sample("c", 4)
    ok = run_a == run_b == run_c
    _report(9, "CLI sampling determinism", ok,
            "(byte-identical across reruns and parallelism 1 vs 4)")


def test_criterion_10_io_roundtrips(tmp_path):
    rng = np.random.default_rng(10)
    failures = 0
    cases = [(1, 1, 1), (1, 5, 3), (7, 1, 2)]  # force degenerate shapes
    while len(cases) < 1000:
        cases.append(tuple(int(v) for v in rng.integers(1, 7, size=3)))
    for i, dims in enumerate(cases):
        path = tmp_path / "rt.ldpv"
        if i % 2 == 0:
            data = rng.standard_normal(dims).astype(np.float32).astype(np.float64)
            spacing = tuple(float(np.float32(v))
                            for v in rng.uniform(0.3, 3.0, 3))
            v = VoxelVolume(data, spacing)
            write_volume(v, path)
            v2 = read_volume(path)
            if not (np.array_equal(v2.data, v.data)
                    and v2.spacing == v.spacing):
                failures += 1
        else:
            lay = SemanticLayout(rng.integers(0, 3, size=dims).astype(np.uint8))
            write_layout(lay, path)
            if not np.array_equal(read_layout(path).labels, lay.labels):
                failures += 1
    _report(10, "binary I/O round-trips", failures == 0,
            f"({failures} failures in 1000 round-trips)")
