import ast
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import nodulesynth
from nodulesynth import bench
from nodulesynth.bench import (BenchReport, ConvLayerSpec, compare,
                               estimate_flops, format_table, run_bench,
                               tiny_conv_arch, write_report_csv)
from nodulesynth.cli import _SUITES, bench_suite
from nodulesynth.eaas import EaasRequest
from nodulesynth.errors import NoduleSynthError, SolverError
from nodulesynth.predictor import TinyConvPredictor
from nodulesynth.schedule import make_schedule
from nodulesynth.solver import SolverConfig, expected_nfe
from nodulesynth.volume import make_phantom


def test_estimate_flops_hand_computed():
    # One 3^3 conv layer, 2 -> 8 channels, on an 8^3 volume:
    # 2 * 27 * 2 * 8 * 512 = 442368.
    arch = (ConvLayerSpec(2, 8),)
    assert estimate_flops(arch, (8, 8, 8)) == 442368
    # The full tiny architecture on 16^3:
    # 2 * 27 * (2*8 + 8*8 + 8*1) * 4096 = 19464192.
    assert estimate_flops(tiny_conv_arch(), (16, 16, 16)) == 19464192


def test_flops_scale_linearly_with_voxels():
    arch = tiny_conv_arch()
    f64 = estimate_flops(arch, (64, 64, 64))
    f128 = estimate_flops(arch, (128, 128, 128))
    assert f128 / f64 == 8.0


@pytest.mark.parametrize("dims", [(8, 8, 8), (13, 10, 8), (64, 64, 64)])
def test_estimate_flops_matches_the_predictor_count(dims):
    # Uncut, every layer outputs the whole volume, so the analytic model
    # and the predictor's own count agree exactly.
    assert estimate_flops(tiny_conv_arch(), dims) == \
        TinyConvPredictor().flops(dims)


@pytest.fixture()
def calls(monkeypatch):
    """Every ``run_eaas`` call the harness makes: (seed, whether
    tracemalloc was tracing, provenance)."""
    seen = []
    real = bench.run_eaas

    def recording(req):
        tracing = tracemalloc.is_tracing()
        result = real(req)
        seen.append((req.seed, tracing, result.provenance))
        return result

    monkeypatch.setattr(bench, "run_eaas", recording)
    return seen


def _request(**solver):
    reference, lung_layout = make_phantom(0, (24,) * 3)
    return EaasRequest(reference=reference, lung_layout=lung_layout,
                       predictor=TinyConvPredictor(seed=0),
                       schedule=make_schedule("cosine", 1000),
                       solver=SolverConfig(steps=4, **solver),
                       patch_size=(16,) * 3)


def test_suite_rows_place_the_same_crops_and_nodules(calls):
    reports = bench_suite("smoke", n_trials=3, warmup=1)
    rows = _SUITES["smoke"][2]
    assert [r.config for r in reports] == [name for name, _ in rows]
    assert len(calls) == len(rows) * 4
    by_seed = defaultdict(set)
    for seed, _, prov in calls:
        by_seed[seed].add((tuple(prov["crop_origin"]), prov["nodule_voxels"]))
    assert sorted(by_seed) == [0, 1, 2, 3]
    assert all(len(placed) == 1 for placed in by_seed.values())


def test_run_bench_report_fields(calls):
    # NFE and FLOPs are read from the timed requests' provenance.
    warmup, n_trials = 1, 3
    rep = run_bench("dpm2-4", _request(), n_trials=n_trials, warmup=warmup)
    timed = [prov for _, _, prov in calls[warmup:]]
    assert rep.config == "dpm2-4"
    assert rep.trials == n_trials
    assert rep.nfe == expected_nfe("dpm2_multistep", 4) == 5
    assert rep.eval_flops == np.mean([p["eval_flops"] for p in timed])
    assert rep.eval_flops > 0
    assert rep.wall_mean_s > 0 and rep.wall_std_s >= 0
    assert rep.peak_alloc_bytes > 0


def test_region_row_evaluates_fewer_flops_than_full_patch():
    full, region = (run_bench(mode, _request(blend_mode=mode), n_trials=2,
                              warmup=0)
                    for mode in ("init_only", "per_step"))
    assert region.eval_flops < full.eval_flops
    assert region.nfe == full.nfe


@pytest.mark.parametrize("warmup,n_trials,traced", [
    (2, 2, [False, True, False, False]),
    (1, 1, [True, False]),
    # Without warm-ups the first trial's seed runs again, traced.
    (0, 2, [False, False, True]),
])
def test_no_timed_trial_runs_under_tracemalloc(calls, warmup, n_trials,
                                               traced):
    run_bench("dpm2-4", _request(), n_trials=n_trials, warmup=warmup)
    assert [tracing for _, tracing, _ in calls] == traced
    assert [seed for seed, _, _ in calls] == \
        list(range(warmup + n_trials)) + ([warmup] if not warmup else [])
    assert not tracemalloc.is_tracing()


def _failing(monkeypatch, error, seeds):
    real = bench.run_eaas

    def planted(req):
        if req.seed in seeds:
            raise error("boom")
        return real(req)

    monkeypatch.setattr(bench, "run_eaas", planted)


def test_run_bench_skips_a_library_error(monkeypatch):
    _failing(monkeypatch, SolverError, {2})
    rep = run_bench("dpm2-4", _request(), n_trials=3, warmup=1)
    assert rep.trials == 2


def test_run_bench_all_failures_raise(monkeypatch):
    _failing(monkeypatch, SolverError, {0, 1})
    with pytest.raises(NoduleSynthError,
                       match="trial 1: SolverError: boom"):
        run_bench("dpm2-4", _request(), n_trials=2, warmup=0)


def test_run_bench_propagates_programming_errors(monkeypatch):
    _failing(monkeypatch, TypeError, {1})
    with pytest.raises(TypeError, match="boom"):
        run_bench("dpm2-4", _request(), n_trials=2, warmup=0)


def test_library_catches_no_blanket_exceptions():
    # A blanket handler would turn programming errors into per-item
    # failure strings.
    blanket = []
    for path in Path(nodulesynth.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(c is None or (isinstance(c, ast.Name) and c.id in
                                 ("Exception", "BaseException"))
                   for c in caught):
                blanket.append(f"{path.name}:{node.lineno}")
    assert blanket == []


def test_run_bench_validation(calls):
    with pytest.raises(ValueError, match="n_trials"):
        run_bench("dpm2-4", _request(), n_trials=0)
    with pytest.raises(ValueError, match="warmup"):
        run_bench("dpm2-4", _request(), n_trials=1, warmup=-1)
    assert calls == []


def _report(name, nfe, eval_flops, wall_mean_s, peak):
    return BenchReport(config=name, nfe=nfe, eval_flops=eval_flops,
                       wall_mean_s=wall_mean_s, wall_std_s=0.0,
                       peak_alloc_bytes=peak, trials=1)


def test_compare_ratios():
    slow = _report("slow", 100, 8e6, 2.0, 4000)
    fast = _report("fast", 10, 1e5, 0.5, 1000)
    rows = compare([slow, fast])
    assert rows[0] == {"config": "slow", "nfe_ratio": 1.0, "flops_ratio": 1.0,
                       "speed_ratio": 1.0, "alloc_ratio": 1.0}
    assert rows[1] == {"config": "fast", "nfe_ratio": 10.0,
                       "flops_ratio": 80.0, "speed_ratio": 4.0,
                       "alloc_ratio": 4.0}


def test_compare_needs_two_reports():
    with pytest.raises(ValueError):
        compare([_report("a", 1, 1.0, 1.0, 1)])


def test_report_csv_and_table(tmp_path):
    reps = [_report("a", 11, 2.5e6, 0.25, 1000),
            _report("b", 1000, 1.5e9, 27.0, 9000)]
    write_report_csv(reps, tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    header = ("config,nfe,eval_flops,wall_mean_s,wall_std_s,"
              "peak_alloc_bytes,trials")
    assert lines == [header, "a,11,2.5000e+06,0.250000,0.000000,1000,1",
                     "b,1000,1.5000e+09,27.000000,0.000000,9000,1"]
    table = format_table(reps).splitlines()
    assert table[0].split() == header.split(",")
    assert [row.split() for row in table[1:]] == \
        [line.split(",") for line in lines[1:]]
