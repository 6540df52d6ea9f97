import ast
import dataclasses
from pathlib import Path

import pytest

import nodulesynth
from nodulesynth.bench import (BenchConfig, ConvLayerSpec, compare,
                               estimate_flops, format_table, run_bench,
                               tiny_conv_arch, write_report_csv)
from nodulesynth.cli import _table2_desk_suite
from nodulesynth.errors import NoduleSynthError, SolverError
from nodulesynth.schedule import make_schedule


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


def _make_cfg(name="fast", nfe=5, dims=(8, 8, 8), fail=None):
    def run(trial_seed):
        if fail is not None:
            raise fail("boom")
        return nfe

    return BenchConfig(name=name, dims=dims, run=run)


def test_run_bench_report_fields():
    rep = run_bench(_make_cfg(), n_trials=3, warmup=1)
    assert rep.config == "fast"
    assert rep.nfe == 5
    assert rep.trials == 3
    assert rep.est_flops_per_eval == estimate_flops(tiny_conv_arch(), (8, 8, 8))
    assert rep.est_flops_chain == rep.est_flops_per_eval * 5
    assert rep.wall_mean_s >= 0
    assert rep.peak_alloc_bytes >= 0


def test_run_bench_all_failures_raise():
    with pytest.raises(NoduleSynthError, match="failed"):
        run_bench(_make_cfg(fail=SolverError), n_trials=2, warmup=0)


def test_run_bench_propagates_programming_errors():
    with pytest.raises(TypeError, match="boom"):
        run_bench(_make_cfg(fail=TypeError), n_trials=2, warmup=0)


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


def test_run_bench_validation():
    with pytest.raises(ValueError):
        run_bench(_make_cfg(), n_trials=0)


def test_compare_ratios():
    slow = run_bench(_make_cfg(name="slow", nfe=100, dims=(16, 16, 16)),
                     n_trials=1, warmup=0)
    fast = run_bench(_make_cfg(name="fast", nfe=10, dims=(8, 8, 8)),
                     n_trials=1, warmup=0)
    rows = compare([slow, fast], baseline=0)
    assert rows[0]["cost_ratio"] == 1.0
    assert rows[1]["nfe_ratio"] == 10.0
    assert rows[1]["flops_ratio"] == 8.0
    assert rows[1]["cost_ratio"] == 80.0
    assert rows[1]["dims_differ"]


def test_compare_needs_two_reports():
    rep = run_bench(_make_cfg(), n_trials=1, warmup=0)
    with pytest.raises(ValueError):
        compare([rep])


def test_report_csv_and_table(tmp_path):
    reps = [run_bench(_make_cfg(name=n), n_trials=1, warmup=0)
            for n in ("a", "b")]
    write_report_csv(reps, tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0].startswith("config,dims,nfe")
    assert len(lines) == 3
    table = format_table(reps)
    assert "a" in table and "b" in table and "nfe" in table


def test_proxy_row_reports_timed_dims(tmp_path):
    # The 128^3 row of table2-desk is timed at 32^3; a stub run keeps the
    # test fast without changing what the row reports.
    proxy = _table2_desk_suite(make_schedule("cosine", 1000))[0]
    proxy = dataclasses.replace(proxy, run=lambda trial_seed: 1000)
    reps = [run_bench(proxy, n_trials=1, warmup=0),
            run_bench(_make_cfg(), n_trials=1, warmup=0)]
    assert reps[0].dims == (128, 128, 128)
    assert reps[0].timed_dims == (32, 32, 32)
    assert reps[1].timed_dims == reps[1].dims
    write_report_csv(reps, tmp_path / "r.csv")
    header, row, _ = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert header.startswith("config,dims,nfe")
    assert header.endswith(",timed_dims")
    assert row.split(",")[1] == "128x128x128"
    assert row.endswith(",32x32x32")
    assert "32x32x32" in format_table(reps).splitlines()[1]
