"""Tests of the benchmark itself, on small versions of its workloads.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import types
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracing import Tracer
from workloads import Synth, Train, eaas

HERE = Path(__file__).resolve().parent

SMALL_SINGLE = Synth("synth-tinyconv-64", phantom=24, patch=16,
                     predictor="tinyconv", steps=3, warmup_steps=1)
SMALL_BATCH = Synth("synth-analytic-batch-32", phantom=24, patch=16,
                    predictor="analytic", steps=20, warmup_steps=20, batch=4,
                    parallelism=2, check_moments=True)
SMALL_TRAIN = Train("train-tinyconv-32", phantom=24, patch=12, pairs=2)

# The metric names each workload prints, as the benchmark's issue
# defines them.
NAMED = {
    "synth-tinyconv-64": {"setup_s", "volumes_per_s", "request_s.p50",
                          "peak_rss_mb", "error_rate"},
    "synth-analytic-batch-32": {"setup_s", "volumes_per_s", "peak_rss_mb",
                                "error_rate"},
    "train-tinyconv-32": {"setup_s", "train_steps_per_s", "step_s.p50",
                          "step_s.p90", "peak_rss_mb", "error_rate"},
}
PER_LAYER = {
    "predictor.calls", "predictor.s", "predictor.ms_per_call",
    "predictor.voxels_per_call", "predictor.gflop_per_volume",
    "predictor.mb_per_call", "predictor.gflop_per_s",
    "predictor.loss_and_grads_s", "predictor.optimizer_s",
    "solver.solve_s", "solver.grid_s", "solver.update_s", "solver.self_s",
    "solver.steps", "forward.q_sample_s", "forward.q_sample_calls",
    "forward.splice_s", "layout.crop_search_s", "layout.place_s",
    "layout.spec_draws", "layout.place_success_ratio", "volume.crop_s",
    "volume.paste_s", "eaas.request_s", "eaas.self_s", "eaas.batch_speedup",
    "roi_frac.p50", "roi_frac.max", "nodule_frac.p50",
    "trace.overhead_frac", "trace.coverage",
}


def failures(ops):
    return [f for op in ops for u in op.units for f in u.failures]


def test_same_seed_gives_same_digest():
    digests = [run.measure(SMALL_BATCH, seed=5, seconds=0.1,
                           trace=0)[1]["digests"][:4] for _ in range(2)]
    assert digests[0] == digests[1]


def test_planted_locality_violation_counts_as_failure(monkeypatch):
    state = SMALL_SINGLE.setup(3)
    honest = eaas.run_eaas

    def leaky(req):
        res = honest(req)
        data = res.full_volume.data.copy()
        outside = np.ones(data.shape, dtype=bool)
        outside[res.crop.slices()] = False
        data[np.unravel_index(np.argmax(outside), data.shape)] += 1.0
        return res.__class__(eaas.VoxelVolume(data, res.full_volume.spacing),
                             res.full_layout, res.crop, res.patch,
                             res.provenance)

    monkeypatch.setattr(eaas, "run_eaas", leaky)
    ops, _ = run.run_loop(state, 0, seconds=0.0)
    assert "voxels changed outside the crop" in failures(ops)
    assert all(not u.ok for op in ops for u in op.units)


def test_planted_nfe_mismatch_counts_as_failure(monkeypatch):
    state = SMALL_BATCH.setup(3)
    honest = eaas.pulmonary_solve

    def extra_call(x_init, x_ref, m, p, cfg, rng, s):
        p.predict(x_init.x_t, x_init.t, m)
        return honest(x_init, x_ref, m, p, cfg, rng, s)

    monkeypatch.setattr(eaas, "pulmonary_solve", extra_call)
    ops, _ = run.run_loop(state, 0, seconds=0.0)
    assert len(ops[0].units) == SMALL_BATCH.batch
    assert all(f"counted NFE {SMALL_BATCH.steps + 2} != expected "
               f"{SMALL_BATCH.steps + 1}" in u.failures for u in ops[0].units)


def test_crash_fails_the_operation_and_the_run_goes_on(monkeypatch):
    state = SMALL_SINGLE.setup(3)

    def broken(req):
        raise RuntimeError("planted")

    monkeypatch.setattr(eaas, "run_eaas", broken)
    ops, _ = run.run_loop(state, 0, seconds=0.0)
    assert failures(ops) == ["RuntimeError: planted"]


def test_missing_wrap_target_is_recorded_not_fatal():
    module = types.SimpleNamespace(present=lambda: 1)
    tracer = Tracer()
    original = module.present
    with tracer.patched([(module, "present", "x.present", None),
                         (module, "gone", "x.gone", None)]):
        assert module.present() == 1
    assert module.present is original
    assert tracer.absent == ["x.gone"]
    assert [sp.name for sp in tracer.spans] == ["x.present"]


def test_traced_run_survives_missing_target_and_restores(monkeypatch):
    targets = workloads.SynthState.trace_targets
    monkeypatch.setattr(
        workloads.SynthState, "trace_targets",
        lambda self: targets(self) + [(eaas, "dropped_name", "x.gone", None)])
    before = dict(vars(eaas))
    result, record, tracer = run.measure(SMALL_BATCH, seed=3, seconds=0.6,
                                         trace=1)
    assert result["correct"]
    assert record["absent_spans"] == ["x.gone"]
    assert dict(vars(eaas)) == before
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["predictor.calls"] == SMALL_BATCH.steps + 1
    assert metrics["solver.steps"] == SMALL_BATCH.steps
    assert 0.5 < metrics["trace.coverage"] <= 1.0


def test_training_trace_restores_instance_methods():
    state = SMALL_TRAIN.setup(3)
    tracer = Tracer()
    with tracer.patched(state.trace_targets()):
        state.op(0, tracer)
    assert "loss_and_grads" not in vars(state.predictor)
    assert "step" not in vars(state.optimizer)
    assert {sp.name for sp in tracer.spans} == {
        "train.step", "predictor.loss_and_grads", "predictor.optimizer"}


@pytest.mark.parametrize("wl", [SMALL_SINGLE, SMALL_BATCH, SMALL_TRAIN],
                         ids=lambda wl: wl.name)
def test_runs_clean_and_prints_the_defined_metrics(wl):
    result, record, _ = run.measure(wl, seed=3, seconds=0.2, trace=0)
    assert result["correct"] and result["attempted"] >= 1, record["failures"]
    assert set(record["metrics"]) == NAMED[wl.name]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}

    result, _, _ = run.measure(wl, seed=3, seconds=0.6, trace=1)
    assert set(result["metrics"]) == PER_LAYER
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
