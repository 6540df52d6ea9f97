import json
import math
import struct
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from nodulesynth.cli import build_parser, load_config, main
from nodulesynth.eaas import _verify_fusion_locality
from nodulesynth.errors import NoduleSynthError, ValidationError
from nodulesynth.layout import LayoutConfig
from nodulesynth.predictor import AnalyticGaussianPredictor, TinyConvPredictor
from nodulesynth.solver import SolverConfig
from nodulesynth.volume import (LUNG, CropRegion, VoxelVolume, read_layout,
                                read_volume, write_volume)


@pytest.fixture()
def workdir(tmp_path):
    cfg = {
        "schedule": {"kind": "cosine", "T": 100},
        "solver": {"steps": 10},
        "train": {"epochs": 1, "lr": 1e-3},
        "patch_size": [16, 16, 16],
        "seed": 0,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["phantom", "--dims", "24", "24", "24", "--seed", "3",
                 "--out", str(tmp_path / "data" / "ph0")]) == 0
    return tmp_path


def test_phantom_outputs(workdir):
    vol = read_volume(workdir / "data" / "ph0.vol.ldpv")
    lay = read_layout(workdir / "data" / "ph0.lay.ldpv")
    assert vol.dims == (24, 24, 24)
    assert (lay.labels == LUNG).sum() > 0


def test_phantom_bad_dims(tmp_path):
    assert main(["phantom", "--dims", "4", "4", "4",
                 "--out", str(tmp_path / "p")]) == 2


def test_config_rejects_unknown_keys(tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"scheduler": {}}))
    with pytest.raises(ValidationError, match="unknown config key"):
        load_config(tmp_path / "bad.json")
    (tmp_path / "bad2.json").write_text(
        json.dumps({"solver": {"steps": 10, "stepz": 1}}))
    with pytest.raises(ValidationError, match="unknown keys"):
        load_config(tmp_path / "bad2.json")


def test_config_naming_every_solver_and_layout_field_loads(tmp_path):
    # Each section names every field of its constructor, at its default.
    doc = {"solver": {f.name: f.default for f in fields(SolverConfig)},
           "layout": {f.name: f.default for f in fields(LayoutConfig)}}
    (tmp_path / "all.json").write_text(json.dumps(doc))
    loaded = load_config(tmp_path / "all.json")
    assert SolverConfig(**loaded["solver"]) == SolverConfig()
    assert LayoutConfig(**loaded["layout"]) == LayoutConfig()


def test_config_rejects_invalid_json(tmp_path):
    (tmp_path / "bad.json").write_text("{nope")
    with pytest.raises(ValidationError):
        load_config(tmp_path / "bad.json")


def test_sample_exit_codes(workdir):
    args = ["sample", "--config", str(workdir / "cfg.json"),
            "--reference", str(workdir / "data" / "ph0.vol.ldpv"),
            "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
            "--out-prefix", str(workdir / "out" / "s")]
    # Neither --weights nor --analytic: validation error.
    assert main(args) == 2
    # Missing input file: I/O error.
    assert main(args[:3] + ["--reference", str(workdir / "nope.ldpv")]
                + args[5:] + ["--analytic"]) == 4


_BAD_SEED = "seed must be a non-negative integer"
_BAD_GAMMA = "gamma must be finite and >= 0"
_BAD_DIAMETER = "max_diameter_mm must be None or finite and > 0"
_BAD_PROBS = "class_probs must be finite, >= 0 and sum to 1"


# The request is checked once before any sampling, whatever --count is.
@pytest.mark.parametrize("key,value,message,extra", [
    ("solver.steps", 10.5, "steps must be an integer", []),
    ("patch_size", [16, 16], "patch size must be 3 positive integers", []),
    ("patch_size", [16.5, 16, 16], "patch size must be 3 positive integers",
     []),
    ("patch_size", [16, 16], "patch size must be 3 positive integers",
     ["--count", "0"]),
    ("seed", "x", _BAD_SEED, []),
    ("seed", 1.5, _BAD_SEED, []),
    ("seed", -3, _BAD_SEED, []),
    ("seed", True, _BAD_SEED, []),
    ("solver.gamma", float("nan"), _BAD_GAMMA, []),
    ("solver.gamma", float("inf"), _BAD_GAMMA, []),
    ("layout.max_diameter_mm", -5, _BAD_DIAMETER, []),
    ("layout.max_diameter_mm", float("nan"), _BAD_DIAMETER, []),
    ("layout.max_diameter_mm", 0, _BAD_DIAMETER, []),
    ("layout.class_probs", [float("nan"), 0.5, 0.5], _BAD_PROBS, []),
    ("layout.class_probs", [-0.5, 1.0, 0.5], _BAD_PROBS, []),
    ("layout.class_probs", 5, _BAD_PROBS, []),
    ("layout.axis_ratio_range", [0.5, 0.7, 0.9], "bad axis_ratio_range", []),
    ("layout.diameter_bounds_mm", [[1, 2, 3]], "diameter bounds must be", []),
    ("layout.max_diameter_mm", "x", _BAD_DIAMETER, []),
    ("solver.gamma", "x", _BAD_GAMMA, []),
    ("predictor.var", "x", "var finite and positive", []),
    ("solver.t_start", 5000, "t_start=5000 outside [1, 100]", []),
    ("solver.t_start", 0, "t_start=0 outside [1, 100]", []),
    ("solver.t_start", 5, "steps=10 exceeds t_start=5", []),
], ids=["fractional_steps", "two_axis_patch", "fractional_patch",
        "two_axis_patch_count_0", "string_seed", "fractional_seed",
        "negative_seed", "bool_seed", "nan_gamma", "infinite_gamma",
        "negative_max_diameter", "nan_max_diameter", "zero_max_diameter",
        "nan_class_prob", "negative_class_prob", "scalar_class_probs",
        "three_axis_ratios", "three_value_diameter_bound",
        "string_max_diameter", "string_gamma", "string_var",
        "t_start_above_T", "zero_t_start", "steps_above_t_start"])
def test_sample_rejects_malformed_config(workdir, capsys, key, value,
                                         message, extra):
    cfg = json.loads((workdir / "cfg.json").read_text())
    *section, name = key.split(".")
    (cfg.setdefault(section[0], {}) if section else cfg)[name] = value
    (workdir / "bad.json").write_text(json.dumps(cfg))
    assert main(["sample", "--config", str(workdir / "bad.json"),
                 "--reference", str(workdir / "data" / "ph0.vol.ldpv"),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--analytic", "--out-prefix",
                 str(workdir / "bad" / "s"), *extra]) == 2
    out = capsys.readouterr()
    assert message in out.err and not out.out
    assert not (workdir / "bad").exists()


@pytest.mark.parametrize("parallelism", ["0", "-1"])
def test_sample_rejects_parallelism_below_one(workdir, capsys, parallelism):
    assert main(["sample", "--config", str(workdir / "cfg.json"),
                 "--reference", str(workdir / "data" / "ph0.vol.ldpv"),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--analytic", "--parallelism", parallelism, "--out-prefix",
                 str(workdir / "bad" / "s")]) == 2
    out = capsys.readouterr()
    assert "--parallelism must be >= 1" in out.err and not out.out
    assert not (workdir / "bad").exists()


def test_sample_analytic_and_verifier(workdir):
    assert main(["sample", "--config", str(workdir / "cfg.json"),
                 "--reference", str(workdir / "data" / "ph0.vol.ldpv"),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--analytic", "--count", "2",
                 "--out-prefix", str(workdir / "out" / "s")]) == 0
    for i in range(2):
        vol = read_volume(workdir / "out" / f"s_{i:04d}.vol.ldpv")
        lay = read_layout(workdir / "out" / f"s_{i:04d}.lay.ldpv")
        assert lay.nodule_mask().sum() > 0
        prov = json.loads(
            (workdir / "out" / f"s_{i:04d}.json").read_text())
        assert prov["nfe"] == 11
        assert vol.dims == (24, 24, 24)


def test_sample_keeps_negative_zero_background(workdir):
    # The verifier compares bits, so this exits 0 only if no -0.0 voxel
    # of the reference comes back as +0.0.
    ref = read_volume(workdir / "data" / "ph0.vol.ldpv")
    data = ref.data.copy()
    data[::2] = -0.0
    write_volume(VoxelVolume(data, ref.spacing), workdir / "negzero.vol.ldpv")
    assert main(["sample", "--config", str(workdir / "cfg.json"),
                 "--reference", str(workdir / "negzero.vol.ldpv"),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--analytic", "--out-prefix", str(workdir / "nz" / "s")]) == 0
    vol = read_volume(workdir / "nz" / "s_0000.vol.ldpv")
    lay = read_layout(workdir / "nz" / "s_0000.lay.ldpv")
    changed = vol.data.view(np.uint64) != data.view(np.uint64)
    assert not np.any(changed & ~lay.nodule_mask())


@pytest.mark.parametrize("where", ["outside_crop", "inside_crop"])
def test_verifier_catches_sign_flip_of_zero(workdir, where):
    ref = read_volume(workdir / "data" / "ph0.vol.ldpv")
    lay = read_layout(workdir / "data" / "ph0.lay.ldpv")
    data = ref.data.copy()
    data[0, 0, 0] = data[12, 12, 12] = -0.0
    flipped = data.copy()
    flipped[(0, 0, 0) if where == "outside_crop" else (12, 12, 12)] = 0.0
    result = SimpleNamespace(full_volume=VoxelVolume(flipped, ref.spacing),
                             full_layout=lay,
                             crop=CropRegion((4, 4, 4), (16, 16, 16)))
    with pytest.raises(NoduleSynthError):
        _verify_fusion_locality(result, VoxelVolume(data, ref.spacing),
                                "per_step")


def test_sample_exits_3_on_planted_sign_flip(workdir, plant_sign_flip):
    # The library's locality check rejects the first request; the
    # second is written as usual.
    ref = read_volume(workdir / "data" / "ph0.vol.ldpv")
    data = ref.data.copy()
    data[::2] = -0.0
    write_volume(VoxelVolume(data, ref.spacing), workdir / "negzero.vol.ldpv")
    assert main(["sample", "--config", str(workdir / "cfg.json"),
                 "--reference", str(workdir / "negzero.vol.ldpv"),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--analytic", "--count", "2",
                 "--out-prefix", str(workdir / "pl" / "s")]) == 3
    assert len(plant_sign_flip) == 1
    assert sorted(p.name for p in (workdir / "pl").iterdir()) == [
        "s_0001.json", "s_0001.lay.ldpv", "s_0001.vol.ldpv"]


def _plant_predictions(monkeypatch, calls, plant):
    """Make the first ``calls`` analytic predictions return (or raise)
    ``plant(x_t)`` instead."""
    honest = AnalyticGaussianPredictor._predict
    made = []

    def predict(self, x_t, t, c):
        made.append(t)
        if len(made) > calls:
            return honest(self, x_t, t, c)
        return plant(x_t)

    monkeypatch.setattr(AnalyticGaussianPredictor, "_predict", predict)


def _validation_error(x_t):
    raise ValidationError("planted input error")


def _nan_output(x_t):
    return np.full(x_t.dims, np.nan)


def _sample_two(workdir, reference, out):
    return main(["sample", "--config", str(workdir / "cfg.json"),
                 "--reference", str(reference),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--analytic", "--count", "2",
                 "--out-prefix", str(workdir / out / "s")])


def test_sample_exits_2_when_every_failure_is_a_validation_error(
        workdir, monkeypatch):
    _plant_predictions(monkeypatch, math.inf, _validation_error)
    assert _sample_two(workdir, workdir / "data" / "ph0.vol.ldpv",
                       "bad") == 2
    assert not list((workdir / "bad").iterdir())


def test_sample_exits_3_on_non_finite_predictions(workdir, monkeypatch,
                                                  caplog):
    # A non-finite predictor output is a numeric failure, not bad input.
    _plant_predictions(monkeypatch, math.inf, _nan_output)
    assert _sample_two(workdir, workdir / "data" / "ph0.vol.ldpv",
                       "nan") == 3
    assert caplog.text.count("SolverError: non-finite predictor output") == 2
    assert not list((workdir / "nan").iterdir())


def test_sample_exits_3_when_any_failure_is_not_a_validation_error(
        workdir, monkeypatch, plant_sign_flip):
    # The first request fails at its first prediction, so the sign flip
    # lands in the second, which fails the locality check.
    _plant_predictions(monkeypatch, 1, _validation_error)
    ref = read_volume(workdir / "data" / "ph0.vol.ldpv")
    data = ref.data.copy()
    data[::2] = -0.0
    write_volume(VoxelVolume(data, ref.spacing), workdir / "negzero.vol.ldpv")
    assert _sample_two(workdir, workdir / "negzero.vol.ldpv", "mix") == 3
    assert len(plant_sign_flip) == 1
    assert not list((workdir / "mix").iterdir())


def test_sample_init_only(workdir):
    # init_only never re-imposes the background, so voxels outside the
    # nodule may change; only the volume outside the crop is pinned.
    cfg = json.loads((workdir / "cfg.json").read_text())
    cfg["solver"]["blend_mode"] = "init_only"
    (workdir / "init_only.json").write_text(json.dumps(cfg))
    assert main(["sample", "--config", str(workdir / "init_only.json"),
                 "--reference", str(workdir / "data" / "ph0.vol.ldpv"),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--analytic", "--out-prefix", str(workdir / "io" / "s")]) == 0
    ref = read_volume(workdir / "data" / "ph0.vol.ldpv")
    vol = read_volume(workdir / "io" / "s_0000.vol.ldpv")
    lay = read_layout(workdir / "io" / "s_0000.lay.ldpv")
    prov = json.loads((workdir / "io" / "s_0000.json").read_text())
    changed = vol.data != ref.data
    assert np.any(changed & ~lay.nodule_mask())
    inside = np.zeros(ref.dims, dtype=bool)
    inside[tuple(slice(o, o + n) for o, n in
                 zip(prov["crop_origin"], prov["crop_size"]))] = True
    assert not np.any(changed & ~inside)
    assert prov["eval_size"] == prov["crop_size"]


def test_train_then_sample(workdir):
    assert main(["train", "--config", str(workdir / "cfg.json"),
                 "--data-dir", str(workdir / "data"),
                 "--out-weights", str(workdir / "w.ldpw")]) == 0
    assert (workdir / "w.ldpw").exists()
    assert (workdir / "w.ldpw.loss.csv").read_text().startswith("step,loss")
    assert main(["sample", "--config", str(workdir / "cfg.json"),
                 "--reference", str(workdir / "data" / "ph0.vol.ldpv"),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--weights", str(workdir / "w.ldpw"),
                 "--out-prefix", str(workdir / "out2" / "s")]) == 0


def test_sample_with_a_non_finite_weight_exits_4_and_writes_nothing(
        workdir, capsys):
    weights = workdir / "nan.ldpw"
    TinyConvPredictor(seed=0).save(weights)
    raw = bytearray(weights.read_bytes())
    raw[12:16] = struct.pack("<f", math.nan)
    weights.write_bytes(bytes(raw))
    assert main(["sample", "--config", str(workdir / "cfg.json"),
                 "--reference", str(workdir / "data" / "ph0.vol.ldpv"),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--weights", str(weights),
                 "--out-prefix", str(workdir / "out" / "s")]) == 4
    assert "non-finite weight" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_train_empty_data_dir(workdir, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["train", "--config", str(workdir / "cfg.json"),
                 "--data-dir", str(empty),
                 "--out-weights", str(workdir / "w2.ldpw")]) == 2


def test_bench_smoke_suite(workdir, capsys):
    out_csv = workdir / "bench.csv"
    assert main(["bench", "--suite", "smoke", "--trials", "1",
                 "--warmup", "0", "--out-csv", str(out_csv)]) == 0
    assert out_csv.exists()
    assert "nfe" in capsys.readouterr().out


def test_bench_unknown_suite():
    assert main(["bench", "--suite", "nope"]) == 2


@pytest.mark.parametrize("trials", ["1", "2"])
def test_bench_rejects_negative_warmup(workdir, capsys, trials):
    out_csv = workdir / "bench.csv"
    assert main(["bench", "--suite", "smoke", "--trials", trials,
                 "--warmup", "-1", "--out-csv", str(out_csv)]) == 2
    out = capsys.readouterr()
    assert "warmup must be an integer >= 0" in out.err and not out.out
    assert not out_csv.exists()


def test_oracle_check_order1_passes(workdir, capsys):
    out_csv = workdir / "conv.csv"
    assert main(["oracle-check", "--orders", "1",
                 "--out-csv", str(out_csv)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert out_csv.exists()


def test_oracle_check_validation():
    assert main(["oracle-check", "--orders", "7"]) == 2
    assert main(["oracle-check", "--steps", "1,2"]) == 2


# Each case is rejected before any work, so nothing is written.
@pytest.mark.parametrize("command,config,flags,message", [
    ("train", {"seed": "x"}, [], _BAD_SEED),
    ("train", {"seed": -1}, [], _BAD_SEED),
    ("train", {"seed": True}, [], _BAD_SEED),
    ("train", {}, ["--seed", "-1"], _BAD_SEED),
    ("train", {"train": {"lr": "x"}}, [], "lr must be a positive real"),
    ("train", {"train": {"lr": 0}}, [], "lr must be a positive real"),
    ("train", {"train": {"lr": True}}, [], "lr must be a positive real"),
    ("train", {"train": {"epochs": 1.7}}, [], "epochs must be an integer"),
    ("train", {"train": {"epochs": True}}, [], "epochs must be an integer"),
    ("train", {"train": {"epochs": -1}}, [], "epochs must be an integer"),
    ("oracle-check", {}, ["--steps", "8,x"], "--steps must be comma"),
    ("oracle-check", {}, ["--orders", "1,a"], "--orders must be comma"),
    ("oracle-check", {}, ["--steps", "16,16"], "must be distinct integers"),
], ids=["string_seed", "negative_seed", "bool_seed", "negative_seed_flag",
        "string_lr", "zero_lr", "bool_lr", "fractional_epochs",
        "bool_epochs", "negative_epochs", "string_steps", "string_orders",
        "repeated_steps"])
def test_train_and_oracle_check_reject_malformed_input(
        workdir, capsys, command, config, flags, message):
    cfg = json.loads((workdir / "cfg.json").read_text())
    for key, value in config.items():
        if key == "train":
            cfg["train"].update(value)
        else:
            cfg[key] = value
    (workdir / "bad.json").write_text(json.dumps(cfg))
    out_dir = workdir / "bad"
    if command == "train":
        argv = ["train", "--config", str(workdir / "bad.json"),
                "--data-dir", str(workdir / "data"),
                "--out-weights", str(out_dir / "w.ldpw")]
    else:
        argv = ["oracle-check", "--out-csv", str(out_dir / "conv.csv")]
    assert main(argv + flags) == 2
    out = capsys.readouterr()
    assert message in out.err and not out.out
    assert not out_dir.exists()


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
