import json
from types import SimpleNamespace

import numpy as np
import pytest

from nodulesynth.cli import (_verify_fusion_locality, build_parser,
                             load_config, main)
from nodulesynth.errors import NoduleSynthError, ValidationError
from nodulesynth.volume import (CropRegion, VoxelVolume, read_layout,
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
    assert lay.lung_mask().sum() > 0


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


@pytest.mark.parametrize("key,value,message", [
    ("steps", 10.5, "steps must be an integer"),
    ("patch_size", [16, 16], "patch size must be 3 positive integers"),
    ("patch_size", [16.5, 16, 16], "patch size must be 3 positive integers"),
], ids=["fractional_steps", "two_axis_patch", "fractional_patch"])
def test_sample_rejects_malformed_config(workdir, capsys, key, value,
                                         message):
    cfg = json.loads((workdir / "cfg.json").read_text())
    (cfg["solver"] if key == "steps" else cfg)[key] = value
    (workdir / "bad.json").write_text(json.dumps(cfg))
    assert main(["sample", "--config", str(workdir / "bad.json"),
                 "--reference", str(workdir / "data" / "ph0.vol.ldpv"),
                 "--lung-layout", str(workdir / "data" / "ph0.lay.ldpv"),
                 "--analytic", "--out-prefix",
                 str(workdir / "bad" / "s")]) == 2
    assert message in capsys.readouterr().err
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


def test_oracle_check_order1_passes(workdir, capsys):
    out_csv = workdir / "conv.csv"
    assert main(["oracle-check", "--orders", "1",
                 "--out-csv", str(out_csv)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert out_csv.exists()


def test_oracle_check_validation():
    assert main(["oracle-check", "--orders", "7"]) == 2
    assert main(["oracle-check", "--steps", "1,2"]) == 2


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
