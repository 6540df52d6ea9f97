"""Golden SHA-256 hashes of fused outputs for fixed configs and seeds.

The hashes pin the exact output bytes, so a refactor or speed-up of the
sampling path that changes any bit of any result fails here.  Rerunning
one build twice (the determinism checks elsewhere) cannot show that.
The values were recorded with the full-patch per-step solver, on
x86-64 with numpy's own einsum loops; another numpy build or CPU may
round differently and need them re-recorded from a known-good commit.
"""

import hashlib
import json

import numpy as np
import pytest

from nodulesynth.cli import main
from nodulesynth.eaas import EaasRequest, run_eaas
from nodulesynth.predictor import AnalyticGaussianPredictor, TinyConvPredictor
from nodulesynth.schedule import make_schedule
from nodulesynth.solver import SolverConfig
from nodulesynth.volume import make_phantom

PATCH = (24, 24, 24)

# SHA-256 of (volume file, layout file) written by `nodulesynth sample`.
CLI_GOLDEN = {
    "analytic": (
        "28d77ec07d75033af1c6c0d4887eb166f6fc45a1c896c54b8a98f14ffd25bb7f",
        "b54eef6c9eb3fd76ea990b90761ee1e0719350ee62bba90ce44bbede54d90151"),
    "tinyconv": (
        "e51239c7f7f76227bb82fe3f41749948590c2104b308b34584764c50c6748454",
        "b54eef6c9eb3fd76ea990b90761ee1e0719350ee62bba90ce44bbede54d90151"),
}

# SHA-256 of (fused volume float64 bytes, fused label bytes) of run_eaas.
EAAS_GOLDEN = {
    "dpm3": (
        "c49fd76885880c006c255e57eb840592115cc62157ff67189ae15d18cb02ce41",
        "1529a6d01832dff570cf37c95a90db1f08f18bbcfa6784a5222c46012f887b72"),
    "ancestral": (
        "16974527c3ddec8f2d718314236b32f7e120c8a047fc80028c1493508ee11eec",
        "4456a70201a3fe9525924fa62aa7b2283203e81d1b2b3c01adc79e3fab9074ed"),
    "gamma": (
        "7ba2b988b62bccfde28d238432505c2d4a5a2db798a16472abae57857a4f2e2d",
        "55e390041f812d9ec0532c25b4ea6835594d05958edc0261b85fa29b32e3c261"),
    "init_only": (
        "767998d95ec291a39508f5c4ddb6b27b0ec082827d06d4141e4b451a1c2cb0ec",
        "5c6d4eb33ec7433e045490bee3af1d2b6cb4fd45d196942085aba159e1ff47c3"),
}

EAAS_CASES = {
    "dpm3": dict(predictor="tinyconv", seed=7,
                 solver=SolverConfig(method="dpm3", steps=4)),
    "ancestral": dict(predictor="analytic", seed=8,
                      solver=SolverConfig(method="ancestral", steps=20,
                                          t_start=400)),
    "gamma": dict(predictor="tinyconv", seed=9,
                  solver=SolverConfig(method="dpm2_multistep", steps=5,
                                      gamma=0.5)),
    "init_only": dict(predictor="analytic", seed=10,
                      solver=SolverConfig(method="dpm1", steps=6,
                                          blend_mode="init_only")),
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def thorax():
    return make_phantom(21, (32, 32, 32))


@pytest.mark.parametrize("kind", sorted(CLI_GOLDEN))
def test_cli_sample_golden(kind, tmp_path):
    cfg = {"schedule": {"kind": "cosine", "T": 1000},
           "solver": {"steps": 6}, "patch_size": list(PATCH), "seed": 0}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["phantom", "--dims", "32", "32", "32", "--seed", "5",
                 "--out", str(tmp_path / "ph")]) == 0
    args = ["sample", "--config", str(tmp_path / "cfg.json"),
            "--reference", str(tmp_path / "ph.vol.ldpv"),
            "--lung-layout", str(tmp_path / "ph.lay.ldpv"),
            "--out-prefix", str(tmp_path / "out" / "s")]
    if kind == "analytic":
        args.append("--analytic")
    else:
        TinyConvPredictor(seed=0).save(tmp_path / "w.ldpw")
        args += ["--weights", str(tmp_path / "w.ldpw")]
    assert main(args) == 0
    got = tuple(_sha((tmp_path / "out" / f"s_0000.{ext}.ldpv").read_bytes())
                for ext in ("vol", "lay"))
    assert got == CLI_GOLDEN[kind]


@pytest.mark.parametrize("case", sorted(EAAS_CASES))
def test_run_eaas_golden(case, thorax):
    spec = EAAS_CASES[case]
    s = make_schedule("cosine", 1000)
    predictor = TinyConvPredictor(seed=0) if spec["predictor"] == "tinyconv" \
        else AnalyticGaussianPredictor(0.0, 1.0, s)
    vol, lay = thorax
    res = run_eaas(EaasRequest(vol, lay, predictor, s, spec["solver"],
                               patch_size=PATCH, seed=spec["seed"]))
    got = (_sha(np.ascontiguousarray(res.full_volume.data).tobytes()),
           _sha(np.ascontiguousarray(res.full_layout.labels).tobytes()))
    assert got == EAAS_GOLDEN[case]
