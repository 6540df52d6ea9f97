"""Golden SHA-256 hashes of fused outputs for fixed configs and seeds.

The hashes pin the exact output bytes, so a refactor or speed-up of the
sampling path that changes any bit of any result fails here.  Rerunning
one build twice (the determinism checks elsewhere) cannot show that.
The values were recorded with the full-patch per-step solver, on
x86-64, with a conv forward pass that multiplies each kernel tap with
numpy's own einsum loop (never BLAS) and sums the taps in a fixed
order; another numpy build or CPU may round differently and need them
re-recorded from a known-good commit.

The training case pins the loss curve and the final weights of
``train``.  Its forward and backward passes multiply on BLAS, so beside
the numpy build the BLAS library and the CPU kernel it picks (FMA or
not, block sizes) can change its bits; re-record it the same way.
"""

import hashlib
import json

import numpy as np
import pytest

from nodulesynth.cli import main
from nodulesynth.eaas import EaasRequest, run_eaas
from nodulesynth.layout import LayoutConfig, place_nodule, sample_nodule_spec
from nodulesynth.oracle import convergence_study
from nodulesynth.predictor import (AnalyticGaussianPredictor, TinyConvPredictor,
                                   train)
from nodulesynth.schedule import make_schedule
from nodulesynth.solver import SolverConfig
from nodulesynth.volume import CropRegion, crop, make_phantom

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
    "dpm3_midpoint": (
        "cd10fec152c256c03e7703a33aa5329bdcb45a652bbad4196464302c183bfffd",
        "55370f59a7f977ea48520bf5e737b88749adb5c855c858fe3946ae88dda94acc"),
    "gamma": (
        "7ba2b988b62bccfde28d238432505c2d4a5a2db798a16472abae57857a4f2e2d",
        "55e390041f812d9ec0532c25b4ea6835594d05958edc0261b85fa29b32e3c261"),
    "init_only": (
        "767998d95ec291a39508f5c4ddb6b27b0ec082827d06d4141e4b451a1c2cb0ec",
        "5c6d4eb33ec7433e045490bee3af1d2b6cb4fd45d196942085aba159e1ff47c3"),
}

# SHA-256 of (loss curve as float64 bytes, final get_flat() bytes) of
# train() on two pairs of different dims for 2 epochs.
TRAIN_GOLDEN = (
    "585a08c897046e061403bc81a9edbf818922df9cf98ca7bf69ed9f680a6a927a",
    "85829823b760756c2d3eb87a5c3f14bdc7763cb8720cabb93d988d0c1d0a942f")

# SHA-256 of every convergence_study terminal error as float64 bytes
# (orders 1-3 at 8, 16 and 32 steps).  The oracle CSV prints 6
# significant digits, so only this pins the float grid's coefficients.
CONVERGENCE_GOLDEN = (
    "7401e925f6bd8e92a75410d98fde491ea43c886c99b5c963bdd1f1f8c440168e")

EAAS_CASES = {
    "dpm3": dict(predictor="tinyconv", seed=7,
                 solver=SolverConfig(method="dpm3", steps=4)),
    # The starter's midpoint lambda is negative here, where the plain
    # sigmoid and coefficients_of_lambda differ in the last bit of
    # alpha_bar; the output pins which one the dpm3 starter uses.
    "dpm3_midpoint": dict(predictor="tinyconv", seed=11,
                          solver=SolverConfig(method="dpm3", steps=4,
                                              t_start=900)),
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


def test_train_golden(thorax):
    vol, lung = thorax
    rng = np.random.default_rng(4)
    pairs = []
    for region in (CropRegion((4, 6, 5), (14, 14, 14)),
                   CropRegion((10, 8, 12), (12, 16, 10))):
        x0, lung_patch = crop(vol, region), crop(lung, region)
        spec = sample_nodule_spec(LayoutConfig(max_diameter_mm=8.0), rng)
        pairs.append((x0, place_nodule(spec, lung_patch, x0.spacing, rng)))
    p = TinyConvPredictor(seed=1)
    losses = train(p, pairs, make_schedule("cosine", 1000), epochs=2, seed=13)
    got = (_sha(np.asarray(losses, np.float64).tobytes()),
           _sha(p.get_flat().tobytes()))
    assert got == TRAIN_GOLDEN


def test_convergence_errors_golden():
    results = convergence_study(make_schedule("cosine", 1000),
                                steps_list=(8, 16, 32), n_ref=5000)
    errors = [e for res in results for e in res.errors]
    assert _sha(np.asarray(errors, np.float64).tobytes()) == CONVERGENCE_GOLDEN
