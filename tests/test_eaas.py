import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodulesynth.eaas import (BatchItem, EaasRequest, run_batch, run_eaas,
                              write_provenance)
from nodulesynth.layout import LayoutConfig
from nodulesynth.predictor import (AnalyticGaussianPredictor, NoisePredictor,
                                   TinyConvPredictor, train_step)
from nodulesynth.solver import SolverConfig
from nodulesynth.volume import (CropRegion, SemanticLayout, VoxelVolume, crop,
                                make_phantom)


@pytest.fixture(scope="module")
def phantom():
    return make_phantom(11, (32, 32, 32))


def _request(phantom, schedule, seed=0, **kw):
    vol, lay = phantom
    defaults = dict(reference=vol, lung_layout=lay,
                    predictor=AnalyticGaussianPredictor(0.0, 1.0, schedule),
                    schedule=schedule, solver=SolverConfig(steps=10),
                    patch_size=(16, 16, 16), seed=seed)
    defaults.update(kw)
    return EaasRequest(**defaults)


def test_request_validation(phantom, cosine1000):
    vol, lay = phantom
    with pytest.raises(ValueError):
        _request(phantom, cosine1000, patch_size=(64, 64, 64))
    with pytest.raises(ValueError):
        EaasRequest(reference=vol,
                    lung_layout=SemanticLayout(np.zeros((8, 8, 8), np.uint8)),
                    predictor=None, schedule=cosine1000)


@pytest.mark.parametrize("patch_size", [(16, 16), (16, 16, 16, 16),
                                        (16.5, 16, 16), (16, 0, 16),
                                        (16, True, 16), 16, "16x16x16"])
def test_request_rejects_malformed_patch_size(phantom, cosine1000,
                                              patch_size):
    with pytest.raises(ValueError, match="3 positive integers"):
        _request(phantom, cosine1000, patch_size=patch_size)


def test_request_takes_numpy_integer_patch_size(phantom, cosine1000):
    req = _request(phantom, cosine1000, patch_size=[np.int64(16)] * 3)
    assert req.patch_size == (16, 16, 16)
    assert all(type(v) is int for v in req.patch_size)


def test_run_eaas_locality(phantom, cosine1000):
    vol, lay = phantom
    res = run_eaas(_request(phantom, cosine1000, seed=4))
    outside = np.ones(vol.dims, dtype=bool)
    outside[res.crop.slices()] = False
    # Outside the crop: bit-identical to the reference.
    np.testing.assert_array_equal(res.full_volume.data[outside],
                                  vol.data[outside])
    # Every changed voxel lies inside the synthesized nodule mask.
    changed = res.full_volume.data != vol.data
    assert changed.any()
    assert not np.any(changed & ~res.full_layout.nodule_mask())
    # The layout outside the crop is untouched too.
    np.testing.assert_array_equal(res.full_layout.labels[outside],
                                  lay.labels[outside])


@pytest.mark.parametrize("method", ["dpm2_multistep", "ancestral"])
def test_run_eaas_keeps_negative_zero_background(phantom, cosine1000, method):
    # The background at t = 0 is the reference itself, not ref + 0 * eps,
    # which would turn every -0.0 voxel into +0.0.
    vol, lay = phantom
    data = vol.data.copy()
    data[::2] = -0.0
    ref = VoxelVolume(data, vol.spacing)
    res = run_eaas(_request((ref, lay), cosine1000, seed=4,
                            solver=SolverConfig(method=method, steps=10)))
    changed = res.full_volume.data.view(np.uint64) != data.view(np.uint64)
    assert changed.any()
    assert not np.any(changed & ~res.full_layout.nodule_mask())


def test_run_eaas_deterministic(phantom, cosine1000):
    a = run_eaas(_request(phantom, cosine1000, seed=9))
    b = run_eaas(_request(phantom, cosine1000, seed=9))
    np.testing.assert_array_equal(a.full_volume.data, b.full_volume.data)
    np.testing.assert_array_equal(a.full_layout.labels, b.full_layout.labels)
    assert a.crop == b.crop


def test_run_eaas_seed_changes_output(phantom, cosine1000):
    a = run_eaas(_request(phantom, cosine1000, seed=1))
    b = run_eaas(_request(phantom, cosine1000, seed=2))
    assert not np.array_equal(a.full_volume.data, b.full_volume.data)


def test_provenance_fields(phantom, cosine1000, tmp_path):
    res = run_eaas(_request(phantom, cosine1000, seed=5))
    prov = res.provenance
    assert prov["seed"] == 5
    assert prov["nfe"] == 11
    assert prov["nodule_voxels"] == int(res.full_layout.nodule_mask().sum())
    assert prov["wall_time_s"] > 0
    # The evaluated region lies in the crop and holds every nodule voxel.
    lo = np.array(prov["eval_origin"])
    hi = lo + prov["eval_size"]
    assert prov["eval_voxels"] == int(np.prod(prov["eval_size"]))
    assert np.all(hi <= prov["crop_size"])
    idx = np.argwhere(res.full_layout.nodule_mask()) - prov["crop_origin"]
    assert np.all(idx >= lo) and np.all(idx < hi)
    assert prov["eval_voxels"] < np.prod(prov["crop_size"])
    write_provenance(res, tmp_path / "prov.json")
    assert json.loads((tmp_path / "prov.json").read_text())["seed"] == 5


@pytest.mark.parametrize("seed, eval_size, layers", [
    # Interior box, cut on all six faces: 11^3 -> 9^3, 7^3, 5^3.
    (4, [11, 11, 11], [(9, 9, 9), (7, 7, 7), (5, 5, 5)]),
    # On the patch's low x border: x drops one voxel per layer, not two.
    (2, [11, 11, 11], [(9, 9, 10), (7, 7, 9), (5, 5, 8)]),
])
def test_provenance_eval_flops_hand_count(phantom, cosine1000, seed,
                                          eval_size, layers):
    req = _request(phantom, cosine1000, seed=seed,
                   predictor=TinyConvPredictor(seed=0),
                   solver=SolverConfig(steps=2), patch_size=(24, 24, 24),
                   layout_cfg=LayoutConfig(max_diameter_mm=6.0))
    prov = run_eaas(req).provenance
    assert prov["eval_size"] == eval_size
    # 2 FLOPs per multiply-add of each 3^3 layer (2->8, 8->8, 8->1), on
    # the voxels it outputs, times NFE = 3.
    per_eval = sum(2 * 27 * cin * cout * int(np.prod(size))
                   for (cin, cout), size in zip([(2, 8), (8, 8), (8, 1)],
                                                layers))
    assert prov["eval_flops"] == 3 * per_eval
    # The analytic predictor does not count FLOPs.
    req = _request(phantom, cosine1000, seed=seed)
    assert run_eaas(req).provenance["eval_flops"] is None


def test_run_batch_matches_standalone(phantom, cosine1000):
    reqs = [_request(phantom, cosine1000, seed=s) for s in (3, 4, 5)]
    solo = [run_eaas(r) for r in reqs]
    for par in (1, 4):
        items = run_batch([_request(phantom, cosine1000, seed=s)
                           for s in (3, 4, 5)], parallelism=par)
        assert all(isinstance(it, BatchItem) and it.error is None
                   for it in items)
        for it, ref in zip(items, solo):
            np.testing.assert_array_equal(it.result.full_volume.data,
                                          ref.full_volume.data)


@pytest.fixture(scope="module")
def trained_conv(phantom, cosine1000):
    """A tiny conv net that has taken one training step, so it holds a
    training workspace."""
    vol, lay = phantom
    region = CropRegion((8, 8, 8), (12, 12, 12))
    p = TinyConvPredictor(seed=0)
    train_step(p, crop(vol, region), crop(lay, region),
               np.random.default_rng(0), cosine1000)
    assert p._workspace is not None
    return p


@pytest.mark.parametrize("kind", ["analytic", "trained_conv"])
@settings(max_examples=4, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 16), min_size=2, max_size=3))
def test_run_batch_bytes_equal_across_parallelism(phantom, cosine1000,
                                                  trained_conv, kind, seeds):
    predictor = trained_conv if kind == "trained_conv" \
        else AnalyticGaussianPredictor(0.0, 1.0, cosine1000)

    def workspace_bytes():
        ws = getattr(predictor, "_workspace", None)
        return ws and {k: b.tobytes() for k, b in ws.slots.items()}

    def run(parallelism):
        items = run_batch([_request(phantom, cosine1000, seed=s,
                                    predictor=predictor,
                                    solver=SolverConfig(steps=4))
                           for s in seeds], parallelism=parallelism)
        return [(it.error, None) if it.result is None else
                (it.result.full_volume.data.tobytes(),
                 it.result.full_layout.labels.tobytes()) for it in items]

    before = workspace_bytes()
    assert run(1) == run(2)
    # Inference allocates its own arrays: requests on other threads leave
    # the training workspace as it was.
    assert workspace_bytes() == before


def test_run_batch_captures_failures(phantom, cosine1000):
    vol, _ = phantom
    # A layout without lung voxels makes crop search fail inside run_eaas.
    bad = _request(phantom, cosine1000,
                   lung_layout=SemanticLayout(
                       np.zeros(vol.dims, np.uint8)))
    good = _request(phantom, cosine1000, seed=1)
    items = run_batch([bad, good], parallelism=2)
    assert items[0].error is not None and "SearchExhaustedError" in items[0].error
    assert items[0].result is None
    assert items[1].error is None


class _BuggyPredictor(NoisePredictor):
    def _predict(self, x_t, t, c):
        raise TypeError("planted bug")


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_batch_propagates_programming_errors(phantom, cosine1000,
                                                 parallelism):
    reqs = [_request(phantom, cosine1000, seed=s,
                     predictor=_BuggyPredictor()) for s in (0, 1)]
    with pytest.raises(TypeError, match="planted bug"):
        run_batch(reqs, parallelism=parallelism)


def test_run_batch_validation(phantom, cosine1000):
    with pytest.raises(ValueError):
        run_batch([_request(phantom, cosine1000)], parallelism=0)
