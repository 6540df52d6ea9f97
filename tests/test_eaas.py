import json

import numpy as np
import pytest

from nodulesynth.eaas import (BatchItem, EaasRequest, run_batch, run_eaas,
                              write_provenance)
from nodulesynth.predictor import AnalyticGaussianPredictor
from nodulesynth.solver import SolverConfig
from nodulesynth.volume import SemanticLayout, VoxelVolume, make_phantom


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


def test_run_batch_validation(phantom, cosine1000):
    with pytest.raises(ValueError):
        run_batch([_request(phantom, cosine1000)], parallelism=0)
