import numpy as np
import pytest

from nodulesynth import SemanticLayout, VoxelVolume, make_schedule


@pytest.fixture(scope="session")
def cosine1000():
    return make_schedule("cosine", 1000)


@pytest.fixture(scope="session")
def cosine100():
    return make_schedule("cosine", 100)


@pytest.fixture(scope="session")
def linear1000():
    return make_schedule("linear", 1000)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def small_layout():
    """8^3 layout with a 3^3 nodule block inside a lung slab."""
    labels = np.zeros((8, 8, 8), dtype=np.uint8)
    labels[1:7, 1:7, 1:7] = 1
    labels[2:5, 2:5, 2:5] = 2
    return SemanticLayout(labels)


@pytest.fixture()
def small_volume(rng):
    return VoxelVolume(rng.standard_normal((8, 8, 8)))


@pytest.fixture()
def plant_sign_flip(monkeypatch):
    """Make the first ``pulmonary_solve`` inside ``run_eaas`` turn one
    -0.0 background voxel of its box into +0.0; returns a list that
    receives that voxel's index in the box once the flip is planted."""
    import nodulesynth.eaas as eaas
    from nodulesynth.volume import NODULE

    honest = eaas.pulmonary_solve
    flipped = []

    def leaky(x_init, x_ref, m, p, cfg, rng, s):
        box = honest(x_init, x_ref, m, p, cfg, rng, s)
        if flipped:
            return box
        negzero = (np.signbit(box.data) & (box.data == 0.0)
                   & (m.labels != NODULE))
        at = tuple(int(i) for i in np.argwhere(negzero)[0])
        data = box.data.copy()
        data[at] = 0.0
        flipped.append(at)
        return VoxelVolume(data, box.spacing)

    monkeypatch.setattr(eaas, "pulmonary_solve", leaky)
    return flipped
