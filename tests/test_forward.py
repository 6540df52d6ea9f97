import numpy as np
import pytest

from nodulesynth.forward import (NoisyState, invert_reference, masked_mix,
                                 q_sample)
from nodulesynth.volume import SemanticLayout, VoxelVolume


def test_q_sample_t0_is_identity(cosine1000, rng, small_volume):
    eps = VoxelVolume(rng.standard_normal(small_volume.dims))
    out = q_sample(small_volume, 0, eps, cosine1000)
    np.testing.assert_array_equal(out.x_t.data, small_volume.data)
    assert out.t == 0


def test_q_sample_linearity(cosine1000, rng, small_volume):
    eps = VoxelVolume(rng.standard_normal(small_volume.dims))
    t = 400
    ab, sig, _ = cosine1000.coefficients_at(t)
    out = q_sample(small_volume, t, eps, cosine1000)
    expected = np.sqrt(ab) * small_volume.data + sig * eps.data
    np.testing.assert_array_equal(out.x_t.data, expected)
    assert out.schedule is cosine1000


def test_q_sample_fractional_t_uses_continuous_view(cosine1000, rng,
                                                    small_volume):
    eps = VoxelVolume(rng.standard_normal(small_volume.dims))
    t = 400.5
    ab, sig, _ = cosine1000.coefficients_at(t)
    out = q_sample(small_volume, t, eps, cosine1000)
    expected = np.sqrt(ab) * small_volume.data + sig * eps.data
    np.testing.assert_array_equal(out.x_t.data, expected)


def test_q_sample_moments(cosine1000, rng):
    # Monte Carlo check of the marginal moments at one level.
    t = 600
    ab, sig, _ = cosine1000.coefficients_at(t)
    n = 20000
    x0 = VoxelVolume(np.full((n, 1, 1), 0.3))
    eps = VoxelVolume(rng.standard_normal((n, 1, 1)))
    xt = q_sample(x0, t, eps, cosine1000).x_t.data
    se_mean = sig / np.sqrt(n)
    assert abs(xt.mean() - np.sqrt(ab) * 0.3) < 4 * se_mean
    assert abs(xt.std(ddof=1) - sig) < 4 * sig / np.sqrt(2 * n)


def test_q_sample_dims_mismatch(cosine1000, rng, small_volume):
    eps = VoxelVolume(rng.standard_normal((4, 4, 4)))
    with pytest.raises(ValueError):
        q_sample(small_volume, 100, eps, cosine1000)


def test_invert_reference_equals_q_sample(cosine1000, rng, small_volume):
    eps = VoxelVolume(rng.standard_normal(small_volume.dims))
    a = q_sample(small_volume, 800, eps, cosine1000)
    b = invert_reference(small_volume, 800, eps, cosine1000)
    np.testing.assert_array_equal(a.x_t.data, b.x_t.data)
    assert a.t == b.t


def test_masked_mix_voxelwise_select(cosine1000, rng, small_layout):
    x0 = VoxelVolume(rng.standard_normal(small_layout.dims))
    eps = VoxelVolume(rng.standard_normal(small_layout.dims))
    bg = q_sample(x0, 700, eps, cosine1000)
    fresh = VoxelVolume(rng.standard_normal(small_layout.dims))
    mixed = masked_mix(bg, fresh, small_layout)
    mask = small_layout.nodule_mask()
    np.testing.assert_array_equal(mixed.x_t.data[mask], fresh.data[mask])
    np.testing.assert_array_equal(mixed.x_t.data[~mask], bg.x_t.data[~mask])
    assert mixed.t == bg.t


def test_masked_mix_dims_mismatch(cosine1000, rng, small_layout):
    bg = q_sample(VoxelVolume(rng.standard_normal((8, 8, 8))), 500,
                  VoxelVolume(rng.standard_normal((8, 8, 8))), cosine1000)
    with pytest.raises(ValueError):
        masked_mix(bg, VoxelVolume(rng.standard_normal((4, 4, 4))),
                   small_layout)


def test_noisy_state_t_validation(cosine1000, small_volume):
    with pytest.raises(ValueError):
        NoisyState(small_volume, -1, cosine1000)
    with pytest.raises(ValueError):
        NoisyState(small_volume, 1001, cosine1000)
