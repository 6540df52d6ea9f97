import math
import struct
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.special import expit

from nodulesynth import spare
from nodulesynth.errors import FormatError, ValidationError
from nodulesynth.forward import q_sample
from nodulesynth.predictor import (_BLOCK, HALO, Adam,
                                   AnalyticGaussianPredictor,
                                   TinyConvPredictor, _blas_product,
                                   _conv3d, _conv3d_grad_w, _conv3d_grad_x,
                                   _einsum_product, _flat_layout,
                                   _flatten_grads, _silu_layout,
                                   _time_embedding, _Workspace, train,
                                   train_step, write_loss_curve)
from nodulesynth.volume import NO_CUT, SemanticLayout, VoxelVolume


def test_analytic_predictor_posterior_mean_identity(cosine1000, rng):
    # For Gaussian data the data-prediction implied by the analytic noise
    # prediction must equal the posterior mean E[x0 | x_t], which has a
    # well-known closed form.  Independent derivation both sides.
    mu, var = 0.4, 0.5
    p = AnalyticGaussianPredictor(mu, var, cosine1000)
    x_t = VoxelVolume(rng.standard_normal((5, 5, 5)))
    for t in (50, 500, 950):
        ab, sig, _ = cosine1000.coefficients_at(t)
        eps_hat = p.predict(x_t, t, None)
        x0_hat = (x_t.data - sig * eps_hat.data) / np.sqrt(ab)
        post_mean = (mu * sig ** 2 + np.sqrt(ab) * var * x_t.data) \
            / (ab * var + sig ** 2)
        np.testing.assert_allclose(x0_hat, post_mean, rtol=1e-10)


def test_analytic_predictor_exact_on_true_draws(cosine1000, rng):
    # When x_t is built from mu exactly (var -> 0 limit checked loosely),
    # the predicted noise approaches the true noise as var shrinks.
    mu = 0.2
    x0 = VoxelVolume(np.full((6, 6, 6), mu))
    eps = VoxelVolume(rng.standard_normal((6, 6, 6)))
    state = q_sample(x0, 700, eps, cosine1000)
    p = AnalyticGaussianPredictor(mu, 1e-12, cosine1000)
    eps_hat = p.predict(state.x_t, 700, None)
    np.testing.assert_allclose(eps_hat.data, eps.data, atol=1e-6)


def test_eval_count_increments(cosine1000, rng):
    p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
    x = VoxelVolume(rng.standard_normal((4, 4, 4)))
    assert p.eval_count == 0
    p.predict(x, 100, None)
    p.predict(x, 200, None)
    assert p.eval_count == 2


def test_analytic_predictor_validation(cosine1000):
    with pytest.raises(ValueError):
        AnalyticGaussianPredictor(0.0, 0.0, cosine1000)


@pytest.mark.parametrize("mu,var", [("x", 1.0), (float("nan"), 1.0),
                                    (0.0, "x"), (0.0, float("inf")),
                                    (0.0, None)])
def test_analytic_predictor_rejects_malformed_moments(cosine1000, mu, var):
    with pytest.raises(ValidationError, match="mu must be finite"):
        AnalyticGaussianPredictor(mu, var, cosine1000)


# -- conv machinery ----------------------------------------------------------


def test_conv3d_matches_scipy(rng):
    # Oracle: per (out, in) channel pair the layer is a cross-correlation
    # with zero padding.
    x = rng.standard_normal((3, 5, 6, 4))
    w = rng.standard_normal((2, 3, 3, 3, 3))
    b = rng.standard_normal(2)
    out = _conv3d(_flat_layout(x), w, b, product=_einsum_product)
    expected = np.zeros((2, 5, 6, 4))
    for o in range(2):
        for i in range(3):
            expected[o] += ndimage.correlate(x[i], w[o, i], mode="constant")
        expected[o] += b[o]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_conv3d_backward_finite_difference(rng):
    x = rng.standard_normal((2, 4, 4, 4))
    w = rng.standard_normal((2, 2, 3, 3, 3)) * 0.3
    gout = rng.standard_normal((2, 4, 4, 4))
    gl = _flat_layout(gout)
    gx, gw = _conv3d_grad_x(w, gl), _conv3d_grad_w(_flat_layout(x), gl)
    h = 1e-6

    def loss(xv, wv):
        out = _conv3d(_flat_layout(xv), wv, product=_einsum_product)
        return float(np.sum(out * gout))

    for idx in [(0, 1, 2, 3), (1, 3, 0, 0)]:
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        num = (loss(xp, w) - loss(xm, w)) / (2 * h)
        assert num == pytest.approx(gx[idx], rel=1e-5, abs=1e-8)
    for idx in [(0, 0, 1, 1, 1), (1, 1, 2, 0, 2)]:
        wp = w.copy(); wp[idx] += h
        wm = w.copy(); wm[idx] -= h
        num = (loss(x, wp) - loss(x, wm)) / (2 * h)
        assert num == pytest.approx(gw[idx], rel=1e-5, abs=1e-8)


def _einsum_conv3d(x, w, b=None):
    """Reference kernel: one einsum per tap over shifted 4-D views of the
    padded input, accumulated in (dz, dy, dx) order."""
    _, Z, Y, X = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    out = np.zeros((w.shape[0], Z, Y, X))
    for dz in range(3):
        for dy in range(3):
            for dx in range(3):
                out += np.einsum("oi,izyx->ozyx", w[:, :, dz, dy, dx],
                                 xp[:, dz:dz + Z, dy:dy + Y, dx:dx + X])
    if b is not None:
        out += b[:, None, None, None]
    return out


def _einsum_conv3d_backward(x, w, gout):
    """Reference gradients of _einsum_conv3d w.r.t. input and weights."""
    _, Z, Y, X = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for dz in range(3):
        for dy in range(3):
            for dx in range(3):
                patch = xp[:, dz:dz + Z, dy:dy + Y, dx:dx + X]
                gw[:, :, dz, dy, dx] = np.einsum("ozyx,izyx->oi", gout, patch)
                gxp[:, dz:dz + Z, dy:dy + Y, dx:dx + X] += np.einsum(
                    "oi,ozyx->izyx", w[:, :, dz, dy, dx], gout)
    return gxp[:, 1:-1, 1:-1, 1:-1], gw


channels_st = st.sampled_from([1, 2, 8])
conv_dims_st = st.tuples(*[st.integers(1, 7)] * 3)


# 20 x 21 x 22 spans more than one flat block of the conv loops.
@settings(max_examples=40, deadline=None)
@given(cin=channels_st, cout=channels_st, dims=conv_dims_st,
       bias=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(cin=8, cout=8, dims=(20, 21, 22), bias=True, seed=0)
def test_conv3d_bit_identical_to_einsum_oracle(cin, cout, dims, bias, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((cin,) + dims)
    w = rng.standard_normal((cout, cin, 3, 3, 3))
    b = rng.standard_normal(cout) if bias else None
    out = _conv3d(_flat_layout(x), w, b, product=_einsum_product)
    assert out.shape == (cout,) + dims
    assert np.array_equal(out, _einsum_conv3d(x, w, b))
    # The training forward runs on BLAS and matches up to rounding.
    blas = _conv3d(_flat_layout(x), w, b, product=_blas_product)
    assert blas.shape == out.shape
    assert np.abs(blas - out).max() <= 1e-12 * np.abs(out).max()


@settings(max_examples=25, deadline=None)
@given(cin=channels_st, cout=channels_st, dims=conv_dims_st,
       seed=st.integers(0, 2 ** 32 - 1))
@example(cin=8, cout=1, dims=(20, 21, 22), seed=0)
def test_conv3d_gradients_match_oracle_and_finite_differences(cin, cout, dims,
                                                              seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((cin,) + dims)
    w = rng.standard_normal((cout, cin, 3, 3, 3))
    gout = rng.standard_normal((cout,) + dims)
    gl = _flat_layout(gout)
    gx, gw = _conv3d_grad_x(w, gl), _conv3d_grad_w(_flat_layout(x), gl)
    gx_ref, gw_ref = _einsum_conv3d_backward(x, w, gout)
    for got, ref in ((gx, gx_ref), (gw, gw_ref)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    # The loss is linear in x and in w, so central differences are exact
    # up to rounding.
    def loss(xv, wv):
        out = _conv3d(_flat_layout(xv), wv, product=_einsum_product)
        return float(np.sum(out * gout))

    h = 1e-3
    for arr, grad in ((x, gx), (w, gw)):
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        lp = loss(x, w)
        arr[idx] = orig - h
        lm = loss(x, w)
        arr[idx] = orig
        assert (lp - lm) / (2 * h) == pytest.approx(grad[idx], rel=1e-6,
                                                   abs=1e-8)


cut_st = st.tuples(*[st.tuples(st.booleans(), st.booleans())] * 3)


@settings(max_examples=40, deadline=None)
@given(chans=st.lists(channels_st, min_size=4, max_size=4), cut=cut_st,
       data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_shrunk_conv_stack_matches_same_stack_interior(chans, cut, data,
                                                       seed):
    # A box cut out of an enclosing box on the ``cut`` faces and sharing
    # its border on the others: three shrunk layers on the box equal the
    # "same" stack on the enclosing box at every voxel at least HALO
    # from a cut face.
    dims = tuple(data.draw(st.integers(1 + HALO * (lo + hi),
                                       4 + HALO * (lo + hi)))
                 for lo, hi in cut)
    margins = [tuple(data.draw(st.integers(1, 3)) if c else 0 for c in face)
               for face in cut]
    rng = np.random.default_rng(seed)
    big = rng.standard_normal((chans[0],) + tuple(
        d + lo + hi for d, (lo, hi) in zip(dims, margins)))
    box = tuple(slice(lo, lo + d) for d, (lo, _) in zip(dims, margins))
    ws = [rng.standard_normal((co, ci, 3, 3, 3))
          for ci, co in zip(chans, chans[1:])]
    bs = [rng.standard_normal(co) for co in chans[1:]]

    same_layout = _flat_layout(big)
    shrunk_layout = _flat_layout(big[(slice(None),) + box], cut)
    for w, b in zip(ws, bs):
        same = _conv3d(same_layout, w, b, product=_einsum_product)
        shrunk = _conv3d(shrunk_layout, w, b, product=_einsum_product)
        same_layout, _ = _silu_layout(same, NO_CUT)
        shrunk_layout, _ = _silu_layout(shrunk, cut)
    inner = tuple(slice(s.start + HALO * lo, s.stop - HALO * hi)
                  for s, (lo, hi) in zip(box, cut))
    want = np.ascontiguousarray(same[(slice(None),) + inner])
    assert shrunk.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(shrunk).view(np.uint64),
                          want.view(np.uint64))


def _temporary_per_tap_conv3d(layout, w, b, product):
    """_conv3d with each tap's product made in a fresh temporary and
    then added into the output, block by block in tap order."""
    xf, (P1, P2, P3) = layout
    taps = list(np.ndindex(3, 3, 3))
    n = (P1 - 3) * P2 * P3 + (P2 - 3) * P3 + P3 - 2
    out = np.zeros((len(w), (P1 - 2) * P2 * P3))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        for dz, dy, dx in taps:
            off = (dz * P2 + dy) * P3 + dx
            w_k = np.ascontiguousarray(w[:, :, dz, dy, dx])
            out[:, lo:hi] += product(w_k, xf[:, lo + off:hi + off])
    out = out.reshape(-1, P1 - 2, P2, P3)[:, :, :P2 - 2, :P3 - 2]
    if b is not None:
        out += b[:, None, None, None]
    return out


# 22 voxels per axis pad to more than one block even with every face
# cut; 30 to four.
@settings(max_examples=50, deadline=None)
@given(cin=channels_st, cout=channels_st,
       dims=st.tuples(*[st.integers(22, 30)] * 3), cut=cut_st,
       bias=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(cin=8, cout=8, dims=(30, 30, 30), cut=((True, True),) * 3,
         bias=True, seed=0)
@example(cin=1, cout=2, dims=(22, 22, 22), cut=((False, False),) * 3,
         bias=False, seed=1)
def test_tap_scratch_matches_a_temporary_per_tap(cin, cout, dims, cut, bias,
                                                 seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((cin,) + dims)
    w = rng.standard_normal((cout, cin, 3, 3, 3))
    b = rng.standard_normal(cout) if bias else None
    layout = _flat_layout(x, cut)
    cores = spare._CORES
    try:
        for product in (_einsum_product, _blas_product):
            want = _temporary_per_tap_conv3d(layout, w, b, product)
            for n_cores in (1, 64):
                spare._CORES = n_cores  # the worker off, then on
                got = _conv3d(layout, w, b, product=product)
                assert got.shape == want.shape
                assert (np.ascontiguousarray(got).tobytes()
                        == np.ascontiguousarray(want).tobytes())
    finally:
        spare._CORES = cores


@pytest.mark.parametrize("cores", [1, 64])
def test_predict_peak_is_a_few_layers(monkeypatch, cores):
    # Inference keeps no backward cache: at a 40^3 box cut on every
    # face, one predict holds at most one layout, one conv output and
    # the tap scratch, ~1.9 of one 8-channel 40^3 array (5.5 with the
    # cache; 2.4 if each layer's input layout outlives its conv).
    monkeypatch.setattr(spare, "_CORES", cores)
    rng = np.random.default_rng(11)
    dims = (40, 40, 40)
    x = VoxelVolume(rng.standard_normal(dims))
    c = SemanticLayout(rng.integers(0, 3, dims).astype(np.uint8),
                       cut=((True, True),) * 3)
    p = TinyConvPredictor(seed=0)
    p.predict(x, 500, c)
    tracemalloc.start()
    try:
        p.predict(x, 500, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_array = 8 * math.prod(dims) * 8  # 8 float64 channels
    assert peak <= 2.25 * one_array


@settings(max_examples=15, deadline=None)
@given(cut=cut_st, seed=st.integers(0, 2 ** 16))
def test_predict_with_cut_condition_matches_enclosing_box(cut, seed):
    # Cut on some faces of a 12^3 box inside a 16^3 volume, on the volume
    # border on the others: the output equals the whole volume's output
    # away from the cut faces and is zero within HALO of them.
    rng = np.random.default_rng(seed)
    x = VoxelVolume(rng.standard_normal((16, 16, 16)))
    labels = rng.integers(1, 3, (16, 16, 16)).astype(np.uint8)
    box = tuple(slice(2 * lo, 16 - 2 * hi) for lo, hi in cut)
    p = TinyConvPredictor(seed=0)
    whole = p.predict(x, 300, SemanticLayout(labels)).data
    got = p.predict(VoxelVolume(x.data[box]), 300,
                    SemanticLayout(labels[box], cut=cut)).data
    assert got.shape == x.data[box].shape
    inner = tuple(slice(HALO * lo, got.shape[k] - HALO * hi)
                  for k, (lo, hi) in enumerate(cut))
    assert np.array_equal(got[inner].view(np.uint64),
                          np.ascontiguousarray(whole[box][inner]).view(
                              np.uint64))
    shell = np.ones(got.shape, dtype=bool)
    shell[inner] = False
    assert not got[shell].any()
    # A box with every voxel within HALO of a cut face is all shell.
    tiny = ((True, True),) * 3
    out = p.predict(VoxelVolume(x.data[:6, :6, :6]), 300,
                    SemanticLayout(labels[:6, :6, :6], cut=tiny))
    assert not out.data.any() and p.flops((6, 6, 6), tiny) == 0


def test_tiny_conv_flops_hand_count():
    p = TinyConvPredictor()
    # Layers 2->8, 8->8, 8->1: 2 * 27 * Cin * Cout FLOPs per output voxel.
    per_voxel = [2 * 27 * 16, 2 * 27 * 64, 2 * 27 * 8]
    # No cut: every layer outputs 8^3 voxels.
    assert p.flops((8, 8, 8)) == sum(per_voxel) * 512
    # z cut on both faces, y on the low face, x on none: the layers
    # output 11x9x8, 9x8x8 and 7x7x8 voxels.
    cut = ((True, True), (True, False), (False, False))
    assert p.flops((13, 10, 8), cut) == (per_voxel[0] * 11 * 9 * 8
                                         + per_voxel[1] * 9 * 8 * 8
                                         + per_voxel[2] * 7 * 7 * 8)
    # Nothing is evaluated when every voxel is within HALO of a cut face.
    assert p.flops((6, 10, 8), cut) == 0


def test_time_embedding_properties():
    e1 = _time_embedding(10)
    e2 = _time_embedding(11)
    assert e1.shape == (8,)
    assert not np.allclose(e1, e2)
    np.testing.assert_array_equal(_time_embedding(10), e1)


# -- tiny conv predictor -----------------------------------------------------


def test_param_count():
    p = TinyConvPredictor()
    # 8*2*27 + 8 + 8*8*27 + 8 + 1*8*27 = 432 + 8 + 1728 + 8 + 216.
    assert p.n_params == 2392


def test_zero_weights_output_zero(cosine1000, rng, small_layout):
    p = TinyConvPredictor()
    x = VoxelVolume(rng.standard_normal((8, 8, 8)))
    out = p.predict(x, 500, small_layout)
    np.testing.assert_array_equal(out.data, 0.0)


def test_zero_weight_loss_is_noise_power(cosine1000, rng, small_layout):
    p = TinyConvPredictor()
    x0 = VoxelVolume(rng.standard_normal((8, 8, 8)))
    eps = VoxelVolume(rng.standard_normal((8, 8, 8)))
    loss, _ = p.loss_and_grads(x0, small_layout, 500, eps, cosine1000)
    assert loss == pytest.approx(float(np.mean(eps.data ** 2)), rel=1e-12)


def test_training_loss_matches_inference_forward(cosine1000, rng):
    # loss_and_grads runs the forward on BLAS, predict on einsum; the
    # two losses agree up to rounding.
    dims = (7, 9, 11)
    labels = np.zeros(dims, np.uint8)
    labels[2:5, 3:6, 4:8] = 2
    m = SemanticLayout(labels)
    x0 = VoxelVolume(rng.standard_normal(dims))
    eps = VoxelVolume(rng.standard_normal(dims))
    p = TinyConvPredictor(seed=3)
    loss, _ = p.loss_and_grads(x0, m, 400, eps, cosine1000)
    x_t = q_sample(x0, 400, eps, cosine1000).x_t
    ref = float(np.mean((p.predict(x_t, 400, m).data - eps.data) ** 2))
    assert loss == pytest.approx(ref, rel=1e-12)


def test_flat_roundtrip(rng):
    p = TinyConvPredictor(seed=0)
    flat = p.get_flat()
    p2 = TinyConvPredictor()
    p2.set_flat(flat)
    np.testing.assert_array_equal(p2.get_flat(), flat)
    with pytest.raises(ValueError):
        p2.set_flat(flat[:-1])


def test_gradcheck_sampled_params(cosine1000, rng, small_layout):
    # Spot finite-difference check on a random parameter subset; the
    # acceptance suite sweeps every parameter.
    p = TinyConvPredictor(seed=2)
    x0 = VoxelVolume(rng.standard_normal((6, 6, 6)))
    labels = np.zeros((6, 6, 6), np.uint8)
    labels[2:4, 2:4, 2:4] = 2
    m = SemanticLayout(labels)
    eps = VoxelVolume(rng.standard_normal((6, 6, 6)))
    _, grads = p.loss_and_grads(x0, m, 321, eps, cosine1000)
    g = _flatten_grads(p, grads)
    flat = p.get_flat()
    h = 1e-5
    for i in rng.choice(flat.size, size=40, replace=False):
        fp = flat.copy(); fp[i] += h
        p.set_flat(fp)
        lp, _ = p.loss_and_grads(x0, m, 321, eps, cosine1000)
        fm = flat.copy(); fm[i] -= h
        p.set_flat(fm)
        lm, _ = p.loss_and_grads(x0, m, 321, eps, cosine1000)
        num = (lp - lm) / (2 * h)
        rel = abs(num - g[i]) / max(abs(num), abs(g[i]), 1e-8)
        assert rel < 1e-5, f"param {i}: numeric {num} vs analytic {g[i]}"
    p.set_flat(flat)


def _training_pair(dims, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, dims).astype(np.uint8)
    return (VoxelVolume(rng.standard_normal(dims)), SemanticLayout(labels),
            VoxelVolume(rng.standard_normal(dims)))


def _grad_bytes(grads):
    return {name: g.tobytes() for name, g in grads.items()}


def test_loss_and_grads_reuses_its_workspace(cosine1000):
    # The first call at a shape allocates the workspace; a second one at
    # the same shape only allocates small temporaries.
    x0, m, eps = _training_pair((16, 16, 16), 0)
    p = TinyConvPredictor(seed=1)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        p.loss_and_grads(x0, m, 500, eps, cosine1000)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < peaks[0] / 4


@pytest.mark.parametrize("cores", [1, 64])
def test_training_workspace_is_a_few_arrays(monkeypatch, cosine1000, cores):
    # At 32^3 the workspace holds the input, activation and gout layouts,
    # one buffer for every 8-channel conv output, each SiLU's derivative
    # and a channel of scratch: ~6.24 of one 8-channel 32^3 array
    # (keeping each SiLU's input and expit, or a conv output per layer,
    # makes 9.37).  A warm step allocates only small temporaries and the
    # tap scratch.
    monkeypatch.setattr(spare, "_CORES", cores)
    dims = (32, 32, 32)
    x0, m, eps = _training_pair(dims, 3)
    p = TinyConvPredictor(seed=1)
    p.loss_and_grads(x0, m, 500, eps, cosine1000)
    tracemalloc.start()
    try:
        p.loss_and_grads(x0, m, 500, eps, cosine1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_array = 8 * math.prod(dims) * 8  # 8 float64 channels
    slots = p._workspaces[dims].slots.values()
    assert sum(a.nbytes for a in slots) <= 6.25 * one_array
    assert peak <= one_array


_SILU_EDGES = [0.0, 5e-324, 1e-300, 36.7, 709.8, 745.0, 1e308]


def test_training_silu_matches_the_whole_array_formula_bit_for_bit():
    # The training forward writes SiLU and SiLU' one channel at a time;
    # each value must have the bits of the whole-array two-step formula,
    # signed zeros, subnormals and saturated expit included.
    edges = np.array(_SILU_EDGES)
    values = np.concatenate([edges, -edges])
    z = np.stack([values, values[::-1]]).reshape(2, 2, 7, 1)
    s = expit(z)
    want_silu, want_d = z * s, ((1 - s) * z + 1) * s
    for keep in (True, False):
        (flat, padded), d = _silu_layout(z, NO_CUT, _Workspace(),
                                         ("d", "a"), keep=keep)
        silu = flat.reshape(len(z), *padded)[:, 1:-1, 1:-1, 1:-1]
        assert np.ascontiguousarray(silu).tobytes() == want_silu.tobytes()
        if keep:
            assert d.tobytes() == want_d.tobytes()


def test_loss_and_grads_results_never_alias_the_workspace(cosine1000):
    x0, m, eps = _training_pair((10, 11, 12), 1)
    other = VoxelVolume(np.random.default_rng(2).standard_normal(x0.dims))
    p = TinyConvPredictor(seed=1)
    loss, grads = p.loss_and_grads(x0, m, 300, eps, cosine1000)
    kept = _grad_bytes(grads)
    p.loss_and_grads(x0, m, 300, other, cosine1000)
    assert _grad_bytes(grads) == kept
    fresh_loss, fresh = TinyConvPredictor(seed=1).loss_and_grads(
        x0, m, 300, eps, cosine1000)
    assert loss == fresh_loss
    assert _grad_bytes(fresh) == kept


def test_loss_and_grads_across_shapes_matches_fresh_predictors(cosine1000):
    # Each shape keeps its own workspace: going back and forth between
    # two shapes reuses the same buffers, and gives the same bits as a
    # predictor that never saw the other shape.
    p = TinyConvPredictor(seed=4)
    first = {}
    for k, dims in enumerate([(9, 9, 9), (12, 12, 12), (9, 9, 9),
                              (12, 12, 12)]):
        x0, m, eps = _training_pair(dims, k)
        loss, grads = p.loss_and_grads(x0, m, 200 + k, eps, cosine1000)
        slots = p._workspaces[dims].slots
        kept = first.setdefault(dims, dict(slots))
        assert slots.keys() == kept.keys()
        assert all(slots[name] is kept[name] for name in kept)
        ref_loss, ref = TinyConvPredictor(seed=4).loss_and_grads(
            x0, m, 200 + k, eps, cosine1000)
        assert loss == ref_loss
        assert _grad_bytes(grads) == _grad_bytes(ref)
    assert set(p._workspaces) == {(9, 9, 9), (12, 12, 12)}


def _shared_and_unshared(monkeypatch, compute):
    """``compute()`` with the spare worker forced on, then forced off."""
    runs = []
    for cores in (64, 1):
        monkeypatch.setattr(spare, "_CORES", cores)
        runs.append(compute())
    return runs


@pytest.mark.parametrize("dims", [(24, 24, 24), (33, 33, 33), (33, 24, 29)])
@pytest.mark.parametrize("cut", [((1, 1),) * 3, ((1, 0), (0, 1), (1, 1))],
                         ids=["interior", "mixed"])
def test_shared_blocks_keep_inference_bytes(monkeypatch, dims, cut):
    rng = np.random.default_rng(sum(dims))
    labels = rng.integers(0, 3, dims).astype(np.uint8)
    c = replace(SemanticLayout(labels), cut=cut)
    x = VoxelVolume(rng.standard_normal(dims))
    p = TinyConvPredictor(seed=6)
    on, off = _shared_and_unshared(
        monkeypatch, lambda: p.predict(x, 700, c).data.tobytes())
    assert on == off


def test_shared_blocks_keep_training_bytes(monkeypatch, cosine1000):
    x0, m, eps = _training_pair((32, 32, 32), 7)

    def step():
        loss, grads = TinyConvPredictor(seed=6).loss_and_grads(
            x0, m, 400, eps, cosine1000)
        return loss, _grad_bytes(grads)

    on, off = _shared_and_unshared(monkeypatch, step)
    assert on == off


def _slow_product(fail_on=None, after=0):
    """An einsum product that records its threads, sleeps so that both
    threads take blocks, and raises on the ``fail_on`` thread once that
    thread has made ``after`` products."""
    caller = threading.get_ident()
    calls = []

    def product(a, b, out=None):
        worker = threading.get_ident() != caller
        calls.append(worker)
        side = "worker" if worker else "caller"
        if fail_on == side and calls.count(worker) > after:
            raise RuntimeError(f"planted failure on the {fail_on}")
        time.sleep(0.001)
        return _einsum_product(a, b, out=out)

    return product, calls


def _multi_block_layer(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 34, 34, 34))  # 5 blocks
    return _flat_layout(x, ((1, 1),) * 3), rng.standard_normal((4, 2, 3, 3, 3))


def test_shared_blocks_run_on_both_threads(monkeypatch):
    layout, w = _multi_block_layer(8)
    monkeypatch.setattr(spare, "_CORES", 64)
    product, calls = _slow_product()
    shared = _conv3d(layout, w, product=product)
    assert any(calls) and not all(calls)
    monkeypatch.setattr(spare, "_CORES", 1)
    alone = _conv3d(layout, w, product=_einsum_product)
    assert shared.tobytes() == alone.tobytes()


# The worker fails in its first block; the caller in its second, while
# the worker runs the block between.
@pytest.mark.parametrize("fail_on,after", [("worker", 0), ("caller", 27)])
def test_raising_block_reraises_on_the_caller(monkeypatch, fail_on, after):
    layout, w = _multi_block_layer(9)
    monkeypatch.setattr(spare, "_CORES", 64)
    product, calls = _slow_product(fail_on, after)
    with pytest.raises(RuntimeError, match=f"failure on the {fail_on}"):
        _conv3d(layout, w, product=product)
    # Both threads have left the layer: no product runs after it raised.
    done = len(calls)
    time.sleep(0.1)
    assert len(calls) == done
    assert any(calls) and not all(calls)


def test_shared_blocks_under_thread_stress(monkeypatch):
    # More layers at once than cores, all sharing the one worker, with
    # thread switches forced often: a block run twice or skipped would
    # change the bytes.
    layout, w = _multi_block_layer(10)
    alone = _conv3d(layout, w, product=_einsum_product).tobytes()
    monkeypatch.setattr(spare, "_CORES", 64)
    results = []

    def layers():
        for _ in range(3):
            results.append(_conv3d(layout, w, product=_einsum_product)
                           .tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=layers) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [alone] * 18


def test_train_step_counts_as_a_request(cosine100, rng, small_layout,
                                        monkeypatch):
    p = TinyConvPredictor(seed=5)
    seen, inner = [], p.loss_and_grads
    monkeypatch.setattr(p, "loss_and_grads",
                        lambda *args: seen.append(spare._requests)
                        or inner(*args))
    x0 = VoxelVolume(rng.standard_normal((8, 8, 8)))
    train_step(p, x0, small_layout, np.random.default_rng(0), cosine100,
               Adam(p.n_params))
    assert seen == [1] and spare._requests == 0


def test_adam_single_step_oracle():
    opt = Adam(2, lr=0.1)
    flat = np.array([1.0, -1.0])
    grad = np.array([0.5, 0.25])
    out = opt.step(flat, grad)
    # Hand-computed: bias-corrected first step moves by lr * g / (|g| + eps).
    m = 0.1 * grad / (1 - 0.9)
    v = 0.001 * grad ** 2 / (1 - 0.999)
    expected = flat - 0.1 * m / (np.sqrt(v) + 1e-8)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_train_deterministic(cosine100, rng, small_layout):
    x0 = VoxelVolume(rng.standard_normal((8, 8, 8)))
    losses = []
    for _ in range(2):
        p = TinyConvPredictor(seed=5)
        losses.append(train(p, [(x0, small_layout)], cosine100, epochs=3,
                            seed=11))
    assert losses[0] == losses[1]
    assert len(losses[0]) == 3


@pytest.mark.parametrize("arg,value,message", [
    ("epochs", 1.7, "epochs must be an integer"),
    ("epochs", True, "epochs must be an integer"),
    ("epochs", -1, "epochs must be an integer"),
    ("lr", "x", "lr must be a positive real"),
    ("lr", True, "lr must be a positive real"),
    ("lr", 0, "lr must be a positive real"),
    ("lr", float("nan"), "lr must be a positive real"),
    ("seed", -1, "seed must be an integer >= 0"),
    ("seed", 1.5, "seed must be an integer >= 0"),
])
def test_train_rejects_malformed_arguments(cosine100, rng, small_layout, arg,
                                           value, message):
    p = TinyConvPredictor(seed=5)
    before = p.get_flat().copy()
    x0 = VoxelVolume(rng.standard_normal((8, 8, 8)))
    with pytest.raises(ValidationError, match=message):
        train(p, [(x0, small_layout)], cosine100,
              **{"epochs": 1, "lr": 1e-3, "seed": 0, arg: value})
    np.testing.assert_array_equal(p.get_flat(), before)


@pytest.mark.parametrize("seed", [-1, 1.5, "x", True])
def test_conv_predictor_rejects_malformed_seed(seed):
    with pytest.raises(ValidationError,
                       match="seed must be an integer >= 0"):
        TinyConvPredictor(seed=seed)


def test_train_step_updates_params(cosine100, rng, small_layout):
    p = TinyConvPredictor(seed=5)
    before = p.get_flat().copy()
    x0 = VoxelVolume(rng.standard_normal((8, 8, 8)))
    loss = train_step(p, x0, small_layout, np.random.default_rng(0), cosine100,
                      Adam(p.n_params))
    assert np.isfinite(loss)
    assert not np.array_equal(p.get_flat(), before)


def test_checkpoint_roundtrip(tmp_path):
    p = TinyConvPredictor(seed=9)
    p.save(tmp_path / "w.ldpw")
    p2 = TinyConvPredictor.load(tmp_path / "w.ldpw")
    # Storage is f32; equality holds at f32 precision.
    np.testing.assert_array_equal(p.get_flat().astype(np.float32),
                                  p2.get_flat().astype(np.float32))


def test_checkpoint_format_errors(tmp_path):
    p = tmp_path / "w.ldpw"
    p.write_bytes(b"LD")
    with pytest.raises(FormatError, match="truncated"):
        TinyConvPredictor.load(p)
    TinyConvPredictor(seed=0).save(p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        TinyConvPredictor.load(p)
    TinyConvPredictor(seed=0).save(p)
    raw = bytearray(p.read_bytes())
    raw[4] = 2
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version") as err:
        TinyConvPredictor.load(p)
    assert err.value.offset == 4
    TinyConvPredictor(seed=0).save(p)
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(FormatError, match="payload"):
        TinyConvPredictor.load(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, -1])
def test_checkpoint_with_a_non_finite_weight(tmp_path, bad, index):
    net = TinyConvPredictor(seed=0)
    flat = net.get_flat()
    i = index % flat.size
    p = tmp_path / "w.ldpw"
    net.save(p)
    raw = bytearray(p.read_bytes())
    raw[12 + 4 * i:16 + 4 * i] = struct.pack("<f", bad)
    if index == 0:  # a later non-finite weight: the first one is named
        raw[-4:] = struct.pack("<f", np.nan)
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"non-finite value .* index {i} "
                       rf"\(at byte offset {12 + 4 * i}\)") as err:
        TinyConvPredictor.load(p)
    assert err.value.offset == 12 + 4 * i


@pytest.mark.parametrize("count", [2, 3000])
def test_checkpoint_with_another_parameter_count(tmp_path, count):
    p = tmp_path / "w.ldpw"
    p.write_bytes(struct.pack("<4sII", b"LDPW", 1, count) + bytes(4 * count))
    with pytest.raises(FormatError, match=f"holds {count} parameters"):
        TinyConvPredictor.load(p)


def test_write_loss_curve(tmp_path):
    write_loss_curve([1.0, 0.5], tmp_path / "loss.csv")
    lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert lines[1].startswith("0,1")
