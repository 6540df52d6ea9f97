"""The per-step solver evaluates only the nodule region, bit for bit.

A request cuts the solver's inputs to the nodule bounding box plus the
predictor halo, and ``pulmonary_solve`` samples that box.  These tests
cut the inputs the same way, paste the box into the reference, compare
it against a full-patch sampler written here from the public drivers,
check that whole-patch inputs give the same bytes, and tie the halo
constant to the receptive field of the tiny conv net.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodulesynth.eaas import BoxNoise
from nodulesynth.forward import q_sample
from nodulesynth.predictor import (HALO, AnalyticGaussianPredictor,
                                   TinyConvPredictor, _einsum_product)
from nodulesynth.schedule import make_schedule
from nodulesynth.solver import (SolverConfig, ancestral_solve, dpm_solve,
                                eval_region, expected_nfe, make_time_grid,
                                noise_draws, pulmonary_solve)
from nodulesynth.volume import (NODULE, SemanticLayout, VoxelVolume, crop,
                                paste)

T = 100
ORDERS = {"dpm1": 1, "dpm2_multistep": 2, "dpm3": 3}


class _InputRecorder(TinyConvPredictor):
    """The seed-0 tiny conv net, recording the dims and the cut faces of
    every input."""

    def __init__(self):
        super().__init__(seed=0)
        self.inputs_seen = []

    def _predict(self, x_t, t, c):
        self.inputs_seen.append((x_t.dims, c.cut))
        return super()._predict(x_t, t, c)


def _full_patch_solve(x_init, x_ref, m, p, cfg, rng, s):
    """Sample every voxel of the patch, re-imposing the background
    (the reference itself at t = 0) after each step in ``per_step``
    mode."""
    grid = make_time_grid(s, cfg)
    nodule = m.nodule_mask()
    blend = None
    if cfg.blend_mode == "per_step":
        def blend(x_data, t_lo):
            if t_lo == 0:
                return np.where(nodule, x_data, x_ref.data)
            eps = VoxelVolume(rng.standard_normal(x_ref.dims))
            return np.where(nodule, x_data,
                            q_sample(x_ref, t_lo, eps, s).x_t.data)

    if cfg.method == "ancestral":
        return ancestral_solve(x_init.x_t, grid, p, m, s, rng,
                               gamma=cfg.gamma, blend=blend)
    return dpm_solve(x_init.x_t, grid, ORDERS[cfg.method], p, m, s,
                     rng=rng, gamma=cfg.gamma, blend=blend)


@st.composite
def _cases(draw):
    # Axes of 1 voxel, nodules flush with the patch border and empty
    # masks all come up; axes up to 20 leave room for a dpm3 box
    # (margin 2 * HALO) that is smaller than the patch.
    dims = tuple(draw(st.integers(1, 20)) for _ in range(3))
    labels = np.ones(dims, dtype=np.uint8)
    if draw(st.booleans()):
        lo = [draw(st.integers(0, d - 1)) for d in dims]
        hi = [draw(st.integers(a + 1, min(a + 5, d)))
              for a, d in zip(lo, dims)]
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        keep = np.random.default_rng(draw(st.integers(0, 99))).random(
            labels[box].shape) < 0.7
        labels[box] = np.where(keep, NODULE, labels[box])
    method = draw(st.sampled_from(["dpm1", "dpm2_multistep", "dpm3",
                                   "ancestral"]))
    steps = draw(st.integers(1, 6))
    t_start = draw(st.one_of(st.just(steps), st.integers(steps, T)))
    cfg = SolverConfig(method=method, steps=steps, t_start=t_start,
                       gamma=draw(st.sampled_from([0.0, 0.7])),
                       blend_mode=draw(st.sampled_from(["per_step",
                                                        "per_step",
                                                        "init_only"])))
    return SemanticLayout(labels), cfg, draw(st.integers(0, 2 ** 16))


def _box_solve(x_init, x_ref, m, p, cfg, rng, s):
    """Solve on the inputs cut to the evaluated box, drawing through a
    box view of ``rng``, as ``run_eaas`` does; returns the box and its
    region."""
    region = eval_region(m, cfg)
    box = pulmonary_solve(
        replace(x_init, x_t=crop(x_init.x_t, region)), crop(x_ref, region),
        replace(crop(m, region), cut=region.cut_faces(m.dims)), p, cfg,
        BoxNoise(rng, m.dims, region,
                 noise_draws(make_time_grid(s, cfg), cfg, s)), s)
    assert box.dims == region.size
    return box, region


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_region_solve_matches_full_patch_bitwise(case):
    m, cfg, seed = case
    s = make_schedule("cosine", T)
    data_rng = np.random.default_rng(seed)
    x_ref = VoxelVolume(data_rng.uniform(-1.0, 1.0, m.dims))
    x_init = q_sample(x_ref, cfg.t_start,
                      VoxelVolume(data_rng.standard_normal(m.dims)), s)
    want_rng = np.random.default_rng(seed)
    want = _full_patch_solve(x_init, x_ref, m, TinyConvPredictor(seed=0),
                             cfg, want_rng, s)

    p, rng = _InputRecorder(), np.random.default_rng(seed)
    box, region = _box_solve(x_init, x_ref, m, p, cfg, rng, s)
    assert np.array_equal(paste(x_ref, box, region).data.view(np.uint64),
                          want.data.view(np.uint64))
    assert p.eval_count == expected_nfe(cfg.method, cfg.steps)
    assert set(p.inputs_seen) == {(region.size, region.cut_faces(m.dims))}
    # Both consumed the same full-patch draws.
    assert rng.bit_generator.state == want_rng.bit_generator.state

    # Whole-patch inputs sample the whole patch to the same bytes.
    whole_p, whole_rng = _InputRecorder(), np.random.default_rng(seed)
    whole = pulmonary_solve(x_init, x_ref, m, whole_p, cfg, whole_rng, s)
    assert np.array_equal(whole.data.view(np.uint64),
                          want.data.view(np.uint64))
    assert set(whole_p.inputs_seen) == {(m.dims, m.cut)}
    assert whole_rng.bit_generator.state == want_rng.bit_generator.state


class _CutRecorder(TinyConvPredictor):
    """The seed-0 tiny conv net, recording the cut faces it is given."""

    def __init__(self):
        super().__init__(seed=0)
        self.cuts_seen = set()

    def _predict(self, x_t, t, c):
        self.cuts_seen.add(c.cut)
        return super()._predict(x_t, t, c)


@pytest.mark.parametrize("method", ["dpm1", "dpm2_multistep", "dpm3",
                                    "ancestral"])
def test_region_cut_inside_and_on_patch_border(method):
    # The nodule is flush with the low z and high x borders of the patch;
    # the region is cut on its other four faces (low x and high z by the
    # halo, y on both sides), so the predictor shrinks there only.
    dims = (16, 18, 20)
    labels = np.ones(dims, dtype=np.uint8)
    labels[0:3, 7:10, 15:20] = NODULE
    m = SemanticLayout(labels)
    cfg = SolverConfig(method=method, steps=4, t_start=90, gamma=0.7)
    s = make_schedule("cosine", T)
    data_rng = np.random.default_rng(5)
    x_ref = VoxelVolume(data_rng.uniform(-1.0, 1.0, dims))
    x_init = q_sample(x_ref, cfg.t_start,
                      VoxelVolume(data_rng.standard_normal(dims)), s)

    p = _CutRecorder()
    box, region = _box_solve(x_init, x_ref, m, p, cfg,
                             np.random.default_rng(9), s)
    want = _full_patch_solve(x_init, x_ref, m, TinyConvPredictor(seed=0),
                             cfg, np.random.default_rng(9), s)
    assert p.cuts_seen == {((False, True), (True, True), (True, False))}
    assert np.array_equal(paste(x_ref, box, region).data.view(np.uint64),
                          want.data.view(np.uint64))


def test_region_is_nodule_box_plus_halo():
    labels = np.ones((30, 30, 30), dtype=np.uint8)
    labels[10:13, 0:2, 25:30] = NODULE
    m = SemanticLayout(labels)
    region = eval_region(m, SolverConfig())
    assert region.origin == (10 - HALO, 0, 25 - HALO)
    assert region.size == (3 + 2 * HALO, 2 + HALO, 5 + HALO)
    dpm3 = eval_region(m, SolverConfig(method="dpm3"))
    assert dpm3.origin == (10 - 2 * HALO, 0, 25 - 2 * HALO)
    whole = ((0, 0, 0), (30, 30, 30))
    init_only = eval_region(m, SolverConfig(blend_mode="init_only"))
    assert (init_only.origin, init_only.size) == whole
    empty = eval_region(SemanticLayout(np.ones((30, 30, 30), np.uint8)),
                        SolverConfig())
    assert (empty.origin, empty.size) == whole


def _argwhere_region(m, cfg):
    """Reference box: nodule voxel indices from ``argwhere``, then their
    min and max per axis."""
    nodule = m.nodule_mask()
    if cfg.blend_mode != "per_step" or not nodule.any():
        return (0, 0, 0), m.dims
    margin = HALO * (2 if cfg.method == "dpm3" else 1)
    idx = np.argwhere(nodule)
    lo = np.maximum(idx.min(axis=0) - margin, 0)
    hi = np.minimum(idx.max(axis=0) + 1 + margin, m.dims)
    return tuple(lo.tolist()), tuple((hi - lo).tolist())


# Sparse random masks in boxes of 1..12 voxels per axis: empty masks,
# nodule voxels on the patch border and 1-voxel axes all come up.
@settings(max_examples=80, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 12)] * 3),
       density=st.sampled_from([0.0, 0.002, 0.02, 0.2]),
       method=st.sampled_from(["dpm2_multistep", "dpm3", "ancestral"]),
       blend_mode=st.sampled_from(["per_step", "init_only"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eval_region_matches_argwhere_box(dims, density, method, blend_mode,
                                          seed):
    labels = np.ones(dims, dtype=np.uint8)
    labels[np.random.default_rng(seed).random(dims) < density] = NODULE
    m = SemanticLayout(labels)
    cfg = SolverConfig(method=method, blend_mode=blend_mode)
    region = eval_region(m, cfg)
    assert (region.origin, region.size) == _argwhere_region(m, cfg)


def _chebyshev_from(center, dims):
    grids = np.meshgrid(*(np.arange(d) for d in dims), indexing="ij")
    return np.max([np.abs(g - c) for g, c in zip(grids, center)], axis=0)


@pytest.mark.parametrize("channel", ["volume", "mask"])
def test_tiny_conv_receptive_field_is_halo(channel):
    # The solver's evaluated box assumes the predictor sees exactly HALO
    # voxels around each output voxel; a deeper net must fail here.
    dims, center = (13, 13, 13), (6, 6, 6)
    rng = np.random.default_rng(0)
    p = TinyConvPredictor(seed=0)
    x = rng.standard_normal(dims)
    mask = (rng.random(dims) < 0.5).astype(np.float64)
    base, _ = p._forward(x, mask, 500, _einsum_product)
    if channel == "volume":
        x[center] += 1.0
    else:
        mask[center] = 1.0 - mask[center]
    moved, _ = p._forward(x, mask, 500, _einsum_product)
    changed = moved != base
    dist = _chebyshev_from(center, dims)
    assert changed[dist == HALO].all()
    assert not changed[dist > HALO].any()


def test_analytic_predictor_is_pointwise(cosine1000):
    p = AnalyticGaussianPredictor(0.2, 0.5, cosine1000)
    x = np.random.default_rng(0).standard_normal((5, 5, 5))
    base = p.predict(VoxelVolume(x.copy()), 300, None).data
    x[2, 2, 2] += 1.0
    changed = p.predict(VoxelVolume(x), 300, None).data != base
    assert changed[2, 2, 2] and changed.sum() == 1
