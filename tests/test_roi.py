"""The per-step solver evaluates only the nodule region, bit for bit.

``pulmonary_solve`` runs its sampler on the nodule bounding box plus
the predictor halo.  These tests compare it against a full-patch
sampler written here from the public step functions, and tie the halo
constant to the receptive field of the tiny conv net.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodulesynth.forward import q_sample
from nodulesynth.predictor import (HALO, AnalyticGaussianPredictor,
                                   TinyConvPredictor)
from nodulesynth.schedule import make_schedule
from nodulesynth.solver import (SolverConfig, ancestral_step, dpm_solve,
                                eval_region, expected_nfe, hybrid_noise,
                                make_time_grid, pulmonary_solve)
from nodulesynth.volume import NODULE, SemanticLayout, VoxelVolume

T = 100
ORDERS = {"dpm1": 1, "dpm2_multistep": 2, "dpm3": 3}


class _ShapeRecorder(TinyConvPredictor):
    """The seed-0 tiny conv net, recording the dims of every input."""

    def __init__(self):
        super().__init__(seed=0)
        self.dims_seen = []

    def _predict(self, x_t, t, c):
        self.dims_seen.append(x_t.dims)
        return super()._predict(x_t, t, c)


def _full_patch_solve(x_init, x_ref, m, p, cfg, rng, s):
    """Sample every voxel of the patch, re-imposing the background
    after each step in ``per_step`` mode."""
    grid = make_time_grid(s, cfg)
    nodule = m.nodule_mask()
    blend = None
    if cfg.blend_mode == "per_step":
        def blend(x_data, t_lo):
            eps = VoxelVolume(rng.standard_normal(x_ref.dims))
            return np.where(nodule, x_data,
                            q_sample(x_ref, t_lo, eps, s).x_t.data)

    if cfg.method != "ancestral":
        return dpm_solve(x_init.x_t, grid, ORDERS[cfg.method], p, m, s,
                         rng=rng, gamma=cfg.gamma, blend=blend)
    x = x_init.x_t
    for i in range(1, len(grid)):
        t_hi, t_lo = int(grid.ts[i - 1]), int(grid.ts[i])
        x = ancestral_step(x, t_hi, t_lo, p, m, rng, s)
        x = hybrid_noise(x, t_lo, t_hi - t_lo, cfg.gamma, rng, s)
        if blend is not None:
            x = VoxelVolume(blend(x.data, t_lo))
    return x


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


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_region_solve_matches_full_patch_bitwise(case):
    m, cfg, seed = case
    s = make_schedule("cosine", T)
    data_rng = np.random.default_rng(seed)
    x_ref = VoxelVolume(data_rng.uniform(-1.0, 1.0, m.dims))
    x_init = q_sample(x_ref, cfg.t_start,
                      VoxelVolume(data_rng.standard_normal(m.dims)), s)

    p = _ShapeRecorder()
    got = pulmonary_solve(x_init, x_ref, m, p, cfg,
                          np.random.default_rng(seed), s)
    want = _full_patch_solve(x_init, x_ref, m, TinyConvPredictor(seed=0),
                             cfg, np.random.default_rng(seed), s)

    assert got.dims == m.dims
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
    assert p.eval_count == expected_nfe(cfg.method, cfg.steps)
    assert set(p.dims_seen) == {eval_region(m, cfg).size}


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
    base, _ = p._forward(x, mask, 500)
    if channel == "volume":
        x[center] += 1.0
    else:
        mask[center] = 1.0 - mask[center]
    moved, _ = p._forward(x, mask, 500)
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
