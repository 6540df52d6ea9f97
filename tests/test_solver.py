import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nodulesynth import solver
from nodulesynth.eaas import BoxNoise
from nodulesynth.errors import SolverError, ValidationError
from nodulesynth.forward import NoisyState, q_sample
from nodulesynth.predictor import (AnalyticGaussianPredictor, NoisePredictor,
                                   TinyConvPredictor)
from nodulesynth.schedule import make_schedule
from nodulesynth.solver import (HYBRID_WINDOW_FRAC, SolverConfig,
                                ancestral_solve, ancestral_step, dpm_solve,
                                dpm_update, expected_nfe, grid_from_times,
                                eval_region, hybrid_noise, make_time_grid,
                                noise_draws, pulmonary_solve)
from nodulesynth.volume import NODULE, SemanticLayout, VoxelVolume, crop


# -- configuration and grids -------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="euler")
    with pytest.raises(ValueError):
        SolverConfig(steps=0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        SolverConfig(blend_mode="always")


@pytest.mark.parametrize("gamma", [-0.1, float("nan"), float("inf")])
def test_solver_config_rejects_gamma_outside_finite_range(gamma):
    with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
        SolverConfig(gamma=gamma)


@pytest.mark.parametrize("field,value", [("steps", 10.5), ("steps", 10.0),
                                         ("steps", True), ("steps", "10"),
                                         ("t_start", 500.0),
                                         ("t_start", False)])
def test_solver_config_requires_integer_counts(field, value):
    with pytest.raises(ValueError, match="must be an integer"):
        SolverConfig(**{field: value})


def test_solver_config_takes_numpy_integers():
    cfg = SolverConfig(steps=np.int64(10), t_start=np.int32(500))
    assert make_time_grid(make_schedule("cosine", 1000), cfg).ts[0] == 500


def test_make_time_grid_shape(cosine1000):
    for steps in (1, 10, 50, 200):
        grid = make_time_grid(cosine1000, SolverConfig(steps=steps))
        assert len(grid) == steps + 1
        assert grid.ts[0] == 1000 and grid.ts[-1] == 0
        assert np.all(np.diff(grid.ts) < 0)
        assert np.all(grid.ts == np.round(grid.ts))


@st.composite
def _grid_cases(draw):
    T = draw(st.integers(2, 1000))
    t_start = draw(st.integers(1, T))
    steps = draw(st.one_of(st.sampled_from([1, t_start]),
                           st.integers(1, t_start)))
    return draw(st.sampled_from(["cosine", "linear"])), T, t_start, steps


def _brute_force_nodes(s, t_start, steps):
    """The grid's nodes by a full argmin scan of the lambda table per
    target and a sequential collision clamp, node by node."""
    targets = np.linspace(s.lam[t_start], s.lam[1], steps)[1:]
    ts = [t_start]
    for i, target in enumerate(targets):
        t_near = int(np.argmin(np.abs(s.lam - target)))
        remaining = len(targets) - 1 - i  # nodes still to place above 0
        ts.append(max(min(t_near, ts[-1] - 1), remaining + 1))
    return np.asarray(ts + [0], dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(_grid_cases())
def test_make_time_grid_property(case):
    kind, T, t_start, steps = case
    s = make_schedule(kind, T)
    grid = make_time_grid(s, SolverConfig(steps=steps, t_start=t_start))
    assert len(grid) == steps + 1
    assert np.all(grid.ts == np.round(grid.ts))
    assert np.all(np.diff(grid.ts) < 0)
    assert grid.ts[0] == t_start and grid.ts[-1] == 0
    assert grid.ts.tobytes() == _brute_force_nodes(s, t_start, steps).tobytes()
    for i, t in enumerate(grid.ts):
        assert (grid.alpha_bar[i], grid.sigma[i],
                grid.lam[i]) == s.coefficients_at(t)


def test_make_time_grid_tie_goes_to_the_lower_step():
    # The middle target, 1.5, lies exactly halfway between lam[2] and
    # lam[3]; the full argmin scan returns the first hit, step 2.
    s = replace(make_schedule("cosine", 4), lam=np.array([13.8, 3, 2, 1, 0.]))
    grid = make_time_grid(s, SolverConfig(steps=3))
    np.testing.assert_array_equal(grid.ts, [4, 2, 1, 0])
    np.testing.assert_array_equal(grid.ts, _brute_force_nodes(s, 4, 3))


def test_make_time_grid_full(cosine100):
    grid = make_time_grid(cosine100, SolverConfig(steps=100))
    np.testing.assert_array_equal(grid.ts, np.arange(100, -1, -1))


def test_make_time_grid_t_start(cosine1000):
    grid = make_time_grid(cosine1000, SolverConfig(steps=10, t_start=600))
    assert grid.ts[0] == 600
    assert len(grid) == 11


def test_make_time_grid_steps_exceed_t_start(cosine100):
    with pytest.raises(ValueError):
        make_time_grid(cosine100, SolverConfig(steps=50, t_start=20))


def test_grid_coefficients_match_tables(cosine1000):
    grid = make_time_grid(cosine1000, SolverConfig(steps=25))
    for i, t in enumerate(grid.ts):
        ab, sig, lam = cosine1000.coefficients_at(int(t))
        assert grid.alpha_bar[i] == ab
        assert grid.sigma[i] == sig
        assert grid.lam[i] == lam


def test_grid_from_times_requires_decreasing(cosine1000):
    for ts in ([100, 100, 50], [50, 100], []):
        with pytest.raises(ValidationError, match="non-empty and decreasing"):
            grid_from_times(cosine1000, ts)


# -- first order vs DDIM oracle ----------------------------------------------


def test_order1_equals_ddim(cosine1000, rng):
    # Independent oracle: the deterministic DDIM step is
    # x_lo = sqrt(ab_lo) * x0_hat + sigma_lo * eps_hat.
    p = AnalyticGaussianPredictor(0.3, 0.25, cosine1000)
    max_dev = 0.0
    for _ in range(100):
        t_hi = int(rng.integers(2, 1001))
        t_lo = int(rng.integers(1, t_hi))
        x = rng.standard_normal((4, 4, 4))
        grid = grid_from_times(cosine1000, [t_hi, t_lo])
        eps_hat = p.predict(VoxelVolume(x), t_hi, None).data
        ab_hi, sig_hi, lam_hi = cosine1000.coefficients_at(t_hi)
        ab_lo, sig_lo, _ = cosine1000.coefficients_at(t_lo)
        x0_hat = (x - sig_hi * eps_hat) / np.sqrt(ab_hi)
        ddim = np.sqrt(ab_lo) * x0_hat + sig_lo * eps_hat
        out = dpm_update(x, [(x0_hat, lam_hi)], grid, 1, order=1)
        max_dev = max(max_dev, float(np.max(np.abs(out - ddim))))
    assert max_dev < 1e-10


# -- analytic end-to-end behavior --------------------------------------------


def test_standard_normal_data_is_fixed_point(cosine1000, rng):
    # For data ~ N(0, 1) every diffusion marginal is N(0, 1) and the
    # deterministic flow is the identity map; the solver must approximately
    # preserve its input.
    p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
    x = rng.standard_normal((6, 6, 6))
    lams = np.linspace(cosine1000.lam[900], cosine1000.lam[1], 65)
    grid = grid_from_times(cosine1000, cosine1000.t_of_lambda(lams))
    out = dpm_solve(VoxelVolume(x), grid, 2, p, None, cosine1000)
    np.testing.assert_allclose(out.data, x, atol=5e-3)


def test_ancestral_chain_recovers_target_moments(cosine100, rng):
    # Full 100-step ancestral chain with the exact predictor: terminal
    # voxels must be iid draws from the data distribution N(mu, var).
    mu, var = 0.5, 0.04
    p = AnalyticGaussianPredictor(mu, var, cosine100)
    grid = make_time_grid(cosine100, SolverConfig(method="ancestral",
                                                  steps=100))
    x = ancestral_solve(VoxelVolume(rng.standard_normal((16, 16, 16))), grid,
                        p, None, cosine100, rng)
    n = x.data.size
    assert abs(x.data.mean() - mu) < 4 * np.sqrt(var / n)
    # The plug-in posterior-mean kernel carries an O(1/T) variance bias
    # on top of sampling noise, so the variance check is loose.
    assert abs(x.data.var(ddof=1) - var) < 0.25 * var


def test_ancestral_final_step_deterministic(cosine100, rng):
    x, x0 = rng.standard_normal((2, 4, 4, 4))
    grid = grid_from_times(cosine100, [1, 0])
    a = ancestral_step(x, x0, grid, 1, np.random.default_rng(1))
    b = ancestral_step(x, x0, grid, 1, np.random.default_rng(2))
    np.testing.assert_array_equal(a, b)


def _ancestral_step_by_lookup(x, x0, t_hi, t_lo, rng, s):
    # The step as it read both nodes' coefficients from the schedule.
    ab_hi, _, _ = s.coefficients_at(t_hi)
    ab_lo, _, _ = s.coefficients_at(t_lo)
    a = ab_hi / ab_lo
    mean = (math.sqrt(a) * (1.0 - ab_lo) * x
            + math.sqrt(ab_lo) * (1.0 - a) * x0) / (1.0 - ab_hi)
    if t_lo > 0:
        var = (1.0 - a) * (1.0 - ab_lo) / (1.0 - ab_hi)
        mean = mean + math.sqrt(var) * rng.standard_normal(x.shape)
    return mean


@pytest.mark.parametrize("T,steps,t_start", [
    (100, 1, None), (100, 7, None), (100, 100, None), (100, 10, 37),
    (1000, 10, None), (1000, 50, 850), (1000, 1000, None), (1000, 3, 3),
])
def test_ancestral_step_reads_the_grid_bit_for_bit(T, steps, t_start):
    s = make_schedule("cosine", T)
    grid = make_time_grid(s, SolverConfig(method="ancestral", steps=steps,
                                          t_start=t_start))
    x, x0 = np.random.default_rng(T + steps).standard_normal((2, 3, 4, 5))
    for i in range(1, len(grid)):
        got = ancestral_step(x, x0, grid, i, np.random.default_rng(i))
        want = _ancestral_step_by_lookup(x, x0, grid.ts[i - 1], grid.ts[i],
                                         np.random.default_rng(i), s)
        assert got.tobytes() == want.tobytes()


# -- NFE accounting ----------------------------------------------------------


def test_nfe_accounting(cosine1000, rng):
    x = VoxelVolume(rng.standard_normal((4, 4, 4)))
    for steps, order in ((10, 1), (50, 2)):
        p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
        grid = make_time_grid(cosine1000, SolverConfig(steps=steps))
        dpm_solve(x, grid, order, p, None, cosine1000)
        assert p.eval_count == steps + 1
    # Order 3 adds one starter evaluation.
    p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
    grid = make_time_grid(cosine1000, SolverConfig(steps=20))
    dpm_solve(x, grid, 3, p, None, cosine1000)
    assert p.eval_count == 22


def test_expected_nfe():
    assert expected_nfe("ancestral", 1000) == 1000
    assert expected_nfe("dpm2_multistep", 50) == 51
    assert expected_nfe("dpm1", 50) == 51
    assert expected_nfe("dpm3", 50) == 52


def test_pulmonary_solve_nfe_matches_expected(cosine1000, rng, small_layout):
    for method, steps in (("dpm2_multistep", 50), ("ancestral", 30),
                          ("dpm3", 20)):
        p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
        cfg = SolverConfig(method=method, steps=steps)
        x_ref = VoxelVolume(rng.standard_normal((8, 8, 8)))
        init = q_sample(x_ref, 1000,
                        VoxelVolume(rng.standard_normal((8, 8, 8))),
                        cosine1000)
        pulmonary_solve(init, x_ref, small_layout, p, cfg, rng, cosine1000)
        assert p.eval_count == expected_nfe(method, steps)


# -- hybrid noise ------------------------------------------------------------


def test_hybrid_noise_passthrough(cosine1000, rng):
    x = rng.standard_normal((4, 4, 4))
    assert hybrid_noise(x, 900, 1.0, 0.0, rng, cosine1000) is x
    # Below the early window: untouched even with gamma > 0.
    assert hybrid_noise(x, 300, 1.0, 0.5, rng, cosine1000) is x
    assert hybrid_noise(x, 0, 1.0, 0.5, rng, cosine1000) is x


def test_hybrid_noise_active_in_window(cosine1000, rng):
    x = rng.standard_normal((4, 4, 4))
    gamma, dt = 0.5, 2.5
    t = int(HYBRID_WINDOW_FRAC * 1000) + 50
    # A fractional t_lo reads g2 at the nearest step (800.6 -> 801).
    for t_lo, node in ((t, t), (800.6, 801)):
        out = hybrid_noise(x, t_lo, dt, gamma, np.random.default_rng(5),
                           cosine1000)
        z = np.random.default_rng(5).standard_normal(x.shape)
        expected = (x + gamma * math.sqrt(cosine1000.g2[node])
                    * math.sqrt(dt) * z)
        np.testing.assert_array_equal(out, expected)


def test_hybrid_noise_deterministic_given_rng(cosine1000, rng):
    x = rng.standard_normal((4, 4, 4))
    a = hybrid_noise(x, 900, 2.0, 0.3, np.random.default_rng(7), cosine1000)
    b = hybrid_noise(x, 900, 2.0, 0.3, np.random.default_rng(7), cosine1000)
    np.testing.assert_array_equal(a, b)


# -- driver behavior ---------------------------------------------------------


def test_final_step_drops_to_order1(cosine1000, rng, monkeypatch):
    orders = []

    def recording_update(x, history, grid, i, order):
        orders.append(order)
        return dpm_update(x, history, grid, i, order)

    monkeypatch.setattr(solver, "dpm_update", recording_update)
    p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
    grid = make_time_grid(cosine1000, SolverConfig(steps=10))
    dpm_solve(VoxelVolume(rng.standard_normal((4, 4, 4))), grid, 2, p, None,
              cosine1000)
    assert orders == [1] + [2] * 8 + [1]
    assert p.eval_count == 11


class _ExplodingPredictor(NoisePredictor):
    def _predict(self, x_t, t, c):
        return np.full(x_t.dims, 1e308)


def test_solver_error_on_nonfinite(cosine1000, rng):
    p = _ExplodingPredictor()
    grid = make_time_grid(cosine1000, SolverConfig(steps=5))
    with pytest.raises(SolverError, match="non-finite"), \
            np.errstate(over="ignore"):
        dpm_solve(VoxelVolume(rng.standard_normal((4, 4, 4))), grid, 1, p,
                  None, cosine1000)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_ancestral_solve_raises_solver_error_on_nonfinite(
        cosine1000, rng, small_layout, gamma):
    x_ref = VoxelVolume(rng.standard_normal((8, 8, 8)))
    init = q_sample(x_ref, 1000,
                    VoxelVolume(rng.standard_normal((8, 8, 8))), cosine1000)
    cfg = SolverConfig(method="ancestral", steps=5, gamma=gamma)
    with pytest.raises(SolverError, match="non-finite"), \
            np.errstate(over="ignore", invalid="ignore"):
        pulmonary_solve(init, x_ref, small_layout, _ExplodingPredictor(), cfg,
                        rng, cosine1000)


@pytest.mark.parametrize("method", ["dpm1", "dpm2_multistep", "dpm3"])
def test_dpm_solve_raises_solver_error_on_nonfinite_with_hybrid_noise(
        cosine1000, rng, small_layout, method):
    x_ref = VoxelVolume(rng.standard_normal((8, 8, 8)))
    init = q_sample(x_ref, 1000,
                    VoxelVolume(rng.standard_normal((8, 8, 8))), cosine1000)
    cfg = SolverConfig(method=method, steps=5, gamma=0.5)
    with pytest.raises(SolverError, match="non-finite"), \
            np.errstate(over="ignore", invalid="ignore"):
        pulmonary_solve(init, x_ref, small_layout, _ExplodingPredictor(), cfg,
                        rng, cosine1000)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("method", ["dpm1", "dpm2_multistep", "dpm3",
                                    "ancestral"])
def test_nonfinite_update_raises_even_when_blend_hides_it(cosine1000, rng,
                                                          method, gamma):
    # With no nodule voxels the blend replaces every voxel by the finite
    # background, so only a check right after the update can see the
    # overflow.
    x_ref = VoxelVolume(rng.standard_normal((8, 8, 8)))
    init = q_sample(x_ref, 1000,
                    VoxelVolume(rng.standard_normal((8, 8, 8))), cosine1000)
    no_nodule = SemanticLayout(np.ones((8, 8, 8), dtype=np.uint8))
    cfg = SolverConfig(method=method, steps=5, gamma=gamma)
    with pytest.raises(SolverError, match="non-finite"), \
            np.errstate(over="ignore", invalid="ignore"):
        pulmonary_solve(init, x_ref, no_nodule, _ExplodingPredictor(), cfg,
                        rng, cosine1000)


def test_blend_called_every_step(cosine1000, rng):
    p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
    grid = make_time_grid(cosine1000, SolverConfig(steps=8))
    seen = []

    def blend(x_data, t_lo):
        seen.append(t_lo)
        return x_data

    dpm_solve(VoxelVolume(rng.standard_normal((4, 4, 4))), grid, 2, p, None,
              cosine1000, blend=blend)
    assert len(seen) == 8
    assert seen[-1] == 0.0


def test_pulmonary_solve_per_step_background(cosine1000, rng, small_layout):
    # With per-step blending the non-nodule voxels of the result are
    # exactly the reference.
    p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
    x_ref = VoxelVolume(rng.standard_normal((8, 8, 8)))
    init = q_sample(x_ref, 1000,
                    VoxelVolume(rng.standard_normal((8, 8, 8))), cosine1000)
    out = pulmonary_solve(init, x_ref, small_layout, p,
                          SolverConfig(steps=10), rng, cosine1000)
    mask = small_layout.nodule_mask()
    np.testing.assert_array_equal(out.data[~mask], x_ref.data[~mask])
    assert not np.array_equal(out.data[mask], x_ref.data[mask])


def test_pulmonary_solve_t_start_mismatch(cosine1000, rng, small_layout):
    p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
    x_ref = VoxelVolume(rng.standard_normal((8, 8, 8)))
    init = q_sample(x_ref, 500,
                    VoxelVolume(rng.standard_normal((8, 8, 8))), cosine1000)
    with pytest.raises(ValueError, match="t_start"):
        pulmonary_solve(init, x_ref, small_layout, p,
                        SolverConfig(steps=10, t_start=800), rng, cosine1000)
    # The grid starts at T when t_start is None, whatever the state's t.
    with pytest.raises(ValueError, match="t_start"):
        pulmonary_solve(init, x_ref, small_layout, p, SolverConfig(), rng,
                        cosine1000)
    # A fractional t is not the integer step it truncates to.
    half = q_sample(x_ref, 500.5,
                    VoxelVolume(rng.standard_normal((8, 8, 8))), cosine1000)
    with pytest.raises(ValueError, match="t_start"):
        pulmonary_solve(half, x_ref, small_layout, p,
                        SolverConfig(steps=10, t_start=500), rng, cosine1000)
    # Diffused under another schedule, at the right t.
    linear = q_sample(x_ref, 1000,
                      VoxelVolume(rng.standard_normal((8, 8, 8))),
                      make_schedule("linear", 1000))
    with pytest.raises(ValueError, match="t_start"):
        pulmonary_solve(linear, x_ref, small_layout, p,
                        SolverConfig(steps=10), rng, cosine1000)
    assert p.eval_count == 0


@pytest.mark.parametrize("order", [0, 4])
def test_dpm_solve_rejects_order_outside_1_to_3(order, cosine1000, rng):
    p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
    grid = make_time_grid(cosine1000, SolverConfig(steps=4))
    with pytest.raises(ValidationError, match="order must be 1, 2 or 3"):
        dpm_solve(VoxelVolume(rng.standard_normal((4, 4, 4))), grid, order,
                  p, None, cosine1000)
    assert p.eval_count == 0


@pytest.mark.parametrize("method", ["dpm2_multistep", "dpm3", "ancestral"])
def test_nonfinite_predictor_output_is_a_solver_error(cosine1000, rng,
                                                      small_layout, method):
    # Weights this large overflow inside the net, so its first output
    # holds inf or nan: a numeric failure of the request, not bad input.
    p = TinyConvPredictor(seed=0)
    p.set_flat(p.get_flat() * 1e150)
    x_ref = VoxelVolume(rng.standard_normal((8, 8, 8)))
    init = q_sample(x_ref, 1000,
                    VoxelVolume(rng.standard_normal((8, 8, 8))), cosine1000)
    cfg = SolverConfig(method=method, steps=5)
    with pytest.raises(SolverError,
                       match="non-finite predictor output at t=1000$"), \
            np.errstate(over="ignore", invalid="ignore"):
        pulmonary_solve(init, x_ref, small_layout, p, cfg, rng, cosine1000)
    assert p.eval_count == 0


# -- the per-step background blend -------------------------------------------

# VoxelVolumes one per_step solve builds outside the predictor edge: the
# driver's result.
_SOLVE_EDGE_VOLUMES = 1


@pytest.mark.parametrize("gamma", [0.0, 0.7])
@pytest.mark.parametrize("method", ["dpm2_multistep", "ancestral"])
def test_per_step_solve_builds_volumes_only_at_its_edges(
        method, gamma, cosine1000, rng, small_layout, monkeypatch):
    p = AnalyticGaussianPredictor(0.0, 1.0, cosine1000)
    x_ref = VoxelVolume(rng.standard_normal((8, 8, 8)))
    init = q_sample(x_ref, 1000,
                    VoxelVolume(rng.standard_normal((8, 8, 8))), cosine1000)
    cfg = SolverConfig(method=method, steps=10, gamma=gamma)
    built = Counter()
    for cls in (VoxelVolume, NoisyState):
        def counting(self, _check=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    pulmonary_solve(init, x_ref, small_layout, p, cfg, rng, cosine1000)
    # Per evaluation: the state handed to the predictor and its output.
    nfe = expected_nfe(method, cfg.steps)
    assert p.eval_count == nfe
    assert built["VoxelVolume"] == 2 * nfe + _SOLVE_EDGE_VOLUMES
    assert built["NoisyState"] == 0


class _InputRecorder(AnalyticGaussianPredictor):
    def __init__(self, s):
        super().__init__(0.0, 1.0, s)
        self.inputs = []

    def _predict(self, x_t, t, c):
        self.inputs.append((t, x_t.data.copy()))
        return super()._predict(x_t, t, c)


class _DrawRecorder:
    """Generator stand-in that keeps a copy of every draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def standard_normal(self, size=None, out=None):
        draw = self.rng.standard_normal(size, out=out)
        self.draws.append(draw.copy())
        return draw


@settings(max_examples=40, deadline=None)
@given(t_start=st.integers(1, 100), steps=st.integers(1, 8),
       seed=st.integers(0, 2 ** 16))
def test_blend_background_is_q_sample_bitwise(t_start, steps, seed):
    # dpm2 with gamma 0 evaluates every node right after the blend and
    # makes one draw per step that ends above t = 0, so the background
    # the predictor sees at node i is the reference diffused with draw
    # i - 1, cut to the box.  The inputs are cut to the evaluated box as
    # run_eaas cuts them.  The reference holds -0.0 voxels.
    s = make_schedule("cosine", 100)
    steps = min(steps, t_start)
    dims = (14, 13, 12)
    labels = np.ones(dims, dtype=np.uint8)
    labels[6:8, 5:8, 5:7] = NODULE
    m = SemanticLayout(labels)
    data_rng = np.random.default_rng(seed)
    data = data_rng.uniform(-1.0, 1.0, dims)
    data[data_rng.random(dims) < 0.3] = -0.0
    x_ref = VoxelVolume(data)
    init = q_sample(x_ref, t_start,
                    VoxelVolume(data_rng.standard_normal(dims)), s)
    cfg = SolverConfig(steps=steps, t_start=t_start)
    region = eval_region(m, cfg)
    assert region.size != dims
    ref = crop(x_ref, region)
    background = ~crop(m, region).nodule_mask()
    p, rng = _InputRecorder(s), _DrawRecorder(seed)
    pulmonary_solve(replace(init, x_t=crop(init.x_t, region)), ref,
                    replace(crop(m, region), cut=region.cut_faces(dims)), p,
                    cfg, BoxNoise(rng, dims, region, noise_draws(
                        make_time_grid(s, cfg), cfg, s)), s)

    ts = make_time_grid(s, cfg).ts
    assert [t for t, _ in p.inputs] == list(ts)
    for i, (t, x) in enumerate(p.inputs[1:-1], start=1):
        eps = VoxelVolume(rng.draws[i - 1][region.slices()])
        want = q_sample(ref, int(t), eps, s).x_t.data
        np.testing.assert_array_equal(x[background].view(np.uint64),
                                      want[background].view(np.uint64))
    np.testing.assert_array_equal(p.inputs[-1][1][background].view(np.uint64),
                                  ref.data[background].view(np.uint64))
    assert len(rng.draws) == len(ts) - 2
