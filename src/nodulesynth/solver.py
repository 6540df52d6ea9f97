"""Reverse-time samplers.

Two families share one time grid:

* an ancestral baseline (generalized posterior steps, fresh noise per
  step), the slow reference everything is benchmarked against;
* exponential-integrator updates in half-log-SNR (multistep
  data-prediction form, orders 1-3), plus an optional stochastic
  perturbation during the early sampling window.

``pulmonary_solve`` wraps the integrator with mask conditioning and
per-step background re-imposition so only nodule voxels are synthesized;
with re-imposition it evaluates only the nodule region of the patch.

NFE accounting (exact, per run): multistep integrator = steps + 1
(one warm-up evaluation at the start node, then one evaluation at every
node reached, including the terminal one), plus one starter evaluation
for dpm3 when steps > 1 (a single step goes straight to t=0 at first
order); ancestral = steps.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverError
from .forward import NoisyState, q_sample
from .predictor import HALO, to_data_prediction
from .volume import CropRegion, VoxelVolume, crop, paste

_METHOD_ORDER = {"dpm1": 1, "dpm2_multistep": 2, "dpm3": 3}
# Fraction of the training horizon above which the stochastic term of
# the hybrid sampler is active ("early" reverse steps).
HYBRID_WINDOW_FRAC = 0.7


@dataclass(frozen=True)
class SolverConfig:
    method: str = "dpm2_multistep"
    steps: int = 50
    gamma: float = 0.0
    blend_mode: str = "per_step"
    t_start: int = None

    def __post_init__(self):
        if self.method not in _METHOD_ORDER and self.method != "ancestral":
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.blend_mode not in ("init_only", "per_step"):
            raise ValueError(f"unknown blend_mode {self.blend_mode!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Decreasing time nodes with their schedule coefficients.

    ``ts`` runs from t_start down to exactly 0 and has length steps + 1.
    Nodes may be fractional (continuous grids used by convergence
    studies); coefficient arrays are aligned with ``ts``.
    """

    ts: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray
    lam: np.ndarray

    def __len__(self):
        return len(self.ts)


def grid_from_times(s, ts, terminal_table=True):
    """Build a TimeGrid for explicit time nodes.

    Integer nodes use the discrete tables; fractional nodes use the
    continuous (lambda-interpolated) view.  With ``terminal_table``
    False, integer nodes also use the continuous view, which keeps a
    float grid's coefficients consistent at its endpoints.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if np.any(np.diff(ts) >= 0):
        raise ValueError("time grid must be strictly decreasing")
    ab = np.empty_like(ts)
    sig = np.empty_like(ts)
    lam = np.empty_like(ts)
    for i, t in enumerate(ts):
        if terminal_table and float(t).is_integer():
            ab[i], sig[i], lam[i] = s.coefficients_at(int(t))
        else:
            ab[i], sig[i], lam[i] = s.coefficients_cont(t)
    return TimeGrid(ts, ab, sig, lam)


def make_time_grid(s, cfg):
    """Discrete sampling grid, approximately uniform in half-log-SNR.

    Endpoints are exactly t_start and 0.  Interior nodes are the
    distinct integer steps closest to uniform lambda targets spanning
    [lambda(t_start), lambda(1)]; the final transition 1 -> 0 is a
    plain denoising step (lambda at t=0 is capped, so including it in
    the uniform span would collapse every interior target onto t=1).
    Collisions are resolved to keep the grid strictly decreasing with
    exactly steps + 1 nodes.
    """
    t_start = s.T if cfg.t_start is None else int(cfg.t_start)
    if t_start < 1 or t_start > s.T:
        raise ValueError(f"t_start={t_start} outside [1, {s.T}]")
    if cfg.steps > t_start:
        raise ValueError(f"steps={cfg.steps} exceeds t_start={t_start}")

    if cfg.steps == 1:
        ts = [t_start, 0]
    elif cfg.steps == t_start:
        ts = list(range(t_start, -1, -1))
    else:
        lam_hi = float(s.lam[t_start])
        lam_lo = float(s.lam[1])
        targets = np.linspace(lam_hi, lam_lo, cfg.steps)[1:]
        # Nearest integer step per lambda target (lam is decreasing in t).
        lam_table = s.lam[: s.T + 1]
        ts = [t_start]
        for i, target in enumerate(targets):
            t_near = int(np.argmin(np.abs(lam_table - target)))
            remaining = len(targets) - 1 - i  # nodes still to place above 0
            t_near = min(t_near, ts[-1] - 1)
            t_near = max(t_near, remaining + 1)
            ts.append(t_near)
        ts.append(0)
    return grid_from_times(s, np.asarray(ts, dtype=np.float64))


# ---------------------------------------------------------------------------
# Step updates
# ---------------------------------------------------------------------------


def dpm_update(x, history, grid, i, order):
    """One multistep exponential-integrator update from node i-1 to node i.

    ``history`` holds (x0_pred, lambda) pairs at earlier nodes, most
    recent last (the last entry is at node i-1).  Coefficients follow
    the data-prediction multistep scheme; ``order`` must not exceed
    len(history).
    """
    ab_t, sig_t, lam_t = grid.alpha_bar[i], grid.sigma[i], grid.lam[i]
    sig_s = grid.sigma[i - 1]
    alpha_t = math.sqrt(ab_t)
    x0_0, lam_0 = history[-1]
    h = lam_t - lam_0
    emh = math.exp(-h)
    x_t = (sig_t / sig_s) * x - alpha_t * (emh - 1.0) * x0_0
    if order >= 2:
        x0_1, lam_1 = history[-2]
        r0 = (lam_0 - lam_1) / h
        d1_0 = (x0_0 - x0_1) / r0
        if order == 2:
            x_t = x_t - 0.5 * alpha_t * (emh - 1.0) * d1_0
        else:
            x0_2, lam_2 = history[-3]
            r1 = (lam_1 - lam_2) / h
            d1_1 = (x0_1 - x0_2) / r1
            d1 = d1_0 + (r0 / (r0 + r1)) * (d1_0 - d1_1)
            d2 = (d1_0 - d1_1) / (r0 + r1)
            x_t = (x_t
                   + alpha_t * ((emh - 1.0) / h + 1.0) * d1
                   + alpha_t * ((h * h - 2.0 * h + 2.0 - 2.0 * emh)
                                / h ** 2) * d2)
    return x_t


def _singlestep_order2(x, x0_s, i, grid, p, c, s, spacing):
    """Singlestep second-order update from node i-1 to node i.

    ``x0_s`` is the clean-data prediction already evaluated at node i-1;
    one extra predictor evaluation at the half-log-SNR midpoint makes
    the step second order without any history.  Serves as the starter
    for the third-order multistep method: a plain first-order starter
    has a local error of O(h^2), which would cap the whole run at
    global order 2.
    """
    lam_s, lam_t = grid.lam[i - 1], grid.lam[i]
    sig_s = grid.sigma[i - 1]
    ab_t, sig_t = grid.alpha_bar[i], grid.sigma[i]
    h = lam_t - lam_s

    lam_m = lam_s + 0.5 * h
    ab_m = 1.0 / (1.0 + math.exp(-2.0 * lam_m))
    sig_m = math.sqrt(1.0 - ab_m)
    t_m = float(s.t_of_lambda(lam_m))

    u = ((sig_m / sig_s) * x
         - math.sqrt(ab_m) * (math.exp(-0.5 * h) - 1.0) * x0_s)
    eps_m = p.predict(VoxelVolume(u, spacing), t_m, c)
    x0_m = (u - sig_m * eps_m.data) / math.sqrt(ab_m)

    emh = math.exp(-h)
    alpha_t = math.sqrt(ab_t)
    return ((sig_t / sig_s) * x
            - alpha_t * (emh - 1.0) * x0_s
            - alpha_t * (emh - 1.0) * (x0_m - x0_s))


def ancestral_step(x_t, t_hi, t_lo, p, c, rng, s):
    """Generalized DDPM posterior step from t_hi down to t_lo.

    Posterior mean from the predicted clean volume plus sigma-scaled
    fresh noise; no noise is added on the final step to t_lo = 0.
    """
    if t_lo >= t_hi:
        raise ValueError(f"need t_hi > t_lo, got {t_hi} <= {t_lo}")
    eps_hat = p.predict(x_t, t_hi, c)
    x0_hat = to_data_prediction(eps_hat, x_t, t_hi, s)
    ab_hi, _, _ = s.coefficients_at(int(t_hi))
    ab_lo, _, _ = s.coefficients_at(int(t_lo))
    a = ab_hi / ab_lo
    mean = (math.sqrt(a) * (1.0 - ab_lo) * x_t.data
            + math.sqrt(ab_lo) * (1.0 - a) * x0_hat.data) / (1.0 - ab_hi)
    if t_lo > 0:
        var = (1.0 - a) * (1.0 - ab_lo) / (1.0 - ab_hi)
        mean = mean + math.sqrt(var) * rng.standard_normal(x_t.dims)
    return VoxelVolume(mean, x_t.spacing)


def hybrid_noise(x_next, t_lo, dt, gamma, rng, s):
    """Stochastic perturbation after a deterministic update.

    Adds gamma * g(t_lo) * sqrt(dt) * N(0, I) while t_lo is inside the
    early window (t_lo > 0.7 * T); a bit-identical passthrough when
    gamma == 0 or t_lo is at/past the window (including t_lo = 0).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0 or t_lo <= HYBRID_WINDOW_FRAC * s.T or t_lo <= 0:
        return x_next
    g = math.sqrt(s.diffusion_sq(t_lo))
    noise = rng.standard_normal(x_next.dims)
    return VoxelVolume(x_next.data + gamma * g * math.sqrt(dt) * noise,
                       x_next.spacing)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def dpm_solve(x_init, grid, order, p, c, s, rng=None, gamma=0.0,
              blend=None, step_log=None):
    """Run the multistep integrator down a time grid.

    ``blend``, if given, is called as blend(x_data, t_lo) after every
    update and returns the blended array.  Consumes exactly len(grid)
    predictor evaluations at orders 1-2, plus one starter evaluation at
    order 3.  Raises SolverError on non-finite states.
    """
    x = np.asarray(x_init.data, dtype=np.float64)
    spacing = x_init.spacing

    def evaluate(x_data, i):
        t = grid.ts[i]
        eps_hat = p.predict(VoxelVolume(x_data, spacing), t, c)
        ab, sig = grid.alpha_bar[i], grid.sigma[i]
        x0 = (x_data - sig * eps_hat.data) / math.sqrt(ab)
        return x0, grid.lam[i]

    history = [evaluate(x, 0)]
    for i in range(1, len(grid)):
        order_used = min(order, len(history))
        # Discrete grids end with a lambda jump onto the capped t=0 node;
        # multistep extrapolation over that jump is unstable, so the final
        # denoising step drops to first order there.
        if grid.sigma[i] == 0.0:
            order_used = 1
        if order >= 3 and i == 1 and grid.sigma[i] != 0.0:
            # Second-order singlestep starter (one extra evaluation).
            x = _singlestep_order2(x, history[-1][0], i, grid, p, c, s,
                                   spacing)
            order_used = 2
        else:
            x = dpm_update(x, history, grid, i, order_used)
        t_lo, t_hi = grid.ts[i], grid.ts[i - 1]
        if gamma > 0:
            x = hybrid_noise(VoxelVolume(x, spacing), t_lo, t_hi - t_lo,
                             gamma, rng, s).data
        if blend is not None:
            x = blend(x, t_lo)
        if not np.all(np.isfinite(x)):
            raise SolverError(
                f"non-finite state after step {i} (t {t_hi} -> {t_lo})")
        history.append(evaluate(x, i))
        if len(history) > 3:
            history.pop(0)
        if step_log is not None:
            step_log.append({"step": i, "t_hi": float(t_hi),
                             "t_lo": float(t_lo), "order_used": order_used,
                             "nfe_total": p.eval_count})
    return VoxelVolume(x, spacing)


def expected_nfe(method, steps):
    """Predictor evaluations consumed by one solve, as an exact function
    of the configuration."""
    if method == "ancestral":
        return steps
    if method == "dpm3" and steps > 1:
        return steps + 2  # + the starter's midpoint evaluation
    return steps + 1


def eval_region(m, cfg):
    """The box of the patch that :func:`pulmonary_solve` evaluates.

    In ``per_step`` mode every non-nodule voxel is re-imposed from the
    reference after each update, so the nodule voxels see the rest of
    the patch only through the predictor.  The box is the nodule
    bounding box plus the predictor ``HALO`` for each evaluation
    chained between two re-impositions (two in the dpm3 starter step,
    one otherwise), clipped to the patch.  ``init_only`` mode and an
    empty nodule mask use the whole patch.
    """
    nodule = m.nodule_mask()
    if cfg.blend_mode != "per_step" or not nodule.any():
        return CropRegion((0, 0, 0), m.dims)
    margin = HALO * (2 if cfg.method == "dpm3" else 1)
    idx = np.argwhere(nodule)
    lo = np.maximum(idx.min(axis=0) - margin, 0)
    hi = np.minimum(idx.max(axis=0) + 1 + margin, m.dims)
    return CropRegion(lo, hi - lo)


class _RegionNoise:
    """Generator view that draws standard normals at full-patch shape
    and returns the part inside ``region``.

    The generator advances exactly as in a full-patch solve, so every
    drawn value inside the region matches it bit for bit.  ``last``
    keeps the most recent full draw.
    """

    def __init__(self, rng, dims, region):
        self._rng = rng
        self._dims = dims
        self._region = region
        self.last = None

    def standard_normal(self, size):
        if tuple(size) != self._region.size:
            raise ValueError(
                f"draw of shape {tuple(size)} != region size "
                f"{self._region.size}")
        self.last = self._rng.standard_normal(self._dims)
        return self.last[self._region.slices()]


def pulmonary_solve(x_init, x_ref, m, p, cfg, rng, s):
    """Mask-conditioned reverse sampling with background re-imposition.

    Iterates the configured sampler down the time grid, passing the
    nodule layout as the predictor condition.  In ``per_step`` mode,
    non-nodule voxels are re-imposed after every update from the
    reference diffused to the current level (exactly the reference
    itself at t=0); in ``init_only`` mode the mix happens only at
    initialization.  Returns the clean volume.

    The sampler runs on the :func:`eval_region` box only.  Noise is
    drawn at full-patch shape and cut to the box, and the result is the
    box pasted into the reference diffused to t=0 with the last draw, so
    the output is bit-identical to sampling the whole patch.
    """
    if x_ref.dims != x_init.x_t.dims or m.dims != x_ref.dims:
        raise ValueError(
            f"dims mismatch: init {x_init.x_t.dims}, ref {x_ref.dims}, "
            f"mask {m.dims}")
    t_start = int(x_init.t) if cfg.t_start is None else int(cfg.t_start)
    if t_start != int(x_init.t):
        raise ValueError(
            f"cfg.t_start={t_start} != initial state t={x_init.t}")
    grid = make_time_grid(s, cfg)
    region = eval_region(m, cfg)
    noise = _RegionNoise(rng, x_ref.dims, region)
    c = crop(m, region)
    x = crop(x_init.x_t, region)

    blend = None
    if cfg.blend_mode == "per_step":
        ref = crop(x_ref, region)
        nodule = c.nodule_mask()

        def blend(x_data, t_lo):
            eps = VoxelVolume(noise.standard_normal(region.size), ref.spacing)
            bg = q_sample(ref, t_lo, eps, s)
            return np.where(nodule, x_data, bg.x_t.data)

    if cfg.method == "ancestral":
        for i in range(1, len(grid)):
            t_hi, t_lo = int(grid.ts[i - 1]), int(grid.ts[i])
            x = ancestral_step(x, t_hi, t_lo, p, c, noise, s)
            x = hybrid_noise(x, t_lo, t_hi - t_lo, cfg.gamma, noise, s)
            if blend is not None:
                x = VoxelVolume(blend(x.data, t_lo), x.spacing)
            if not np.all(np.isfinite(x.data)):
                raise SolverError(
                    f"non-finite state after step {i} (t {t_hi} -> {t_lo})")
    else:
        x = dpm_solve(x, grid, _METHOD_ORDER[cfg.method], p, c, s, rng=noise,
                      gamma=cfg.gamma, blend=blend)
    if blend is None:
        return x
    bg = q_sample(x_ref, 0, VoxelVolume(noise.last, x_ref.spacing), s)
    return paste(bg.x_t, x, region)


def write_step_log(entries, path):
    with open(path, "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
