"""Reverse-time samplers.

Two families share one time grid:

* an ancestral baseline (generalized posterior steps, fresh noise per
  step), the slow reference everything is benchmarked against;
* exponential-integrator updates in half-log-SNR (multistep
  data-prediction form, orders 1-3), plus an optional stochastic
  perturbation during the early sampling window.

Each family has one driver, :func:`dpm_solve` and :func:`ancestral_solve`.
Inside them the state is a plain float64 array, checked for non-finite
values once after every update; ``VoxelVolume`` appears only where a
driver hands the state to the predictor (one wrap per evaluation, plus
the predictor's output) and where it returns.
``pulmonary_solve`` runs either driver with mask conditioning and
per-step background re-imposition so only nodule voxels are synthesized.
It samples exactly what it is given: whole-patch inputs give the whole
patch; inputs cut to the :func:`eval_region` box, with a generator view
that draws each full-patch field and returns its box
(:class:`~nodulesynth.eaas.BoxNoise`), give that box.  Its blend works
on plain arrays too: the background is :func:`~nodulesynth.forward.diffuse`
of the reference and the draw (the same bits as ``q_sample``), with the
nodule voxels copied into it in place.

NFE accounting (exact, per run): multistep integrator = steps + 1
(one warm-up evaluation at the start node, then one evaluation at every
node reached, including the terminal one), plus one starter evaluation
for dpm3 when steps > 1 (a single step goes straight to t=0 at first
order); ancestral = steps.

Noise accounting (exact, per ``pulmonary_solve``): every step that ends
at t_lo > 0 makes one standard-normal draw of its dims for the ancestral
step (ancestral only), one for the hybrid perturbation (gamma > 0 and
t_lo > 0.7 * T) and one for the background blend (``per_step`` only).
The step that ends at t = 0 draws nothing: the ancestral step adds no
noise there, the hybrid window is closed, and the background is the
reference itself.  :func:`noise_draws` is that count.  The solver makes
every draw on the calling thread, from the generator it is given.  A
synthesis request (:func:`~nodulesynth.eaas.run_eaas`) plans its own
two draws plus these, and its :class:`~nodulesynth.eaas.BoxNoise` makes
them one ahead on the spare-core worker while a core is idle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError, ValidationError
# q_sample is not called here; perfbench traces solver.q_sample by name.
from .forward import diffuse, q_sample  # noqa: F401
from .predictor import HALO
from .schedule import check_int, is_finite_real, is_int
from .volume import CropRegion, VoxelVolume

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
        if self.method not in ("ancestral", *_METHOD_ORDER):
            raise ValidationError(f"unknown solver method {self.method!r}")
        check_int("steps", self.steps, 1)
        if self.t_start is not None and not is_int(self.t_start):
            raise ValidationError(
                f"t_start must be an integer or None, got {self.t_start!r}")
        if not (is_finite_real(self.gamma) and self.gamma >= 0):
            raise ValidationError(
                f"gamma must be finite and >= 0, got {self.gamma!r}")
        if self.blend_mode not in ("init_only", "per_step"):
            raise ValidationError(f"unknown blend_mode {self.blend_mode!r}")


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


def grid_from_times(s, ts):
    """Build a TimeGrid for explicit time nodes, with each node's
    coefficients from ``s.coefficients_at``: the tables at an integer
    node, the continuous view at a fractional one."""
    ts = np.asarray(ts, dtype=np.float64)
    if ts.size == 0 or np.any(np.diff(ts) >= 0):
        raise ValidationError("time grid must be non-empty and decreasing")
    ab, sig, lam = np.array([s.coefficients_at(t) for t in ts]).T
    return TimeGrid(ts, ab, sig, lam)


def start_time(s, cfg):
    """The step that ``cfg`` starts sampling from on schedule ``s``: its
    ``t_start``, or ``s.T`` when that is None.  Raises ValidationError
    unless it lies in [1, s.T] and ``cfg.steps`` does not exceed it."""
    t_start = s.T if cfg.t_start is None else int(cfg.t_start)
    if t_start < 1 or t_start > s.T:
        raise ValidationError(f"t_start={t_start} outside [1, {s.T}]")
    if cfg.steps > t_start:
        raise ValidationError(f"steps={cfg.steps} exceeds t_start={t_start}")
    return t_start


def make_time_grid(s, cfg):
    """Discrete sampling grid, approximately uniform in half-log-SNR.

    Endpoints are exactly t_start (:func:`start_time`, the one statement
    of where sampling starts) and 0.  Interior nodes are the integer
    steps nearest (the lower one on a tie) to uniform lambda targets
    spanning [lambda(t_start), lambda(1)]; the final transition 1 -> 0
    is a plain denoising step (lambda at t=0 is capped, so including it
    in the uniform span would collapse every interior target onto t=1).
    Node k is clamped into [steps - k, node k-1 minus 1]: the grid is
    strictly decreasing with steps + 1 nodes (all steps if steps = t_start).
    """
    t_start = start_time(s, cfg)
    targets = np.linspace(s.lam[t_start], s.lam[1], cfg.steps)[1:]
    # lam[lo] >= target > lam[lo + 1] and 0 <= lo < T (lam decreases in t).
    lo = s.T - np.searchsorted(s.lam[::-1], targets)
    near = np.where(np.abs(s.lam[lo] - targets)
                    <= np.abs(s.lam[lo + 1] - targets), lo, lo + 1)
    # ts[k] = max(min(near, ts[k-1] - 1), steps - k), shifted by k.
    k = np.arange(cfg.steps)
    ts = np.maximum(np.minimum.accumulate(np.r_[t_start, near] + k),
                    cfg.steps) - k
    return grid_from_times(s, np.r_[ts, 0])


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


def _data_prediction(p, x, t, ab, sig, c, spacing):
    """Clean-data prediction (x - sig * eps) / sqrt(ab) from one predictor
    evaluation of the state array ``x`` at time t."""
    eps = p.predict(VoxelVolume(x, spacing), t, c)
    return (x - sig * eps.data) / math.sqrt(ab)


def _check_finite(x, what, *args):
    """Raise SolverError if ``x`` holds a non-finite value; the message
    is ``what.format(*args)``, built only then."""
    if not np.all(np.isfinite(x)):
        raise SolverError("non-finite " + what.format(*args))


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
    # The plain sigmoid, not coefficients_of_lambda: that one computes
    # e / (1 + e) for lambda < 0, which differs in the last bit for
    # about half of the negative midpoints and so changes dpm3 outputs.
    ab_m = 1.0 / (1.0 + math.exp(-2.0 * lam_m))
    sig_m = math.sqrt(1.0 - ab_m)
    t_m = float(s.t_of_lambda(lam_m))

    u = ((sig_m / sig_s) * x
         - math.sqrt(ab_m) * (math.exp(-0.5 * h) - 1.0) * x0_s)
    _check_finite(u, "midpoint state at step {}", i)
    x0_m = _data_prediction(p, u, t_m, ab_m, sig_m, c, spacing)

    emh = math.exp(-h)
    alpha_t = math.sqrt(ab_t)
    return ((sig_t / sig_s) * x
            - alpha_t * (emh - 1.0) * x0_s
            - alpha_t * (emh - 1.0) * (x0_m - x0_s))


def ancestral_step(x, x0, grid, i, rng):
    """Generalized DDPM posterior step from node i-1 down to node i.

    Posterior mean from the state array ``x`` and its clean-data
    prediction ``x0``, plus sigma-scaled fresh noise; no noise is added
    on the final step to t = 0.
    """
    ab_hi, ab_lo = grid.alpha_bar[i - 1], grid.alpha_bar[i]
    a = ab_hi / ab_lo
    mean = (math.sqrt(a) * (1.0 - ab_lo) * x
            + math.sqrt(ab_lo) * (1.0 - a) * x0) / (1.0 - ab_hi)
    if grid.ts[i] > 0:
        var = (1.0 - a) * (1.0 - ab_lo) / (1.0 - ab_hi)
        mean = mean + math.sqrt(var) * rng.standard_normal(x.shape)
    return mean


def hybrid_noise(x, t_lo, dt, gamma, rng, s):
    """Stochastic perturbation of the state array ``x`` after a
    deterministic update.

    Adds gamma * sqrt(s.g2[t]) * sqrt(dt) * N(0, I), t the step nearest
    t_lo, while t_lo is inside the early window (t_lo > 0.7 * T); returns
    ``x`` itself when gamma == 0 or t_lo is at/past the window.
    """
    if gamma < 0:
        raise ValidationError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0 or t_lo <= HYBRID_WINDOW_FRAC * s.T:
        return x
    g = math.sqrt(s.g2[int(round(t_lo))])
    return x + gamma * g * math.sqrt(dt) * rng.standard_normal(x.shape)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _end_step(x, grid, i, gamma, rng, s, blend):
    """What follows every update from node i-1 to node i: the finiteness
    check, the hybrid perturbation, then the blend."""
    t_hi, t_lo = grid.ts[i - 1], grid.ts[i]
    _check_finite(x, "state after step {} (t {} -> {})", i, t_hi, t_lo)
    x = hybrid_noise(x, t_lo, t_hi - t_lo, gamma, rng, s)
    return x if blend is None else blend(x, t_lo)


def dpm_solve(x_init, grid, order, p, c, s, rng=None, gamma=0.0, blend=None):
    """Run the multistep integrator down a time grid.

    ``blend``, if given, is called as blend(x_data, t_lo) after every
    update and returns the blended array.  Consumes exactly len(grid)
    predictor evaluations at orders 1-2, plus one starter evaluation at
    order 3.  Raises ValidationError for any other order, and
    SolverError on a non-finite state after an update.
    """
    if order not in (1, 2, 3):
        raise ValidationError(f"order must be 1, 2 or 3, got {order!r}")
    x = np.asarray(x_init.data, dtype=np.float64)
    spacing = x_init.spacing

    def evaluate(x, i):
        return (_data_prediction(p, x, grid.ts[i], grid.alpha_bar[i],
                                 grid.sigma[i], c, spacing), grid.lam[i])

    history = [evaluate(x, 0)]
    for i in range(1, len(grid)):
        if order >= 3 and i == 1 and grid.sigma[i] != 0.0:
            # Second-order singlestep starter (one extra evaluation).
            x = _singlestep_order2(x, history[-1][0], i, grid, p, c, s,
                                   spacing)
        else:
            # Discrete grids end with a lambda jump onto the capped t=0
            # node; multistep extrapolation over that jump is unstable,
            # so the final denoising step drops to first order there.
            x = dpm_update(x, history, grid, i,
                           min(order, len(history)) if grid.sigma[i] else 1)
        x = _end_step(x, grid, i, gamma, rng, s, blend)
        history = history[-2:] + [evaluate(x, i)]
    return VoxelVolume(x, spacing)


def ancestral_solve(x_init, grid, p, c, s, rng, gamma=0.0, blend=None):
    """Run the ancestral sampler down an integer time grid.

    One :func:`ancestral_step` per grid interval, with the same
    ``gamma`` perturbation and ``blend`` hook as :func:`dpm_solve`.
    Consumes exactly len(grid) - 1 predictor evaluations.  Raises
    SolverError on a non-finite state after an update.
    """
    x = np.asarray(x_init.data, dtype=np.float64)
    spacing = x_init.spacing
    for i in range(1, len(grid)):
        x0 = _data_prediction(p, x, grid.ts[i - 1], grid.alpha_bar[i - 1],
                              grid.sigma[i - 1], c, spacing)
        x = ancestral_step(x, x0, grid, i, rng)
        x = _end_step(x, grid, i, gamma, rng, s, blend)
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
    """The box of the patch that a request hands :func:`pulmonary_solve`.

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
    lo, hi = [], []
    for axis, n in enumerate(m.dims):
        hit = np.flatnonzero(nodule.any(axis=tuple({0, 1, 2} - {axis})))
        lo.append(max(hit[0] - margin, 0))
        hi.append(min(hit[-1] + 1 + margin, n))
    return CropRegion(lo, np.subtract(hi, lo))


def noise_draws(grid, cfg, s):
    """Standard-normal draws one :func:`pulmonary_solve` on ``grid``
    makes (see the module docstring), counted over its nodes at once."""
    t_lo = grid.ts[1:]
    per_step = (cfg.method == "ancestral") + (cfg.blend_mode == "per_step")
    return (per_step * np.count_nonzero(t_lo > 0) + (cfg.gamma > 0)
            * np.count_nonzero(t_lo > HYBRID_WINDOW_FRAC * s.T))


def pulmonary_solve(x_init, x_ref, m, p, cfg, rng, s):
    """Mask-conditioned reverse sampling with background re-imposition.

    Iterates the configured sampler down the time grid, passing the
    nodule layout as the predictor condition.  In ``per_step`` mode,
    non-nodule voxels are re-imposed after every update from the
    reference diffused to the current level (the reference itself at
    t=0); in ``init_only`` mode the mix happens only at initialization.

    Samples exactly the arrays it is given and returns the clean volume
    at their dims.  Whole-patch inputs give the whole patch.  Inputs cut
    to the :func:`eval_region` box, with ``m.cut`` set to the box's
    :meth:`CropRegion.cut_faces` in the patch and ``rng`` a view that
    returns the box of each full-patch draw, give that box, bit-identical
    to the same box of the whole-patch result.  Every draw is a
    ``rng.standard_normal`` call on the calling thread: exactly
    :func:`noise_draws` of them on return, at most that many if it
    raises.  Raises ValidationError before any draw unless the inputs
    share their dims and ``x_init`` lies at the grid's start, ``ts[0]``
    of :func:`make_time_grid`, on the ``alpha_bar`` table of ``s``.
    """
    if x_ref.dims != x_init.x_t.dims or m.dims != x_ref.dims:
        raise ValidationError(
            f"dims mismatch: init {x_init.x_t.dims}, ref {x_ref.dims}, "
            f"mask {m.dims}")
    grid = make_time_grid(s, cfg)
    if x_init.t != grid.ts[0] or not np.array_equal(
            x_init.schedule.alpha_bar, s.alpha_bar):
        raise ValidationError(f"state t={x_init.t} on {x_init.schedule.kind}"
                              f" != t_start={grid.ts[0]:g} on {s.kind}")
    blend = None
    if cfg.blend_mode == "per_step":
        ref = x_ref.data
        nodule = m.nodule_mask()

        def blend(x_data, t_lo):
            bg = ref.copy() if t_lo == 0 else diffuse(
                ref, t_lo, rng.standard_normal(ref.shape), s)
            np.copyto(bg, x_data, where=nodule)
            return bg

    if cfg.method == "ancestral":
        return ancestral_solve(x_init.x_t, grid, p, m, s, rng, cfg.gamma,
                               blend)
    return dpm_solve(x_init.x_t, grid, _METHOD_ORDER[cfg.method], p, m, s,
                     rng=rng, gamma=cfg.gamma, blend=blend)
