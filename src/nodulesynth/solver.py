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
per-step background re-imposition so only nodule voxels are synthesized;
with re-imposition it evaluates only the nodule region of the patch.
Its blend works on plain region arrays as well: the background is
:func:`~nodulesynth.forward.diffuse` of the cropped reference and the
cut draw (the same bits as ``q_sample``), with the nodule voxels copied
into it in place.

NFE accounting (exact, per run): multistep integrator = steps + 1
(one warm-up evaluation at the start node, then one evaluation at every
node reached, including the terminal one), plus one starter evaluation
for dpm3 when steps > 1 (a single step goes straight to t=0 at first
order); ancestral = steps.

Noise accounting (exact, per ``pulmonary_solve``): every step that ends
at t_lo > 0 makes one full-patch standard-normal draw for the ancestral
step (ancestral only), one for the hybrid perturbation (gamma > 0 and
t_lo > 0.7 * T) and one for the background blend (``per_step`` only).
The step that ends at t = 0 draws nothing: the ancestral step adds no
noise there, the hybrid window is closed, and the background is the
reference itself.  :func:`noise_draws` is that count.  The draws run
one step ahead on a worker thread while a core is idle for it (see
:func:`counted_request`); otherwise each runs on the caller when the step
needs it, with nothing submitted.  The values are the same either way.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverError
# q_sample is not called here; perfbench traces solver.q_sample by name.
from .forward import diffuse, q_sample  # noqa: F401
from .predictor import HALO
from .schedule import is_int
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
        if not is_int(self.steps) or self.steps < 1:
            raise ValueError(f"steps must be an integer >= 1, got "
                             f"{self.steps!r}")
        if self.t_start is not None and not is_int(self.t_start):
            raise ValueError(f"t_start must be an integer or None, got "
                             f"{self.t_start!r}")
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
        ab[i], sig[i], lam[i] = (s.coefficients(t) if terminal_table
                                 else s.coefficients_cont(t))
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


def ancestral_step(x, x0, t_hi, t_lo, rng, s):
    """Generalized DDPM posterior step from integer t_hi down to t_lo.

    Posterior mean from the state array ``x`` and its clean-data
    prediction ``x0``, plus sigma-scaled fresh noise; no noise is added
    on the final step to t_lo = 0.
    """
    if t_lo >= t_hi:
        raise ValueError(f"need t_hi > t_lo, got {t_hi} <= {t_lo}")
    ab_hi, _, _ = s.coefficients_at(t_hi)
    ab_lo, _, _ = s.coefficients_at(t_lo)
    a = ab_hi / ab_lo
    mean = (math.sqrt(a) * (1.0 - ab_lo) * x
            + math.sqrt(ab_lo) * (1.0 - a) * x0) / (1.0 - ab_hi)
    if t_lo > 0:
        var = (1.0 - a) * (1.0 - ab_lo) / (1.0 - ab_hi)
        mean = mean + math.sqrt(var) * rng.standard_normal(x.shape)
    return mean


def hybrid_noise(x, t_lo, dt, gamma, rng, s):
    """Stochastic perturbation of the state array ``x`` after a
    deterministic update.

    Adds gamma * g(t_lo) * sqrt(dt) * N(0, I) while t_lo is inside the
    early window (t_lo > 0.7 * T); returns ``x`` itself when gamma == 0
    or t_lo is at/past the window (including t_lo = 0).
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 0.0 or t_lo <= HYBRID_WINDOW_FRAC * s.T or t_lo <= 0:
        return x
    g = math.sqrt(s.diffusion_sq(t_lo))
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
    order 3.  Raises SolverError on a non-finite state after an update.
    """
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
            order_used = min(order, len(history))
            if grid.sigma[i] == 0.0:
                order_used = 1
            x = dpm_update(x, history, grid, i, order_used)
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
        x = ancestral_step(x, x0, grid.ts[i - 1], grid.ts[i], rng, s)
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
    lo, hi = [], []
    for axis, n in enumerate(m.dims):
        hit = np.flatnonzero(nodule.any(axis=tuple({0, 1, 2} - {axis})))
        lo.append(max(hit[0] - margin, 0))
        hi.append(min(hit[-1] + 1 + margin, n))
    return CropRegion(lo, np.subtract(hi, lo))


def noise_draws(grid, cfg, s):
    """Full-patch standard-normal draws one :func:`pulmonary_solve` on
    ``grid`` makes (see the module docstring)."""
    count = 0
    for t_lo in grid.ts[1:].tolist():
        if t_lo > 0:
            count += ((cfg.method == "ancestral")
                      + (cfg.gamma > 0 and t_lo > HYBRID_WINDOW_FRAC * s.T)
                      + (cfg.blend_mode == "per_step"))
    return count


# Long-lived, so solves reuse the same threads (and their malloc arenas);
# at most half the cores' requests draw ahead (see counted_request).
_CORES = os.cpu_count() or 1
_DRAWS = ThreadPoolExecutor(max_workers=max(1, _CORES // 2),
                            thread_name_prefix="nodulesynth-noise")
_requests = 0  # threads inside a counted_request block
_requests_lock = threading.Lock()


@contextmanager
def counted_request():
    """Count the calling thread as running a synthesis request for the
    block (also usable as a decorator).

    A solve draws its noise ahead only while a core is idle for it:
    while twice the number of running requests (one core for each
    request, one for its draws) fits in ``os.cpu_count()``.  With every
    core busy, as in a parallel batch, a worker thread would only add
    thread switches, so each draw runs on the caller.
    """
    global _requests
    with _requests_lock:
        _requests += 1
    try:
        yield
    finally:
        with _requests_lock:
            _requests -= 1


class _RegionNoise:
    """Generator view that draws standard normals at full-patch shape
    and returns the part inside ``region``.

    The ``count`` full draws run one ahead of the caller on a worker
    thread when a core is idle (see :func:`counted_request`): the next
    starts when the previous one is taken, so it overlaps the predictor
    evaluations in between.  Without an idle core nothing is submitted
    and each draw runs on the caller when it is needed, as does a
    submitted draw the worker has not started (a busy worker, a forked
    child).  Either way they are the same calls on the same generator in
    the same order, so every value matches bit for bit.  At most one
    draw is in flight, so the generator is never used by two threads at
    once; :meth:`close` waits for it.
    """

    def __init__(self, rng, dims, region, count):
        self._rng = rng
        self._dims = dims
        self._size = region.size
        self._slices = region.slices()
        self._left = count  # draws not yet taken, the one ahead included
        self._ahead = None
        self._draw_ahead()

    def _draw_ahead(self):
        if self._left and 2 * max(_requests, 1) <= _CORES:
            self._ahead = _DRAWS.submit(self._rng.standard_normal, self._dims)

    def standard_normal(self, size):
        if tuple(size) != self._size:
            raise ValueError(
                f"draw of shape {tuple(size)} != region size {self._size}")
        if not self._left:
            raise RuntimeError("noise draw beyond the solver's noise plan")
        self._left -= 1
        ahead, self._ahead = self._ahead, None
        if ahead is None or ahead.cancel():  # not started: draw here
            draw = self._rng.standard_normal(self._dims)
        else:
            draw = ahead.result()
        self._draw_ahead()
        return draw[self._slices]

    def close(self):
        """Cancel the draw ahead if it has not started, else wait for it;
        no draw follows."""
        if self._ahead is not None and not self._ahead.cancel():
            wait([self._ahead])
        self._ahead = None
        self._left = 0


def pulmonary_solve(x_init, x_ref, m, p, cfg, rng, s):
    """Mask-conditioned reverse sampling with background re-imposition.

    Iterates the configured sampler down the time grid, passing the
    nodule layout as the predictor condition.  In ``per_step`` mode,
    non-nodule voxels are re-imposed after every update from the
    reference diffused to the current level (the reference itself at
    t=0); in ``init_only`` mode the mix happens only at initialization.
    Returns the clean volume.

    The sampler runs on the :func:`eval_region` box only.  Noise is
    drawn at full-patch shape (one draw ahead on a worker thread while a
    core is idle) and cut to the box; the result is the box pasted into
    the reference, so the output is bit-identical to sampling the whole
    patch.  When this returns or raises, no draw is in flight and
    ``rng`` has advanced by at most :func:`noise_draws` full-patch draws
    (exactly that many on return).
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
    c = replace(crop(m, region), cut=region.cut_faces(m.dims))
    x = crop(x_init.x_t, region)

    blend = None
    if cfg.blend_mode == "per_step":
        ref = crop(x_ref, region).data
        nodule = c.nodule_mask()

        def blend(x_data, t_lo):
            if t_lo == 0:
                bg = ref.copy()
            else:
                bg = diffuse(ref, t_lo, noise.standard_normal(ref.shape), s)
            np.copyto(bg, x_data, where=nodule)
            return bg

    noise = _RegionNoise(rng, x_ref.dims, region, noise_draws(grid, cfg, s))
    try:
        if cfg.method == "ancestral":
            x = ancestral_solve(x, grid, p, c, s, noise, cfg.gamma, blend)
        else:
            x = dpm_solve(x, grid, _METHOD_ORDER[cfg.method], p, c, s,
                          rng=noise, gamma=cfg.gamma, blend=blend)
    finally:
        noise.close()
    return x if blend is None else paste(x_ref, x, region)
