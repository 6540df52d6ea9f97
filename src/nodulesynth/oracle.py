"""Analytic verification tools for the samplers.

For isotropic Gaussian data N(mu, var * I) every marginal of the
diffusion is Gaussian with mean sqrt(ab) * mu and variance
ab * var + (1 - ab), and the deterministic reverse-time flow maps
quantiles onto quantiles.  That gives two independent ways to compute
the terminal state reached from a fixed noisy start:

* a closed-form expression (``exact_gaussian_terminal``), and
* brute-force high-resolution RK4 integration of the flow in
  half-log-SNR (``reference_solve``).

``convergence_study`` measures terminal errors of the multistep
integrator against the reference over a ladder of step counts and fits
log-log slopes, the empirical convergence orders.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .predictor import AnalyticGaussianPredictor
from .schedule import check_int, coefficients_of_lambda, is_int
from .solver import TimeGrid, dpm_solve
from .volume import VoxelVolume

# Every convergence run starts at this step, so it needs T >= T_START.
T_START = 850


def _gaussian_moments(lam, mu, var):
    """Mean and std of the diffused marginal at half-log-SNR ``lam``."""
    ab, _ = coefficients_of_lambda(lam)
    mean = math.sqrt(ab) * mu
    std = math.sqrt(ab * var + (1.0 - ab))
    return mean, std


def exact_gaussian_terminal(x_start, lam_start, lam_end, mu, var):
    """Closed-form endpoint of the deterministic flow for Gaussian data.

    x(end) = m_end + (s_end / s_start) * (x_start - m_start).
    """
    m0, s0 = _gaussian_moments(lam_start, mu, var)
    m1, s1 = _gaussian_moments(lam_end, mu, var)
    return m1 + (s1 / s0) * (x_start - m0)


def _flow_rhs(x, lam, mu, var):
    """dx/dlambda of the probability-flow ODE, variance-preserving form."""
    ab, _ = coefficients_of_lambda(lam)
    alpha = math.sqrt(ab)
    sig2 = 1.0 - ab
    s2 = ab * var + sig2
    x0 = (mu * sig2 + alpha * var * x) / s2
    return -ab * x + alpha * x0


def reference_solve(x_start, lam_start, lam_end, mu, var, n_steps):
    """Integrate the flow with classic RK4 over a uniform lambda grid."""
    x = np.asarray(x_start, dtype=np.float64).copy()
    h = (lam_end - lam_start) / n_steps
    lam = lam_start
    for _ in range(n_steps):
        k1 = _flow_rhs(x, lam, mu, var)
        k2 = _flow_rhs(x + 0.5 * h * k1, lam + 0.5 * h, mu, var)
        k3 = _flow_rhs(x + 0.5 * h * k2, lam + 0.5 * h, mu, var)
        k4 = _flow_rhs(x + h * k3, lam + h, mu, var)
        x += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        lam += h
    return x


@dataclass(frozen=True)
class ConvergenceResult:
    order: int
    steps: tuple
    errors: tuple
    slope: float  # nan when fewer than 2 step counts


def convergence_study(s, mu=0.3, var=0.25,
                      orders=(1, 2, 3), steps_list=(8, 16, 32, 64, 128),
                      dims=(8, 8, 8), seed=0, n_ref=100_000):
    """Terminal-error convergence of the multistep integrator.

    Builds float time grids uniform in half-log-SNR from T_START down to
    the t = 1 level (the same interior span the discrete sampling grid
    covers; the capped t = 0 level sits across a lambda jump that is a
    plain final denoising step, not part of the smooth integration),
    solves with the analytic Gaussian predictor at each (order, steps),
    and compares against a single shared high-resolution reference
    solution.  Returns one :class:`ConvergenceResult` per order.
    Raises ValidationError, before any solve, for T < T_START, an order
    outside 1-3, or a repeated or < 1 step count.
    """
    check_int("seed", seed, 0)
    if not all(is_int(o) and o in (1, 2, 3) for o in orders):
        raise ValidationError(f"orders must be from 1, 2, 3, got {orders!r}")
    if len(set(steps_list)) < len(steps_list) or not all(
            is_int(n) and n >= 1 for n in steps_list):
        raise ValidationError(
            f"step counts must be distinct integers >= 1, got {steps_list!r}")
    _, _, lam_start = s.coefficients_at(T_START)
    lam_end = float(s.lam[1])
    rng = np.random.default_rng(seed)
    m_T, s_T = _gaussian_moments(lam_start, mu, var)
    x_start = m_T + s_T * rng.standard_normal(dims)

    ref = reference_solve(x_start, lam_start, lam_end, mu, var, n_steps=n_ref)
    predictor = AnalyticGaussianPredictor(mu, var, s)

    results = []
    for order in orders:
        errors = []
        for steps in steps_list:
            ts = s.t_of_lambda(np.linspace(lam_start, lam_end, steps + 1))
            # The continuous view at every node, integer endpoints included.
            lam = s.lambda_of(ts)
            ab, sig = np.array([coefficients_of_lambda(v) for v in lam]).T
            grid = TimeGrid(ts, ab, sig, lam)
            out = dpm_solve(VoxelVolume(x_start), grid, order, predictor,
                            None, s)
            errors.append(float(np.sqrt(np.mean((out.data - ref) ** 2))))
        if len(steps_list) >= 2:
            slope = -float(np.polyfit(np.log(np.asarray(steps_list, float)),
                                      np.log(np.asarray(errors)), 1)[0])
        else:
            slope = float("nan")
        results.append(ConvergenceResult(order=order,
                                         steps=tuple(steps_list),
                                         errors=tuple(errors), slope=slope))
    return results


def write_convergence_csv(results, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["order", "steps", "terminal_rms_error", "slope"])
        for res in results:
            for n, err in zip(res.steps, res.errors):
                writer.writerow([res.order, n, f"{err:.6e}",
                                 f"{res.slope:.4f}" if res.slope == res.slope
                                 else "n/a"])
