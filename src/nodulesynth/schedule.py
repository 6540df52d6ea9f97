"""Diffusion coefficient schedules.

A schedule fixes the variance-preserving forward process on a discrete
grid of T training steps: per-step variances beta_t, the cumulative
signal fraction alpha_bar_t, the noise level sigma_t = sqrt(1 -
alpha_bar_t), and the half-log-SNR lambda_t = 0.5 * log(alpha_bar_t /
(1 - alpha_bar_t)).  lambda is the natural time variable for
exponential-integrator samplers, so the schedule also exposes a
continuous view (piecewise-linear lambda over the discrete grid) used
by fine-grained reference integration and float-time sampling grids.
"""

import math
from dataclasses import dataclass

import numpy as np

# Half-log-SNR is unbounded at t=0 (alpha_bar = 1); cap it so solver
# arithmetic stays finite.  13.8 corresponds to an SNR of ~1e12.
LAMBDA_CAP = 13.8

COSINE_OFFSET = 0.008
BETA_MAX = 0.999


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable coefficient tables for a discrete diffusion process.

    Index convention: ``alpha_bar``, ``sigma`` and ``lam`` have length
    T+1 and are indexed by the step t in [0, T] with alpha_bar[0] = 1.
    ``beta`` has length T; beta[i] is the variance of step t = i + 1.
    """

    kind: str
    T: int
    beta: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray
    lam: np.ndarray

    @property
    def alpha(self):
        return 1.0 - self.beta

    def coefficients_at(self, t):
        """Return (alpha_bar_t, sigma_t, lambda_t) for an integer step t."""
        if not float(t).is_integer() or t < 0 or t > self.T:
            raise ValueError(f"step index {t} outside [0, {self.T}]")
        t = int(t)
        return float(self.alpha_bar[t]), float(self.sigma[t]), float(self.lam[t])

    def coefficients(self, t):
        """(alpha_bar, sigma, lambda) at time t: the tables at an integer
        step, the continuous view otherwise."""
        if float(t).is_integer():
            return self.coefficients_at(t)
        return self.coefficients_cont(t)

    # -- continuous view ------------------------------------------------
    #
    # lambda(t) is interpolated linearly between the discrete grid
    # points; alpha_bar and sigma then follow from the variance-
    # preserving identity alpha_bar = sigmoid(2 * lambda).  At integer t
    # the interpolated lambda equals the table entry exactly.  Note the
    # continuous alpha_bar at t=0 is sigmoid(2 * LAMBDA_CAP), i.e. 1 up
    # to ~1e-12, whereas the table stores exactly (1, 0) there.

    def lambda_of(self, t):
        """Half-log-SNR at a (possibly fractional) time t in [0, T]."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t < 0) or np.any(t > self.T):
            raise ValueError(f"time {t} outside [0, {self.T}]")
        ts = np.arange(self.T + 1, dtype=np.float64)
        return np.interp(t, ts, self.lam)

    def t_of_lambda(self, lam):
        """Inverse of :meth:`lambda_of` (lambda is strictly decreasing)."""
        ts = np.arange(self.T + 1, dtype=np.float64)
        return np.interp(lam, self.lam[::-1], ts[::-1])

    def coefficients_cont(self, t):
        """(alpha_bar, sigma, lambda) from the continuous view at time t."""
        lam = float(self.lambda_of(t))
        ab, sig = coefficients_of_lambda(lam)
        return ab, sig, lam

    # -- diffusion of the continuous-time process ------------------------

    def diffusion_sq(self, t):
        """g^2(t): squared diffusion coefficient per unit step, from
        central finite differences of log sqrt(alpha_bar) and sigma^2."""
        f = np.gradient(np.log(np.sqrt(self.alpha_bar)))
        sig2 = 1.0 - self.alpha_bar
        g2 = np.maximum(np.gradient(sig2) - 2.0 * f * sig2, 0.0)
        return float(g2[int(round(t))])

    # -- serialization ---------------------------------------------------

    def to_config(self):
        return {"kind": self.kind, "T": self.T}

    @classmethod
    def from_config(cls, doc):
        return make_schedule(doc["kind"], doc["T"])


def coefficients_of_lambda(lam):
    """(alpha_bar, sigma) implied by a half-log-SNR value.

    Universal for variance-preserving processes:
    alpha_bar = sigmoid(2 * lambda).
    """
    lam = float(lam)
    if lam >= 0:
        ab = 1.0 / (1.0 + math.exp(-2.0 * lam))
    else:
        e = math.exp(2.0 * lam)
        ab = e / (1.0 + e)
    return ab, math.sqrt(max(1.0 - ab, 0.0))


def is_int(v):
    """Whether ``v`` is a Python or numpy integer (bool is not)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _cosine_alpha_bar(t, T):
    """Closed-form squared-cosine signal fraction at step t."""
    s = COSINE_OFFSET
    angle = (t / T + s) / (1.0 + s) * math.pi / 2.0
    angle0 = s / (1.0 + s) * math.pi / 2.0
    return np.cos(angle) ** 2 / math.cos(angle0) ** 2


def make_schedule(kind, T):
    """Build a :class:`NoiseSchedule`.

    kind: "cosine" (squared-cosine alpha_bar with offset 0.008) or
    "linear" (DDPM betas rescaled to the step count).  Betas are
    clipped to (0, 0.999]; alpha_bar is then the running product of
    (1 - beta) so the variance-preserving identity holds exactly.
    """
    if not is_int(T) or T < 2:
        raise ValueError(f"T must be an integer >= 2, got {T!r}")
    T = int(T)

    if kind == "cosine":
        ts = np.arange(T + 1, dtype=np.float64)
        ab_closed = _cosine_alpha_bar(ts, T)
        beta = 1.0 - ab_closed[1:] / ab_closed[:-1]
    elif kind == "linear":
        scale = 1000.0 / T
        beta = np.linspace(1e-4 * scale, 0.02 * scale, T)
    else:
        raise ValueError(f"unknown schedule kind {kind!r}")

    beta = np.clip(beta, 1e-12, BETA_MAX)
    alpha_bar = np.empty(T + 1, dtype=np.float64)
    alpha_bar[0] = 1.0
    alpha_bar[1:] = np.cumprod(1.0 - beta)
    sigma = np.sqrt(1.0 - alpha_bar)
    with np.errstate(divide="ignore"):
        lam = 0.5 * np.log(alpha_bar / (1.0 - alpha_bar))
    lam = np.clip(lam, -LAMBDA_CAP, LAMBDA_CAP)

    for arr in (beta, alpha_bar, sigma, lam):
        arr.setflags(write=False)
    return NoiseSchedule(kind=kind, T=T, beta=beta, alpha_bar=alpha_bar,
                         sigma=sigma, lam=lam)
