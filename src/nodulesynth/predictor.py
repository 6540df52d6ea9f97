"""Noise predictors: the analytic Gaussian oracle and a tiny trainable
convolutional network with a hand-written backward pass.

A predictor estimates the noise residual eps(x_t, t, c) given the noisy
volume and a nodule mask condition.  The analytic predictor realizes
the exact score for isotropic Gaussian data and is used to verify the
samplers; the conv net is deliberately tiny (~2.4k parameters) so full
finite-difference gradient checks stay tractable.
"""

import csv
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import FormatError, TrainingError
from .volume import VoxelVolume

_CKPT_MAGIC = b"LDPW"
_CKPT_VERSION = 1


def _coeffs(s, t):
    if float(t).is_integer():
        ab, sig, _ = s.coefficients_at(int(t))
    else:
        ab, sig, _ = s.coefficients_cont(t)
    return ab, sig


# Receptive-field radius shared by every predictor, in voxels of
# Chebyshev distance (see NoisePredictor).
HALO = 3


class NoisePredictor:
    """Interface: predict(x_t, t, c) -> predicted noise volume.

    ``eval_count`` increments by exactly one per predict call; samplers
    use it for NFE accounting.

    Locality contract: the output at a voxel depends only on the input
    volume and condition within ``HALO`` voxels of it (Chebyshev
    distance), and the volume border acts the same as a zero-padded
    crop edge.  A predictor run on a crop therefore reproduces, bit for
    bit, the full-volume output at every crop voxel at least ``HALO``
    voxels from a cut face; the per-step solver relies on this to
    evaluate only the nodule region.  The tiny conv net has exactly
    radius 3 (three 3^3 layers), the analytic predictor radius 0.
    """

    def __init__(self):
        self.eval_count = 0

    def predict(self, x_t, t, c):
        if c is not None and c.dims != x_t.dims:
            raise ValueError(f"condition dims {c.dims} != input dims {x_t.dims}")
        out = self._predict(x_t, t, c)
        if out.dims != x_t.dims:
            raise ValueError("predictor returned mismatched dims")
        self.eval_count += 1
        return out

    def _predict(self, x_t, t, c):
        raise NotImplementedError


class AnalyticGaussianPredictor(NoisePredictor):
    """Exact noise prediction for data ~ N(mu, var * I).

    eps(x, t) = sigma_t * (x - sqrt(ab_t) * mu) / (ab_t * var + 1 - ab_t).
    Ignores the condition; exists to verify samplers against a known
    target distribution.
    """

    def __init__(self, mu, var, schedule):
        super().__init__()
        if var <= 0:
            raise ValueError(f"var must be positive, got {var}")
        self.mu = float(mu)
        self.var = float(var)
        self.schedule = schedule

    def _predict(self, x_t, t, c):
        ab, sig = _coeffs(self.schedule, t)
        denom = ab * self.var + (1.0 - ab)
        eps = sig * (x_t.data - np.sqrt(ab) * self.mu) / denom
        return VoxelVolume(eps, x_t.spacing)


def to_data_prediction(eps_hat, x_t, t, s):
    """Convert a noise prediction to a clean-data prediction.

    x0_hat = (x_t - sigma_t * eps_hat) / sqrt(ab_t); the exact algebraic
    inverse of the forward diffusion identity.
    """
    ab, sig = _coeffs(s, t)
    x0 = (x_t.data - sig * eps_hat.data) / np.sqrt(ab)
    return VoxelVolume(x0, x_t.spacing)


# ---------------------------------------------------------------------------
# Tiny convolutional predictor (numpy forward + hand-written backward)
# ---------------------------------------------------------------------------

_K = 3  # kernel size per axis
_HIDDEN = 8


def _conv3d(x, w, b=None):
    """Same-padded 3^3 convolution.  x: (Cin, Z, Y, X), w: (Cout, Cin, 3, 3, 3)."""
    _, Z, Y, X = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    out = np.zeros((w.shape[0], Z, Y, X))
    for dz in range(_K):
        for dy in range(_K):
            for dx in range(_K):
                out += np.einsum("oi,izyx->ozyx", w[:, :, dz, dy, dx],
                                 xp[:, dz:dz + Z, dy:dy + Y, dx:dx + X])
    if b is not None:
        out += b[:, None, None, None]
    return out


def _conv3d_backward(x, w, gout):
    """Gradients of _conv3d w.r.t. input and weights."""
    _, Z, Y, X = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for dz in range(_K):
        for dy in range(_K):
            for dx in range(_K):
                patch = xp[:, dz:dz + Z, dy:dy + Y, dx:dx + X]
                gw[:, :, dz, dy, dx] = np.einsum("ozyx,izyx->oi", gout, patch)
                gxp[:, dz:dz + Z, dy:dy + Y, dx:dx + X] += np.einsum(
                    "oi,ozyx->izyx", w[:, :, dz, dy, dx], gout)
    return gxp[:, 1:-1, 1:-1, 1:-1], gw


def _silu(z):
    return z * expit(z)


def _silu_grad(z):
    s = expit(z)
    return s * (1.0 + z * (1.0 - s))


def _time_embedding(t):
    """Sinusoidal features of t, one per hidden channel."""
    half = _HIDDEN // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
    return np.concatenate([np.sin(t * freqs), np.cos(t * freqs)])


class TinyConvPredictor(NoisePredictor):
    """Fully convolutional eps-predictor.

    Input: 2 channels (noisy volume, nodule mask).  Three 3^3 conv
    layers at hidden width 8 with SiLU activations; a sinusoidal time
    embedding is added per-channel after layer 1; the final layer is
    bias-free so the zero-weight network outputs exactly zero.
    """

    SHAPES = (
        ("w1", (_HIDDEN, 2, _K, _K, _K)),
        ("b1", (_HIDDEN,)),
        ("w2", (_HIDDEN, _HIDDEN, _K, _K, _K)),
        ("b2", (_HIDDEN,)),
        ("w3", (1, _HIDDEN, _K, _K, _K)),
    )

    def __init__(self, seed=None):
        super().__init__()
        self.params = {}
        if seed is None:
            for name, shape in self.SHAPES:
                self.params[name] = np.zeros(shape)
        else:
            rng = np.random.default_rng(seed)
            for name, shape in self.SHAPES:
                if name.startswith("w"):
                    fan_in = int(np.prod(shape[1:]))
                    self.params[name] = rng.standard_normal(shape) / np.sqrt(fan_in)
                else:
                    self.params[name] = np.zeros(shape)

    @property
    def n_params(self):
        return sum(p.size for p in self.params.values())

    def get_flat(self):
        return np.concatenate([self.params[n].ravel() for n, _ in self.SHAPES])

    def set_flat(self, flat):
        offset = 0
        for name, shape in self.SHAPES:
            size = int(np.prod(shape))
            self.params[name] = flat[offset:offset + size].reshape(shape).copy()
            offset += size
        if offset != flat.size:
            raise ValueError(f"expected {offset} parameters, got {flat.size}")

    def _forward(self, x_t_data, mask_data, t):
        p = self.params
        x = np.stack([x_t_data, mask_data.astype(np.float64)])
        z1 = _conv3d(x, p["w1"], p["b1"])
        z1 = z1 + _time_embedding(t)[:, None, None, None]
        a1 = _silu(z1)
        z2 = _conv3d(a1, p["w2"], p["b2"])
        a2 = _silu(z2)
        out = _conv3d(a2, p["w3"])
        cache = (x, z1, a1, z2, a2)
        return out[0], cache

    def _backward(self, gout, cache):
        p = self.params
        x, z1, a1, z2, a2 = cache
        g = gout[None]
        ga2, gw3 = _conv3d_backward(a2, p["w3"], g)
        gz2 = ga2 * _silu_grad(z2)
        ga1, gw2 = _conv3d_backward(a1, p["w2"], gz2)
        gb2 = gz2.sum(axis=(1, 2, 3))
        gz1 = ga1 * _silu_grad(z1)
        _, gw1 = _conv3d_backward(x, p["w1"], gz1)
        gb1 = gz1.sum(axis=(1, 2, 3))
        return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2, "w3": gw3}

    def _predict(self, x_t, t, c):
        if c is None:
            mask = np.zeros(x_t.dims)
        else:
            mask = c.nodule_mask().astype(np.float64)
        out, _ = self._forward(x_t.data, mask, t)
        return VoxelVolume(out, x_t.spacing)

    def loss_and_grads(self, x0, m, t, eps, s):
        """MSE training loss at a fixed (t, eps) draw, with gradients.

        Builds x_t by forward diffusion, runs the network on the
        (x_t, mask) pair, and returns (loss, grads) where loss is the
        mean squared error against the true noise.
        """
        ab, sig = _coeffs(s, t)
        x_t = np.sqrt(ab) * x0.data + sig * eps.data
        mask = m.nodule_mask().astype(np.float64)
        out, cache = self._forward(x_t, mask, t)
        resid = out - eps.data
        loss = float(np.mean(resid ** 2))
        gout = 2.0 * resid / resid.size
        grads = self._backward(gout, cache)
        return loss, grads

    # -- checkpoint I/O --------------------------------------------------

    def save(self, path):
        flat = self.get_flat().astype("<f4")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sII", _CKPT_MAGIC, _CKPT_VERSION, flat.size))
            fh.write(flat.tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) < 12:
            raise FormatError(f"truncated checkpoint header: {len(raw)} bytes",
                              offset=len(raw))
        magic, version, count = struct.unpack_from("<4sII", raw)
        if magic != _CKPT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_CKPT_MAGIC!r}",
                              offset=0)
        if version != _CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}", offset=4)
        if len(raw) != 12 + 4 * count:
            raise FormatError(
                f"checkpoint payload mismatch: expected {12 + 4 * count} bytes, "
                f"got {len(raw)}", offset=12)
        flat = np.frombuffer(raw, dtype="<f4", offset=12).astype(np.float64)
        p = cls()
        p.set_flat(flat)
        return p


class Adam:
    """Standard Adam on a flat parameter vector."""

    def __init__(self, n, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, flat, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad ** 2
        mhat = self.m / (1 - self.beta1 ** self.t)
        vhat = self.v / (1 - self.beta2 ** self.t)
        return flat - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _flatten_grads(p, grads):
    return np.concatenate([grads[n].ravel() for n, _ in p.SHAPES])


def train_step(p, x0, m, rng, s, lr=1e-3, optimizer=None):
    """One training step: sample (t, eps), take a gradient step, return
    the pre-update loss."""
    if m.dims != x0.dims:
        raise ValueError(f"layout dims {m.dims} != patch dims {x0.dims}")
    t = int(rng.integers(1, s.T + 1))
    eps = VoxelVolume(rng.standard_normal(x0.dims), x0.spacing)
    loss, grads = p.loss_and_grads(x0, m, t, eps, s)
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite loss {loss} at t={t}")
    opt = optimizer if optimizer is not None else Adam(p.n_params, lr=lr)
    p.set_flat(opt.step(p.get_flat(), _flatten_grads(p, grads)))
    return loss


def train(p, dataset, s, epochs, lr=1e-3, seed=0):
    """Train over (patch, layout) pairs; returns the loss curve.

    Deterministic given the seed.  ``epochs=0`` leaves weights
    untouched and returns an empty curve.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset must be nonempty")
    rng = np.random.default_rng(seed)
    opt = Adam(p.n_params, lr=lr)
    losses = []
    for _ in range(epochs):
        for x0, m in dataset:
            losses.append(train_step(p, x0, m, rng, s, lr=lr, optimizer=opt))
    return losses


def write_loss_curve(losses, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for i, loss in enumerate(losses):
            writer.writerow([i, f"{loss:.10g}"])
