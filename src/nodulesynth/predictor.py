"""Noise predictors: the analytic Gaussian oracle and a tiny trainable
convolutional network with a hand-written backward pass.

A predictor estimates the noise residual eps(x_t, t, c) given the noisy
volume and a nodule mask condition.  The analytic predictor realizes
the exact score for isotropic Gaussian data and is used to verify the
samplers; the conv net is deliberately tiny (~2.4k parameters) so full
finite-difference gradient checks stay tractable.
"""

import csv
import math
import struct
from collections import defaultdict
from functools import partial

import numpy as np
from scipy.special import expit

from .errors import (FormatError, SolverError, TrainingError,
                     ValidationError)
from .forward import q_sample
from .schedule import check_int, is_finite_real
from .spare import counted_request, settle, submit
from .volume import NO_CUT, VoxelVolume, read_binary, write_binary

_CKPT_MAGIC = b"LDPW"
# After the magic and the version: the parameter count; then f32 weights.
_CKPT_HEADER = struct.Struct("<4sII")


# Receptive-field radius shared by every predictor, in voxels of
# Chebyshev distance (see NoisePredictor).
HALO = 3


class NoisePredictor:
    """Interface: predict(x_t, t, c) -> predicted noise volume.

    Subclasses implement ``_predict``, which returns the plain eps array;
    ``predict`` wraps it once and raises SolverError if it is non-finite
    or its dims differ from the input's.  ``eval_count`` increments by
    exactly one per predict call.  The solvers do not read it (their NFE
    is ``solver.expected_nfe``); tests read it as a count of calls.

    Locality contract: the output at a voxel depends only on the input
    volume and condition within ``HALO`` voxels of it (Chebyshev
    distance), and the volume border acts the same as a zero-padded
    crop edge.  A predictor run on a crop therefore reproduces, bit for
    bit, the full-volume output at every crop voxel at least ``HALO``
    voxels from a cut face; the per-step solver relies on this to
    evaluate only the nodule region.  The tiny conv net has exactly
    radius 3 (three 3^3 layers), the analytic predictor radius 0.

    The solver marks those faces on the condition (``c.cut``, see
    ``SemanticLayout``).  The output keeps the input's dims, but its
    voxels within ``HALO`` of a marked face are unspecified: the tiny
    conv net shrinks each layer's output by one voxel per marked face
    and leaves that shell zero.  The analytic predictor ignores the
    marks.  Unmarked faces (the patch border, and every face in
    ``init_only`` mode and in training) keep the "same" convolution.
    """

    def __init__(self):
        self.eval_count = 0

    def predict(self, x_t, t, c):
        if c is not None and c.dims != x_t.dims:
            raise ValidationError(f"condition dims {c.dims} != input dims {x_t.dims}")
        eps = self._predict(x_t, t, c)
        if np.shape(eps) != x_t.dims:
            raise SolverError("predictor returned mismatched dims")
        try:
            out = VoxelVolume(eps, x_t.spacing)
        except ValidationError:
            raise SolverError(f"non-finite predictor output at t={t:g}") from None
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
        if not (is_finite_real(mu) and is_finite_real(var) and var > 0):
            raise ValidationError(f"mu must be finite and var finite and "
                                  f"positive, got mu={mu!r}, var={var!r}")
        self.mu = float(mu)
        self.var = float(var)
        self.schedule = schedule

    def _predict(self, x_t, t, c):
        ab, sig, _ = self.schedule.coefficients_at(t)
        denom = ab * self.var + (1.0 - ab)
        return sig * (x_t.data - np.sqrt(ab) * self.mu) / denom


# ---------------------------------------------------------------------------
# Tiny convolutional predictor (numpy forward + hand-written backward)
# ---------------------------------------------------------------------------

_K = 3  # kernel size per axis
_HIDDEN = 8
_BLOCK = 8192  # flat voxels per block: a block's 27 taps stay in L2 cache


def _fresh(slot, shape, zero=False):
    """The allocator of inference: a new zeroed array on every call, so
    the ``run_batch`` threads that share a predictor share no buffer.
    It keeps no reference: an array is freed once its last user drops
    it, which ``TinyConvPredictor._forward`` does layer by layer."""
    return np.zeros(shape)


class _Workspace:
    """The buffers of ``loss_and_grads`` for one patch shape, an
    allocator like ``_fresh``.

    The first call for a ``slot`` allocates it zeroed; later calls return
    the same array as its last user left it, zeroed again only if
    ``zero``.  Sites whose lifetimes do not overlap name the same slot,
    as every 8-channel conv output shares "z".  A layout slot only ever
    holds layouts of one padded shape, so its pads stay zero while each
    user rewrites its interior."""

    def __init__(self):
        self.slots = {}

    def __call__(self, slot, shape, zero=False):
        buf = self.slots.get(slot)
        if buf is None:
            buf = self.slots[slot] = np.zeros(shape)
        elif zero:
            buf.fill(0.0)
        return buf


def _layout(channels, dims, cut, alloc, slot):
    """A flat layout for a (channels, *dims) array with zero pads, taken
    from ``alloc(slot, ...)``, and the view of its interior to write
    that array into.

    The array is zero-padded by one voxel on every face not ``cut`` and
    its spatial axes are flattened.  The layout is the (C, L) array and
    the padded dims (P1, P2, P3); padded voxel (z, y, x) sits at
    q = z*S1 + y*S2 + x, S1 = P2*P3, S2 = P3."""
    pads = [(1 - lo, 1 - hi) for lo, hi in cut]
    padded = tuple(d + lo + hi for d, (lo, hi) in zip(dims, pads))
    flat = alloc(slot, (channels, math.prod(padded)))
    box = (slice(None),) + tuple(slice(lo, lo + d)
                                 for d, (lo, _) in zip(dims, pads))
    return (flat, padded), flat.reshape(channels, *padded)[box]


def _flat_layout(a, cut=NO_CUT, alloc=_fresh, slot=None):
    """The flat layout of a (C, Z, Y, X) array (see ``_layout``)."""
    layout, interior = _layout(len(a), a.shape[1:], cut, alloc, slot)
    interior[...] = a
    return layout


def _taps(padded):
    """The 27 tap offsets of a flat layout with ``padded`` dims in
    (dz, dy, dx) order (tap (dz, dy, dx) of output voxel q reads
    q + dz*S1 + dy*S2 + dx) and the length of the run of q that covers
    every output voxel, pad columns included."""
    P1, P2, P3 = padded
    s1, s2 = P2 * P3, P3
    offsets = [dz * s1 + dy * s2 + dx for dz, dy, dx in np.ndindex(3, 3, 3)]
    return offsets, (P1 - 3) * s1 + (P2 - 3) * s2 + P3 - 2


_einsum_product = partial(np.einsum, "oi,il->ol")


def _blas_product(a, b, out=None):
    # A one-column product (one channel upstream) is an outer product,
    # which OpenBLAS runs ~5x slower than a broadcast multiply.
    return (np.multiply if a.shape[1] == 1 else np.matmul)(a, b, out=out)


def _conv3d(layout, w, b=None, *, product, alloc=_fresh, slot=None):
    """3^3 convolution of the input x (Cin, Z, Y, X) given as
    ``_flat_layout(x, cut)``; w: (Cout, Cin, 3, 3, 3).  The output is
    "same"-padded on every face not cut and one voxel smaller on every
    cut face; with no cut it is the "same" convolution.

    ``product(w_k, slice, out=tap)`` multiplies one tap's (Cout, Cin)
    matrix into a (Cin, L) slice, writing the (Cout, L) result into
    ``tap``.  Only inference bytes are pinned (golden hashes), so only
    inference passes ``_einsum_product``: it is bit-identical to 27
    shifted-view ``einsum("oi,izyx->ozyx")`` calls, where BLAS blocking
    and FMA round differently.  Training passes ``_blas_product``, as
    the backward does.

    Each voxel sums its taps in (dz, dy, dx) order, starting from zero
    in a buffer from ``alloc(slot, ...)``; the bias ``b`` is added after
    the sum, and the returned view of the buffer drops the pad columns.
    The caller and, while a core is idle, one task on the spare worker
    (``spare.submit``) take blocks of ``_BLOCK`` columns from one
    iterator; a layer of one block runs on the caller alone.  Each
    thread multiplies its taps into a contiguous scratch of its own,
    allocated here by the caller, and adds it into the block, so no tap
    allocates.  A block's columns are written by one thread, with the
    same products summed in the same tap order, so no byte depends on
    which thread ran it."""
    xf, (P1, P2, P3) = layout
    offsets, n = _taps((P1, P2, P3))
    wk = np.ascontiguousarray(w.reshape(*w.shape[:2], -1).transpose(2, 0, 1))
    out = alloc(slot, (w.shape[0], (P1 - 2) * P2 * P3), zero=True)
    blocks = iter(range(0, n, _BLOCK))  # next() holds the GIL throughout

    def run(scratch):
        for lo in blocks:
            hi = min(lo + _BLOCK, n)
            acc = out[:, lo:hi]
            tap = scratch[:acc.size].reshape(acc.shape)
            for w_k, off in zip(wk, offsets):
                product(w_k, xf[:, lo + off:hi + off], out=tap)
                np.add(acc, tap, out=acc)

    size = len(out) * min(n, _BLOCK)
    task = submit(run, np.empty(size)) if n > _BLOCK else None
    try:
        run(np.empty(size))
    finally:
        settle(task)
    z = out.reshape(-1, P1 - 2, P2, P3)[:, :, :P2 - 2, :P3 - 2]
    if b is not None:
        z += b[:, None, None, None]
    return z


def _conv3d_grad_x(w, glayout, alloc=_fresh, slot=None):
    """Gradient of _conv3d w.r.t. its input from gout's flat layout, on
    BLAS: gout correlated with the channel-transposed, flipped kernel."""
    flipped = w.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1]
    return _conv3d(glayout, flipped, product=_blas_product, alloc=alloc,
                   slot=slot)


def _conv3d_grad_w(layout, glayout):
    """Gradient of _conv3d w.r.t. its weights, on BLAS, from the flat
    layouts of the input (built by the forward pass) and of gout."""
    xf, padded = layout
    offsets, n = _taps(padded)
    # gout's voxel q sits at q + S1 + S2 + 1 (centre tap); pads are zero.
    g = glayout[0][:, offsets[13]:]
    gw = np.zeros((len(offsets), len(g), len(xf)))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        for gw_k, off in zip(gw, offsets):
            gw_k += g[:, lo:hi] @ xf[:, lo + off:hi + off].T
    return gw.transpose(1, 2, 0).reshape(len(g), len(xf), _K, _K, _K)


def _silu_layout(z, cut, alloc=_fresh, slots=(None, None), keep=False):
    """SiLU z * expit(z), written straight into the interior of the next
    layer's flat layout (``slots[1]``); returns that layout and, if
    ``keep`` (for the backward's cache), SiLU'(z) = s * (1 + z * (1 - s)),
    s = expit(z), in ``slots[0]``, else None.  Each expit is written
    where the value made from it goes, so only ``keep`` takes one more
    buffer: a channel-sized "tmp" slot."""
    layout, interior = _layout(len(z), z.shape[1:], cut, alloc, slots[1])
    if not keep:
        np.multiply(z, expit(z, out=interior), out=interior)
        return layout, None
    d, tmp = alloc(slots[0], z.shape), alloc("tmp", z.shape[1:])
    for zc, dc, ic in zip(z, d, interior):
        s = expit(zc, out=dc)
        np.multiply(zc, s, out=ic)
        np.subtract(1.0, s, out=tmp)
        tmp *= zc
        tmp += 1.0
        np.multiply(tmp, s, out=dc)
    return layout, d


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
        self._workspaces = defaultdict(_Workspace)  # see loss_and_grads
        self.params = {name: np.zeros(shape) for name, shape in self.SHAPES}
        if seed is not None:
            check_int("seed", seed, 0)
            rng = np.random.default_rng(seed)
            for name, shape in self.SHAPES:
                if name.startswith("w"):
                    fan_in = int(np.prod(shape[1:]))
                    self.params[name] = rng.standard_normal(shape) / np.sqrt(fan_in)

    @property
    def n_params(self):
        return sum(p.size for p in self.params.values())

    def get_flat(self):
        return np.concatenate([self.params[n].ravel() for n, _ in self.SHAPES])

    def set_flat(self, flat):
        if flat.size != self.n_params:
            raise ValidationError(f"expected {self.n_params} parameters, got {flat.size}")
        offset = 0
        for name, shape in self.SHAPES:
            size = int(np.prod(shape))
            self.params[name] = flat[offset:offset + size].reshape(shape).copy()
            offset += size

    def _forward(self, x_t_data, mask_data, t, product, cut=NO_CUT,
                 alloc=_fresh, cache=False):
        """The network's output and, if ``cache``, the backward cache
        (else None): each layer's flat input layout and each SiLU's
        derivative, in the order ``_backward`` unpacks them.
        ``_predict`` passes the einsum ``product``, ``loss_and_grads``
        the BLAS one (see ``_conv3d``), its workspace as ``alloc`` and
        ``cache``.

        Without the cache each layout and conv output is dropped once
        its last reader is done, so inference holds at most one layout,
        one conv output and the tap scratch.  Each layer drops one voxel
        per ``cut`` face, so the output is ``HALO`` voxels smaller
        there.  Training passes no cut: the "same" convolution."""
        p = self.params
        a, interior = _layout(2, x_t_data.shape, cut, alloc, "x")
        interior[0] = x_t_data
        interior[1] = mask_data
        del interior
        kept = [a] if cache else None
        for k in (1, 2, 3):
            z = _conv3d(a, p[f"w{k}"], p.get(f"b{k}"), product=product,
                        alloc=alloc, slot="z3" if k == 3 else "z")
            del a  # its last reader is done
            if k == 1:
                z += _time_embedding(t)[:, None, None, None]
            if k == 3:
                return z[0], kept
            a, d = _silu_layout(z, cut, alloc, (f"d{k}", f"a{k}"),
                                keep=cache)
            if cache:
                kept += [d, a]
            del z, d

    def _backward(self, g3, cache, alloc):
        """Gradients from gout's flat layout ``g3``.  Each buffer of the
        forward pass is reused once its last reader is done: each SiLU'
        becomes its layer's gz in place, fa2's layout ("a2") holds gz2's
        after gw3, fa1's ("a1") gz1's after gw2, and "z" each grad_x."""
        p = self.params
        fx, gz1, fa1, gz2, fa2 = cache  # each gz holds SiLU' until *= below
        # Each layer's gout is laid out once for both of its gradients.
        # gz2 and gz1 stay contiguous for their bias sums: a sum over
        # the layout's strided interior would round differently.
        gw3 = _conv3d_grad_w(fa2, g3)
        gz2 *= _conv3d_grad_x(p["w3"], g3, alloc, "z")
        g2 = _flat_layout(gz2, alloc=alloc, slot="a2")
        gw2 = _conv3d_grad_w(fa1, g2)
        gb2 = gz2.sum(axis=(1, 2, 3))
        gz1 *= _conv3d_grad_x(p["w2"], g2, alloc, "z")
        gw1 = _conv3d_grad_w(fx, _flat_layout(gz1, alloc=alloc, slot="a1"))
        gb1 = gz1.sum(axis=(1, 2, 3))
        return {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2, "w3": gw3}

    def _predict(self, x_t, t, c):
        """The einsum forward without its backward cache; the zeroed
        output is made after it, outside its peak."""
        if c is None:
            mask, cut = np.zeros(x_t.dims), NO_CUT
        else:
            mask, cut = c.nodule_mask(), c.cut
        box = tuple(slice(HALO * lo, d - HALO * hi)
                    for d, (lo, hi) in zip(x_t.dims, cut))
        if any(b.start >= b.stop for b in box):
            return np.zeros(x_t.dims)
        eps, _ = self._forward(x_t.data, mask, t, _einsum_product, cut)
        out = np.zeros(x_t.dims)
        out[box] = eps
        return out

    def flops(self, dims, cut=NO_CUT):
        """FLOPs of one ``predict`` at ``dims`` with the condition's
        ``cut``: 2 per multiply-add of each conv layer, counted on the
        voxels that layer outputs."""
        sizes = [[d - k * (lo + hi) for d, (lo, hi) in zip(dims, cut)]
                 for k in (1, 2, 3)]
        if min(sizes[-1]) < 1:
            return 0
        return sum(2 * self.params[w].size * math.prod(size)
                   for w, size in zip(("w1", "w2", "w3"), sizes))

    def loss_and_grads(self, x0, m, t, eps, s):
        """MSE training loss at a fixed (t, eps) draw, with gradients.

        Builds x_t by forward diffusion, runs the network on the
        (x_t, mask) pair, and returns (loss, grads) where loss is the
        mean squared error against the true noise.

        The step's layouts, conv outputs, SiLU derivatives and gradient
        layouts live in a workspace kept on the instance for each patch
        dims seen: allocated at the first step at those dims and
        rewritten in place by every later one (~13.1 MB per 32^3 shape,
        kept as long as the instance).  So one instance serves one
        training thread; ``predict`` never touches the workspaces, and
        the returned loss and grads never alias them.
        """
        ws = self._workspaces[x0.dims]
        x_t = q_sample(x0, t, eps, s).x_t.data
        out, cache = self._forward(x_t, m.nodule_mask(), t, _blas_product,
                                   alloc=ws, cache=True)
        # The residual is scaled in place into gout = 2 * resid / size.
        g3, gout = _layout(1, x0.dims, NO_CUT, ws, "g3")
        resid = np.subtract(out, eps.data, out=gout[0])
        loss = float(np.mean(resid ** 2))
        resid *= 2.0
        resid /= resid.size
        grads = self._backward(g3, cache, ws)
        return loss, grads

    # -- checkpoint I/O --------------------------------------------------

    def save(self, path):
        flat = self.get_flat().astype("<f4")
        write_binary(path, _CKPT_HEADER, _CKPT_MAGIC, (flat.size,), flat)

    @classmethod
    def load(cls, path):
        """Read a checkpoint; raises FormatError for a malformed file
        (:func:`~nodulesynth.volume.read_binary`, which also rejects a
        non-finite weight) or a parameter count other than the net's."""
        (count,), flat = read_binary(path, _CKPT_HEADER, _CKPT_MAGIC, "<f4",
                                     lambda fields: fields[0])
        p = cls()
        if count != p.n_params:
            raise FormatError(f"checkpoint holds {count} parameters, the net "
                              f"has {p.n_params}", offset=8)
        p.set_flat(flat.astype(np.float64))
        return p


class Adam:
    """Standard Adam on a flat parameter vector."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, n, lr=1e-3):
        self.lr = lr
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, flat, grad):
        self.t += 1
        self.m = self.BETA1 * self.m + (1 - self.BETA1) * grad
        self.v = self.BETA2 * self.v + (1 - self.BETA2) * grad ** 2
        mhat = self.m / (1 - self.BETA1 ** self.t)
        vhat = self.v / (1 - self.BETA2 ** self.t)
        return flat - self.lr * mhat / (np.sqrt(vhat) + self.EPS)


def _flatten_grads(p, grads):
    return np.concatenate([grads[n].ravel() for n, _ in p.SHAPES])


@counted_request()
def train_step(p, x0, m, rng, s, optimizer):
    """One training step: sample (t, eps), take a gradient step with
    ``optimizer`` (an :class:`Adam` over ``p``'s flat parameters), return
    the pre-update loss.  It counts as a request for the spare-core gate
    (``spare.counted_request``)."""
    if m.dims != x0.dims:
        raise ValidationError(f"layout dims {m.dims} != patch dims {x0.dims}")
    t = int(rng.integers(1, s.T + 1))
    eps = VoxelVolume(rng.standard_normal(x0.dims), x0.spacing)
    loss, grads = p.loss_and_grads(x0, m, t, eps, s)
    if not np.isfinite(loss):
        raise TrainingError(f"non-finite loss {loss} at t={t}")
    p.set_flat(optimizer.step(p.get_flat(), _flatten_grads(p, grads)))
    return loss


def train(p, dataset, s, epochs, lr=1e-3, seed=0):
    """Train over (patch, layout) pairs; returns the loss curve.

    Deterministic given the seed.  ``epochs=0`` leaves weights
    untouched and returns an empty curve.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValidationError("dataset holds no (patch, layout) pair")
    check_int("epochs", epochs, 0)
    if not (is_finite_real(lr) and lr > 0):
        raise ValidationError(
            f"lr must be a positive real number, got {lr!r}")
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    opt = Adam(p.n_params, lr=lr)
    losses = []
    for _ in range(epochs):
        for x0, m in dataset:
            losses.append(train_step(p, x0, m, rng, s, optimizer=opt))
    return losses


def write_loss_curve(losses, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for i, loss in enumerate(losses):
            writer.writerow([i, f"{loss:.10g}"])
