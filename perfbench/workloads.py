"""The benchmark workloads and the checks run on every output.

Each workload is built from the run's seed alone and drives the library
only through its public API.  One *operation* is one timed library
call: ``run_eaas`` (one fused volume), ``run_batch`` (several) or
``train_step`` (one training step).  Every output of an operation is
checked; a failed check is recorded against that output and the run
goes on.
"""

import hashlib
import time
from dataclasses import dataclass

import numpy as np

import nodulesynth.eaas as eaas
import nodulesynth.solver as solver
from nodulesynth import (AnalyticGaussianPredictor, EaasRequest,
                         LayoutConfig, SolverConfig, TinyConvPredictor,
                         crop, expected_nfe, make_phantom, make_schedule,
                         pick_healthy_crop, place_nodule,
                         sample_nodule_spec, train_step)
from nodulesynth.errors import PlacementError
from nodulesynth.predictor import Adam
from nodulesynth.volume import NODULE

# Request seeds are seed * SEED_STRIDE + index; warm-up requests use
# indices from WARMUP_INDEX up, which no timed run reaches.
SEED_STRIDE = 1_000_000
WARMUP_INDEX = 900_000
# Halo around the nodule bounding box that a 3-layer 3^3 conv stack
# needs to reproduce the nodule voxels exactly.
ROI_HALO = 3
# Pooled nodule voxels of the analytic workload must match N(0, 1)
# within these bounds (mean -0.013, variance 1.022 seen in practice).
MOMENT_TOL = {"mean": 0.05, "var": 0.1}


@dataclass
class Unit:
    """One checked output: a fused volume or a training step."""

    failures: list
    digest: str = ""
    roi_frac: float = None
    nodule_frac: float = None
    nfe: int = 0
    voxels: int = 0           # voxels passed to the predictor, summed
    moments: tuple = None     # (n, sum, sum of squares) of nodule voxels

    @property
    def ok(self):
        return not self.failures


@dataclass
class Op:
    """One timed library call and its checked outputs."""

    seconds: float
    units: list


class CountingPredictor:
    """Per-request view of a shared predictor.

    Counts calls and evaluated voxels itself instead of reading the
    shared predictor's counter, which worker threads update without a
    lock.  With a tracer, every call also records a span.
    """

    def __init__(self, inner, tracer=None):
        self.calls = 0
        self.voxels = 0
        self._predict = inner.predict if tracer is None else \
            tracer.wrap(inner.predict, "predictor.predict")

    def predict(self, x_t, t, c):
        self.calls += 1
        self.voxels += x_t.data.size
        return self._predict(x_t, t, c)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_fusion(reference, lung_layout, result):
    """Failures of one fused (volume, layout) pair against its inputs."""
    vol, labels = result.full_volume.data, result.full_layout.labels
    if not np.all(np.isfinite(vol)):
        return ["non-finite fused volume"]
    failures = []
    in_crop = np.zeros(vol.shape, dtype=bool)
    in_crop[result.crop.slices()] = True
    nodule = labels == NODULE
    changed = vol.view(np.uint64) != reference.data.view(np.uint64)
    if np.any(changed & ~in_crop):
        failures.append("voxels changed outside the crop")
    if np.any(changed & ~nodule):
        failures.append("voxels changed outside the nodule mask")
    if np.any((labels != lung_layout.labels) & ~nodule):
        failures.append("labels changed outside the nodule")
    if np.any(nodule & ~in_crop):
        failures.append("nodule labels outside the crop")
    if not nodule.any():
        failures.append("no nodule voxels")
    return failures


def check_nfe(counted, cfg):
    want = expected_nfe(cfg.method, cfg.steps)
    return [] if counted == want else [f"counted NFE {counted} != expected {want}"]


def check_moments(units):
    """Failure of the pooled nodule-voxel N(0, 1) check, or None."""
    n = sum(u.moments[0] for u in units if u.moments)
    if n == 0:
        return "no nodule voxels to pool"
    s1 = sum(u.moments[1] for u in units if u.moments)
    s2 = sum(u.moments[2] for u in units if u.moments)
    mean, var = s1 / n, s2 / n - (s1 / n) ** 2
    if abs(mean) > MOMENT_TOL["mean"] or abs(var - 1.0) > MOMENT_TOL["var"]:
        return (f"pooled nodule voxels mean {mean:.4f} var {var:.4f} "
                f"outside N(0, 1) tolerance {MOMENT_TOL}")
    return None


def roi_fractions(nodule):
    """(ROI fraction, nodule fraction) of one patch's nodule mask.  The
    ROI is the nodule bounding box plus ROI_HALO voxels, clipped to the
    patch."""
    idx = np.argwhere(nodule)
    if len(idx) == 0:
        return 0.0, 0.0
    lo = np.maximum(idx.min(axis=0) - ROI_HALO, 0)
    hi = np.minimum(idx.max(axis=0) + 1 + ROI_HALO, nodule.shape)
    return float(np.prod(hi - lo)) / nodule.size, float(nodule.mean())


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Synthesis workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Synth:
    """``run_eaas`` requests on patches of a procedural thorax.

    ``batch`` 0 sends one request per operation; otherwise an operation
    is one ``run_batch`` call of ``batch`` requests.
    """

    name: str
    phantom: int
    patch: int
    predictor: str          # "tinyconv" or "analytic"
    steps: int
    warmup_steps: int
    batch: int = 0
    parallelism: int = 1
    check_moments: bool = False

    root_span = "eaas.request"

    def setup(self, seed):
        s = make_schedule("cosine", 1000)
        reference, lung = make_phantom(seed, (self.phantom,) * 3)
        if self.predictor == "tinyconv":
            predictor = TinyConvPredictor(seed=0)
        else:
            predictor = AnalyticGaussianPredictor(0.0, 1.0, s)
        state = SynthState(self, seed, s, reference, lung, predictor)
        state.op(WARMUP_INDEX, steps=self.warmup_steps)
        return state


@dataclass
class SynthState:
    wl: Synth
    seed: int
    schedule: object
    reference: object
    lung: object
    predictor: object

    def requests(self, k, tracer=None, steps=None):
        cfg = SolverConfig(method="dpm2_multistep",
                           steps=steps or self.wl.steps, blend_mode="per_step")
        n = max(self.wl.batch, 1)
        return [EaasRequest(self.reference, self.lung,
                            CountingPredictor(self.predictor, tracer),
                            self.schedule, cfg,
                            patch_size=(self.wl.patch,) * 3,
                            seed=self.seed * SEED_STRIDE + k * n + i)
                for i in range(n)]

    def trace_targets(self):
        """Names the library looks up at call time, wrapped in a traced
        run: ``(owner, attribute, span name, request id function)``."""
        by_module = (
            (eaas, "run_eaas", "eaas.request"),
            (eaas, "pick_healthy_crop", "layout.pick_healthy_crop"),
            (eaas, "sample_nodule_spec", "layout.sample_nodule_spec"),
            (eaas, "place_nodule", "layout.place_nodule"),
            (eaas, "crop", "volume.crop"),
            (eaas, "paste", "volume.paste"),
            (eaas, "invert_reference", "forward.invert_reference"),
            (eaas, "masked_mix", "forward.masked_mix"),
            (eaas, "pulmonary_solve", "solver.pulmonary_solve"),
            (solver, "make_time_grid", "solver.make_time_grid"),
            (solver, "dpm_update", "solver.dpm_update"),
            (solver, "q_sample", "forward.q_sample"),
        )
        return [(mod, attr, name,
                 _request_seed if name == self.wl.root_span else None)
                for mod, attr, name in by_module]

    def op(self, k, tracer=None, parallelism=None, steps=None):
        reqs = self.requests(k, tracer, steps)
        start = time.perf_counter()
        try:
            if self.wl.batch:
                items = eaas.run_batch(reqs, parallelism or self.wl.parallelism)
                outcomes = [(item.result, item.error) for item in items]
            else:
                outcomes = [(eaas.run_eaas(reqs[0]), None)]
        except Exception as err:  # noqa: BLE001 - a crash fails its outputs
            seconds = time.perf_counter() - start
            return Op(seconds, [Unit([f"{type(err).__name__}: {err}"])
                                for _ in reqs])
        seconds = time.perf_counter() - start
        return Op(seconds, [self.check(req, result, error)
                            for req, (result, error) in zip(reqs, outcomes)])

    def check(self, req, result, error):
        if error is not None:
            return Unit([error])
        failures = check_fusion(self.reference, self.lung, result)
        failures += check_nfe(req.predictor.calls, req.solver)
        labels = result.full_layout.labels
        nodule = labels == NODULE
        roi, frac = roi_fractions(nodule[result.crop.slices()])
        moments = None
        if self.wl.check_moments:
            v = result.full_volume.data[nodule]
            moments = (v.size, float(v.sum()), float(np.dot(v, v)))
        return Unit(failures, _digest(result.full_volume.data, labels),
                    roi, frac, req.predictor.calls, req.predictor.voxels,
                    moments)


def _request_seed(req, *args, **kwargs):
    return req.seed


# ---------------------------------------------------------------------------
# Training workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Train:
    """``train_step`` on one shared predictor and Adam, cycling over
    (patch, nodule layout) pairs cut from a procedural thorax."""

    name: str
    phantom: int
    patch: int
    pairs: int

    root_span = "train.step"

    def setup(self, seed):
        s = make_schedule("cosine", 1000)
        reference, lung = make_phantom(seed, (self.phantom,) * 3)
        rng = np.random.default_rng(seed)
        layout_cfg = LayoutConfig(max_diameter_mm=0.8 * self.patch)
        pairs = [self._pair(reference, lung, layout_cfg, rng)
                 for _ in range(self.pairs)]
        warm = TinyConvPredictor(seed=0)
        train_step(warm, *pairs[0], np.random.default_rng(seed), s,
                   optimizer=Adam(warm.n_params))
        p = TinyConvPredictor(seed=0)
        return TrainState(self, s, pairs, p, Adam(p.n_params), rng)

    def _pair(self, reference, lung, layout_cfg, rng):
        region = pick_healthy_crop(lung, lung, (self.patch,) * 3, rng)
        x0, lung_patch = crop(reference, region), crop(lung, region)
        for _ in range(25):
            try:
                spec = sample_nodule_spec(layout_cfg, rng)
                return x0, place_nodule(spec, lung_patch, x0.spacing, rng)
            except PlacementError:
                continue
        raise PlacementError("no placeable nodule for a training pair")


@dataclass
class TrainState:
    wl: Train
    schedule: object
    pairs: list
    predictor: object
    optimizer: object
    rng: object

    def trace_targets(self):
        return [(self.predictor, "loss_and_grads",
                 "predictor.loss_and_grads", None),
                (self.optimizer, "step", "predictor.optimizer", None)]

    def op(self, k, tracer=None):
        x0, m = self.pairs[k % len(self.pairs)]
        step = train_step if tracer is None else tracer.wrap(
            train_step, self.wl.root_span, lambda *a, **kw: k)
        start = time.perf_counter()
        try:
            loss = step(self.predictor, x0, m, self.rng, self.schedule,
                        optimizer=self.optimizer)
        except Exception as err:  # noqa: BLE001 - a crash fails its step
            return Op(time.perf_counter() - start,
                      [Unit([f"{type(err).__name__}: {err}"])])
        seconds = time.perf_counter() - start
        flat = self.predictor.get_flat()
        failures = []
        if not np.isfinite(loss):
            failures.append(f"non-finite loss {loss}")
        if not np.all(np.isfinite(flat)):
            failures.append("non-finite parameters")
        roi, frac = roi_fractions(m.nodule_mask())
        return Op(seconds, [Unit(failures, _digest(np.float64(loss), flat),
                                 roi, frac)])


WORKLOADS = {wl.name: wl for wl in (
    Synth("synth-tinyconv-64", phantom=96, patch=64, predictor="tinyconv",
          steps=10, warmup_steps=1),
    Synth("synth-analytic-batch-32", phantom=64, patch=32,
          predictor="analytic", steps=50, warmup_steps=50, batch=8,
          parallelism=2, check_moments=True),
    Train("train-tinyconv-32", phantom=64, patch=32, pairs=8),
)}
