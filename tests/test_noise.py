"""A request's full-patch noise draws follow an exact plan.

``pulmonary_solve`` makes ``noise_draws`` standard-normal draws on the
calling thread, from the generator it is given.  ``run_eaas`` plans its
own two draws plus the solve's, and its ``BoxNoise`` makes them one
ahead on a worker thread while a core is idle, else on demand.  These
tests pin the plan, check that a solve fed by a ``BoxNoise`` consumes
exactly that many full-patch draws from the generator either way, that
the solve itself starts no thread, that no draw is left running when a
request raises, and that drawing ahead changes no output byte.
"""

import threading
import time

import numpy as np
import pytest

from nodulesynth import eaas, spare
from nodulesynth.eaas import BoxNoise, EaasRequest, run_eaas
from nodulesynth.forward import q_sample
from nodulesynth.predictor import AnalyticGaussianPredictor
from nodulesynth.schedule import make_schedule
from nodulesynth.solver import (SolverConfig, make_time_grid, noise_draws,
                                pulmonary_solve)
from nodulesynth.spare import counted_request
from nodulesynth.volume import (NODULE, CropRegion, SemanticLayout,
                                VoxelVolume, make_phantom)

T = 100
DIMS = (10, 9, 8)
WHOLE = CropRegion((0, 0, 0), DIMS)


class _SlowDraws:
    """A generator whose ``standard_normal`` calls are counted with their
    shape and thread, and can be slow or fail at a given call; how many
    run at once is recorded.  Everything else is the wrapped
    generator's."""

    def __init__(self, rng, delay=0.0, fail_at=None):
        self.rng = rng
        self.delay = delay
        self.fail_at = fail_at
        self.shapes = []
        self.threads = []
        self.running = 0
        self.max_running = 0
        self._lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_normal(self, size=None, out=None):
        with self._lock:
            self.shapes.append(tuple(size) if out is None else out.shape)
            self.threads.append(threading.current_thread())
            call = len(self.shapes)
            self.running += 1
            self.max_running = max(self.max_running, self.running)
        try:
            time.sleep(self.delay)
            if call == self.fail_at:
                raise RuntimeError("planted draw failure")
            return self.rng.standard_normal(size, out=out)
        finally:
            with self._lock:
                self.running -= 1


def _problem(seed):
    labels = np.ones(DIMS, dtype=np.uint8)
    labels[3:6, 2:5, 4:7] = NODULE
    data_rng = np.random.default_rng(seed)
    x_ref = VoxelVolume(data_rng.uniform(-1.0, 1.0, DIMS))
    return SemanticLayout(labels), x_ref, data_rng


def _advanced(seed, draws):
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        rng.standard_normal(DIMS)
    return rng.bit_generator.state


@pytest.fixture(params=[64, 1], ids=["idle_core", "no_idle_core"])
def cores(request, monkeypatch):
    """Draw ahead on the worker (64 cores) or on the caller (1 core)."""
    monkeypatch.setattr(spare, "_CORES", request.param)
    return request.param


@pytest.mark.parametrize("steps,t_start", [(6, T), (1, T), (7, 7)],
                         ids=["general", "one_step", "steps_eq_t_start"])
@pytest.mark.parametrize("gamma", [0.0, 0.7])
@pytest.mark.parametrize("blend_mode", ["per_step", "init_only"])
@pytest.mark.parametrize("method",
                         ["dpm1", "dpm2_multistep", "dpm3", "ancestral"])
def test_solve_consumes_exactly_the_plan(method, blend_mode, gamma, steps,
                                         t_start, cores):
    s = make_schedule("cosine", T)
    cfg = SolverConfig(method=method, steps=steps, gamma=gamma,
                       blend_mode=blend_mode, t_start=t_start)
    m, x_ref, data_rng = _problem(3)
    x_init = q_sample(x_ref, t_start,
                      VoxelVolume(data_rng.standard_normal(DIMS)), s)
    plan = noise_draws(make_time_grid(s, cfg), cfg, s)
    rng = _SlowDraws(np.random.default_rng(11))
    noise = BoxNoise(rng, DIMS, WHOLE, plan)
    pulmonary_solve(x_init, x_ref, m, AnalyticGaussianPredictor(0.0, 1.0, s),
                    cfg, noise, s)
    with pytest.raises(RuntimeError, match="noise plan"):
        noise.standard_normal(DIMS)  # the solve took every planned draw
    assert rng.shapes == [DIMS] * plan
    assert rng.max_running <= 1
    assert rng.rng.bit_generator.state == _advanced(11, plan)


@pytest.mark.parametrize("method",
                         ["dpm1", "dpm2_multistep", "dpm3", "ancestral"])
def test_solve_draws_on_the_calling_thread(method):
    s = make_schedule("cosine", T)
    cfg = SolverConfig(method=method, steps=6, gamma=0.7, t_start=T)
    m, x_ref, data_rng = _problem(3)
    x_init = q_sample(x_ref, T, VoxelVolume(data_rng.standard_normal(DIMS)),
                      s)
    rng = _SlowDraws(np.random.default_rng(11))
    pulmonary_solve(x_init, x_ref, m, AnalyticGaussianPredictor(0.0, 1.0, s),
                    cfg, rng, s)
    plan = noise_draws(make_time_grid(s, cfg), cfg, s)
    assert rng.threads == [threading.current_thread()] * plan


def test_plan_counts_each_draw():
    s = make_schedule("cosine", T)
    cfg = SolverConfig(method="ancestral", steps=T, t_start=T, gamma=0.5)
    grid = make_time_grid(s, cfg)
    # 99 steps end above t = 0, each with an ancestral and a blend draw;
    # 29 of them (t_lo = 71..99) end inside the hybrid window.
    assert noise_draws(grid, cfg, s) == 99 * 2 + 29
    init_only = SolverConfig(method="dpm2_multistep", steps=T, t_start=T,
                             blend_mode="init_only")
    assert noise_draws(grid, init_only, s) == 0
    one_step = SolverConfig(steps=1, t_start=T, gamma=0.5)
    assert noise_draws(make_time_grid(s, one_step), one_step, s) == 0


def test_draw_beyond_plan_raises_at_once():
    noise = BoxNoise(np.random.default_rng(0), DIMS, WHOLE, 1)
    with pytest.raises(ValueError, match="box size"):
        noise.standard_normal((2, 3, 4))
    assert noise.standard_normal(DIMS).shape == DIMS
    with pytest.raises(RuntimeError, match="noise plan"):
        noise.standard_normal(DIMS)
    with pytest.raises(RuntimeError, match="noise plan"):
        BoxNoise(np.random.default_rng(0), DIMS, WHOLE,
                 0).standard_normal(DIMS)


def _request(predictor, s, cfg):
    vol, lay = make_phantom(11, (32, 32, 32))
    return EaasRequest(reference=vol, lung_layout=lay, predictor=predictor,
                       schedule=s, solver=cfg, patch_size=(16, 16, 16),
                       seed=4)


def _patch_default_rng(monkeypatch, **kwargs):
    """Make every ``np.random.default_rng`` a :class:`_SlowDraws` with
    ``kwargs``; returns the list they are appended to."""
    made = []
    real = np.random.default_rng

    def default_rng(seed):
        made.append(_SlowDraws(real(seed), **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made


def _raised(req):
    """The messages of what ``run_eaas(req)`` raises, run on a thread
    that must end within 30 s."""
    raised = []

    def request():
        try:
            run_eaas(req)
        except RuntimeError as err:
            raised.append(str(err))

    thread = threading.Thread(target=request, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    return raised


def _assert_no_draw_follows(rng, calls):
    assert len(rng.shapes) == calls and rng.running == 0
    state = rng.rng.bit_generator.state
    time.sleep(0.15)
    assert len(rng.shapes) == calls
    assert rng.rng.bit_generator.state == state
    assert spare._requests == 0


class _FailingPredictor(AnalyticGaussianPredictor):
    def _predict(self, x_t, t, c):
        if self.eval_count == 3:
            raise RuntimeError("planted failure")
        return super()._predict(x_t, t, c)


@pytest.mark.parametrize("method", ["dpm2_multistep", "ancestral"])
def test_raising_solve_leaves_no_draw_running(method, cores, monkeypatch):
    # The predictor fails inside the solve, with the next draw submitted
    # ahead when a core is idle and slow enough to be running.
    s = make_schedule("cosine", T)
    cfg = SolverConfig(method=method, steps=6)
    req = _request(_FailingPredictor(0.0, 1.0, s), s, cfg)
    made = _patch_default_rng(monkeypatch, delay=0.05)
    assert _raised(req) == ["planted failure"]
    (rng,) = made
    calls = len(rng.shapes)
    assert 2 < calls <= 2 + noise_draws(make_time_grid(s, cfg), cfg, s)
    _assert_no_draw_follows(rng, calls)


def test_failing_draw_in_request_leaves_no_draw_running(monkeypatch, cores):
    # The request's own two draws build its initial state; the third is
    # the solve's first.  All are drawn ahead on the worker when a core
    # is idle.
    s = make_schedule("cosine", T)
    req = _request(AnalyticGaussianPredictor(0.0, 1.0, s), s,
                   SolverConfig(steps=6))
    made = _patch_default_rng(monkeypatch, delay=0.05, fail_at=3)
    assert _raised(req) == ["planted draw failure"]
    (rng,) = made
    _assert_no_draw_follows(rng, 3)


@pytest.mark.parametrize("cfg", [
    SolverConfig(method="dpm2_multistep", steps=6),
    SolverConfig(method="dpm3", steps=6),
    SolverConfig(method="ancestral", steps=6, gamma=0.5),
], ids=["dpm2_multistep", "dpm3", "ancestral_gamma"])
def test_request_bytes_do_not_depend_on_drawing_ahead(cfg, monkeypatch):
    s = make_schedule("cosine", T)
    req = _request(AnalyticGaussianPredictor(0.0, 1.0, s), s, cfg)
    plan = 2 + noise_draws(make_time_grid(s, cfg), cfg, s)
    real_submit = eaas.submit
    results = {}
    for cores in (1, 64):
        monkeypatch.setattr(spare, "_CORES", cores)
        submitted = []

        def submit(fn, *args):
            submitted.append(real_submit(fn, *args))
            return submitted[-1]

        monkeypatch.setattr(eaas, "submit", submit)
        results[cores] = run_eaas(req)
        ran_ahead = [task for task in submitted if task is not None]
        assert len(submitted) == plan
        assert len(ran_ahead) == (plan if cores == 64 else 0)
    one, many = results[1], results[64]
    assert np.array_equal(one.full_volume.data.view(np.uint64),
                          many.full_volume.data.view(np.uint64))
    assert np.array_equal(one.full_layout.labels, many.full_layout.labels)


class _ThreadRecorder:
    """Generator stand-in that records the thread of every draw."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.threads = []

    def standard_normal(self, size=None, out=None):
        self.threads.append(threading.current_thread())
        return self.rng.standard_normal(size, out=out)


def test_counted_requests_decide_where_draws_run(monkeypatch):
    monkeypatch.setattr(spare, "_CORES", 4)

    def drawn_ahead():
        rng = _ThreadRecorder()
        noise = BoxNoise(rng, DIMS, WHOLE, 1)
        time.sleep(0.05)  # a submitted draw of 720 normals is done by now
        started_early = len(rng.threads) == 1
        noise.standard_normal(DIMS)
        noise.close()
        assert len(rng.threads) == 1
        on_worker = rng.threads[0] is not threading.current_thread()
        assert started_early == on_worker
        return on_worker

    assert drawn_ahead()
    with counted_request(), counted_request():
        assert drawn_ahead()  # two requests, one core each to spare
        with counted_request():
            assert not drawn_ahead()
    assert spare._requests == 0
