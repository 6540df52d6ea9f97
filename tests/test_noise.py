"""The solver's full-patch noise draws follow an exact plan.

``pulmonary_solve`` draws its noise one step ahead on a worker thread
while a core is idle, else on demand.  These tests pin the plan
(``noise_draws``), check that a solve consumes exactly that many
full-patch draws from the caller's generator either way, and that no
draw is left running when a solve or a whole request raises.
"""

import threading
import time

import numpy as np
import pytest

from nodulesynth import spare
from nodulesynth.eaas import EaasRequest, run_eaas
from nodulesynth.forward import q_sample
from nodulesynth.predictor import AnalyticGaussianPredictor
from nodulesynth.schedule import make_schedule
from nodulesynth.solver import (SolverConfig, _DrawAhead, make_time_grid,
                                noise_draws, pulmonary_solve)
from nodulesynth.spare import counted_request
from nodulesynth.volume import (NODULE, SemanticLayout, VoxelVolume,
                                make_phantom)

T = 100
DIMS = (10, 9, 8)


class _CountingDraws:
    """Generator stand-in that counts its full-patch draws, records how
    many run at once and can make each draw slow."""

    def __init__(self, seed, delay=0.0):
        self.rng = np.random.default_rng(seed)
        self.delay = delay
        self.shapes = []
        self.running = 0
        self.max_running = 0
        self._lock = threading.Lock()

    def standard_normal(self, size):
        with self._lock:
            self.running += 1
            self.max_running = max(self.max_running, self.running)
        try:
            time.sleep(self.delay)
            self.shapes.append(tuple(size))
            return self.rng.standard_normal(size)
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
    rng = _CountingDraws(11)
    pulmonary_solve(x_init, x_ref, m, AnalyticGaussianPredictor(0.0, 1.0, s),
                    cfg, rng, s)
    plan = noise_draws(make_time_grid(s, cfg), cfg, s)
    assert rng.shapes == [DIMS] * plan
    assert rng.max_running <= 1
    assert rng.rng.bit_generator.state == _advanced(11, plan)


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
    noise = _DrawAhead(np.random.default_rng(0), DIMS, 1)
    with pytest.raises(ValueError, match="planned"):
        noise.standard_normal((2, 3, 4))
    assert noise.standard_normal(DIMS).shape == DIMS
    with pytest.raises(RuntimeError, match="noise plan"):
        noise.standard_normal(DIMS)
    with pytest.raises(RuntimeError, match="noise plan"):
        _DrawAhead(np.random.default_rng(0), DIMS, 0).standard_normal(DIMS)


class _FailingPredictor(AnalyticGaussianPredictor):
    def _predict(self, x_t, t, c):
        if self.eval_count == 3:
            raise RuntimeError("planted failure")
        return super()._predict(x_t, t, c)


@pytest.mark.parametrize("method", ["dpm2_multistep", "ancestral"])
def test_raising_solve_leaves_no_draw_running(method, cores):
    s = make_schedule("cosine", T)
    cfg = SolverConfig(method=method, steps=6, t_start=T)
    m, x_ref, data_rng = _problem(5)
    x_init = q_sample(x_ref, T, VoxelVolume(data_rng.standard_normal(DIMS)),
                      s)
    rng = _CountingDraws(2, delay=0.05)
    with pytest.raises(RuntimeError, match="planted failure"):
        pulmonary_solve(x_init, x_ref, m,
                        _FailingPredictor(0.0, 1.0, s), cfg, rng, s)
    assert rng.running == 0
    state = rng.rng.bit_generator.state
    time.sleep(0.15)
    assert rng.rng.bit_generator.state == state
    assert len(rng.shapes) <= noise_draws(make_time_grid(s, cfg), cfg, s)


class _FailingThirdDraw:
    """A generator whose third ``standard_normal`` call raises; every
    call is slow and counted while it runs, and everything else is the
    wrapped generator's."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0
        self.running = 0
        self._lock = threading.Lock()

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_normal(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
            call = self.calls
            self.running += 1
        try:
            time.sleep(0.05)
            if call == 3:
                raise RuntimeError("planted draw failure")
            return self.rng.standard_normal(*args, **kwargs)
        finally:
            with self._lock:
                self.running -= 1


def test_failing_draw_in_request_leaves_no_draw_running(monkeypatch, cores):
    # The request's own two draws build its initial state; the third is
    # the solve's first, drawn ahead on the worker when a core is idle.
    s = make_schedule("cosine", T)
    vol, lay = make_phantom(11, (32, 32, 32))
    made = []
    real = np.random.default_rng

    def default_rng(seed):
        made.append(_FailingThirdDraw(real(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    req = EaasRequest(reference=vol, lung_layout=lay,
                      predictor=AnalyticGaussianPredictor(0.0, 1.0, s),
                      schedule=s, solver=SolverConfig(steps=6),
                      patch_size=(16, 16, 16), seed=4)
    raised = []

    def request():
        try:
            run_eaas(req)
        except RuntimeError as err:
            raised.append(err)

    thread = threading.Thread(target=request, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert [str(err) for err in raised] == ["planted draw failure"]
    (rng,) = made
    assert rng.calls == 3 and rng.running == 0
    state = rng.rng.bit_generator.state
    time.sleep(0.15)
    assert rng.calls == 3 and rng.rng.bit_generator.state == state
    assert spare._requests == 0


class _ThreadRecorder:
    """Generator stand-in that records the thread of every draw."""

    def __init__(self):
        self.rng = np.random.default_rng(0)
        self.threads = []

    def standard_normal(self, size):
        self.threads.append(threading.current_thread())
        return self.rng.standard_normal(size)


def test_counted_requests_decide_where_draws_run(monkeypatch):
    monkeypatch.setattr(spare, "_CORES", 4)

    def drawn_ahead():
        rng = _ThreadRecorder()
        noise = _DrawAhead(rng, DIMS, 1)
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
