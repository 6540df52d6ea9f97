import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from nodulesynth import bench
from nodulesynth.eaas import run_batch
from nodulesynth.errors import ValidationError
from nodulesynth.predictor import TinyConvPredictor, train
from nodulesynth.schedule import (BETA_MAX, COSINE_OFFSET, LAMBDA_CAP,
                                  coefficients_of_lambda, make_schedule)
from nodulesynth.solver import SolverConfig, grid_from_times


def test_cosine_alpha_bar_matches_closed_form(cosine1000):
    # Oracle: evaluate the squared-cosine expression directly and compare
    # with the cumulative product, wherever no beta clipping occurred.
    s = COSINE_OFFSET
    T = cosine1000.T
    for t in (0, 1, 10, 250, 500, 750, 900):
        angle = (t / T + s) / (1 + s) * math.pi / 2
        angle0 = s / (1 + s) * math.pi / 2
        expected = math.cos(angle) ** 2 / math.cos(angle0) ** 2
        assert cosine1000.alpha_bar[t] == pytest.approx(expected, rel=1e-12)


def _betas(s):
    """Per-step variances recovered from the alpha_bar table."""
    return 1.0 - s.alpha_bar[1:] / s.alpha_bar[:-1]


def test_beta_clipped(cosine1000):
    beta = _betas(cosine1000)
    assert np.all(beta > 0)
    assert np.all(beta <= BETA_MAX + 1e-12)
    # The cosine's last step (alpha_bar -> 0) is the one clipped.
    assert beta[-1] == pytest.approx(BETA_MAX)


def test_variance_preserving_identity(cosine1000, linear1000):
    for s in (cosine1000, linear1000):
        np.testing.assert_allclose(s.alpha_bar + s.sigma ** 2, 1.0,
                                   rtol=0, atol=1e-15)


def test_monotonicity(cosine1000, linear1000, cosine100):
    for s in (cosine1000, linear1000, cosine100):
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all(np.diff(s.sigma) > 0)
        assert np.all(np.diff(s.lam) < 0)


def test_endpoints(cosine1000):
    assert cosine1000.alpha_bar[0] == 1.0
    assert cosine1000.sigma[0] == 0.0
    assert cosine1000.lam[0] == LAMBDA_CAP


def test_linear_beta_endpoints():
    beta = _betas(make_schedule("linear", 1000))
    assert beta[0] == pytest.approx(1e-4)
    assert beta[-1] == pytest.approx(0.02)
    # Rescaled to keep the total variance budget at other step counts.
    beta100 = _betas(make_schedule("linear", 100))
    assert beta100[0] == pytest.approx(1e-3)
    assert beta100[-1] == pytest.approx(0.2)


def test_coefficients_at_validation(cosine100):
    # Integer and fractional times outside [0, T] both raise.
    for t in (-1, 101, -0.5, 100.5, float("nan")):
        with pytest.raises(ValueError):
            cosine100.coefficients_at(t)


def test_coefficients_at_matches_tables(cosine1000):
    for t in (0, 417, 417.0, np.int64(417), np.float64(1000.0)):
        ab, sig, lam = cosine1000.coefficients_at(t)
        i = int(t)
        assert ab == cosine1000.alpha_bar[i]
        assert sig == cosine1000.sigma[i]
        assert lam == cosine1000.lam[i]


def test_coefficients_at_fractional_is_continuous_view(cosine1000):
    for t in (0.25, 400.5, np.float64(999.75)):
        lam = float(cosine1000.lambda_of(t))
        assert cosine1000.coefficients_at(t) == (*coefficients_of_lambda(lam),
                                                 lam)


def test_grid_from_times_reads_tables_at_integer_nodes(cosine1000):
    grid = grid_from_times(cosine1000, [850, 400.5, 1])
    for i, t in ((0, 850), (2, 1)):
        assert (grid.alpha_bar[i], grid.sigma[i], grid.lam[i]) == (
            cosine1000.alpha_bar[t], cosine1000.sigma[t], cosine1000.lam[t])
    lam = float(cosine1000.lambda_of(400.5))
    assert (grid.alpha_bar[1], grid.sigma[1], grid.lam[1]) == (
        *coefficients_of_lambda(lam), lam)


def test_lambda_of_integer_equals_table(cosine1000):
    ts = np.array([0, 1, 123, 500, 1000])
    np.testing.assert_array_equal(cosine1000.lambda_of(ts),
                                  cosine1000.lam[ts])


def test_t_of_lambda_roundtrip(cosine1000):
    rng = np.random.default_rng(0)
    ts = rng.uniform(0, 1000, size=50)
    back = cosine1000.t_of_lambda(cosine1000.lambda_of(ts))
    np.testing.assert_allclose(back, ts, rtol=0, atol=1e-9)


def test_coefficients_of_lambda_sigmoid_identity():
    rng = np.random.default_rng(1)
    for lam in rng.uniform(-12, 12, size=30):
        ab, sig = coefficients_of_lambda(lam)
        assert ab == pytest.approx(1 / (1 + math.exp(-2 * lam)), rel=1e-14)
        assert sig == pytest.approx(math.sqrt(1 - ab), rel=1e-12)
        # The half-log-SNR recovered from alpha_bar is lam again
        # (skipping extreme lam, where 1 - ab underflows f64 precision).
        if abs(lam) <= 8:
            assert 0.5 * math.log(ab / (1 - ab)) == pytest.approx(lam, abs=1e-9)


def test_continuous_view_consistent_with_table(cosine1000):
    lam = float(cosine1000.lambda_of(500.0))
    ab, sig = coefficients_of_lambda(lam)
    ab_t, sig_t, lam_t = cosine1000.coefficients_at(500)
    assert lam == lam_t
    assert ab == pytest.approx(ab_t, rel=1e-12)
    assert sig == pytest.approx(sig_t, rel=1e-9)


def test_g2_is_the_finite_difference_formula():
    # g^2 per unit step from central differences of log sqrt(alpha_bar)
    # and sigma^2, clipped at 0: the same float ops in the same order.
    for kind in ("cosine", "linear"):
        for T in (2, 37, 1000):
            s = make_schedule(kind, T)
            f = np.gradient(np.log(np.sqrt(s.alpha_bar)))
            sig2 = 1.0 - s.alpha_bar
            g2 = np.maximum(np.gradient(sig2) - 2.0 * f * sig2, 0.0)
            assert np.array_equal(s.g2, g2)
            assert np.all(s.g2 >= 0.0)


def test_make_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule("cosine", 1)
    with pytest.raises(ValueError):
        make_schedule("cosine", 10.5)
    with pytest.raises(ValueError):
        make_schedule("quadratic", 100)


def test_tables_are_readonly(cosine100):
    for table in (cosine100.alpha_bar, cosine100.sigma, cosine100.lam,
                  cosine100.g2):
        with pytest.raises(ValueError):
            table[0] = 0.5


class Reached(Exception):
    """Raised by a stub that only runs once the count was accepted."""


@dataclass(frozen=True)
class _Request:
    seed: int = 0


def _stub_request(req):
    raise Reached


# Each count of the public API: (name, lowest value, call with it).
INTEGER_COUNTS = [
    ("T", 2, lambda v: make_schedule("cosine", v)),
    ("steps", 1, lambda v: SolverConfig(steps=v)),
    ("parallelism", 1, lambda v: run_batch([], parallelism=v)),
    ("n_trials", 1, lambda v: bench.run_bench("x", _Request(), n_trials=v)),
    ("warmup", 0, lambda v: bench.run_bench("x", _Request(), warmup=v)),
    ("epochs", 0, lambda v: train(TinyConvPredictor(), [(None, None)], None,
                                  epochs=v)),
]


@pytest.mark.parametrize("name,low,call", INTEGER_COUNTS,
                         ids=[name for name, _, _ in INTEGER_COUNTS])
def test_every_count_is_an_integer_at_or_above_its_floor(monkeypatch, name,
                                                         low, call):
    monkeypatch.setattr(bench, "run_eaas", _stub_request)
    for bad in (True, 1.5, "3", low - 1):
        message = f"{name} must be an integer >= {low}, got {bad!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            call(bad)
    try:
        call(np.int64(low))
    except Reached:
        pass
