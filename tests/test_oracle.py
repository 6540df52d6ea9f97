import numpy as np
import pytest

from nodulesynth import make_schedule, oracle
from nodulesynth.errors import ValidationError
from nodulesynth.oracle import (ConvergenceResult, convergence_study,
                                exact_gaussian_terminal, reference_solve,
                                write_convergence_csv)


def test_closed_form_agrees_with_rk4(cosine1000):
    # Two fully independent computations of the same endpoint: the
    # closed-form quantile map and brute-force RK4 integration.
    mu, var = 0.3, 0.25
    rng = np.random.default_rng(3)
    lam_a, lam_b = float(cosine1000.lam[850]), float(cosine1000.lam[1])
    x = rng.standard_normal((5, 5, 5))
    exact = exact_gaussian_terminal(x, lam_a, lam_b, mu, var)
    rk4 = reference_solve(x, lam_a, lam_b, mu, var, n_steps=20000)
    np.testing.assert_allclose(rk4, exact, atol=1e-9)


def test_reference_solve_identity_for_standard_normal(cosine1000):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4, 4))
    out = reference_solve(x, -5.0, 5.0, 0.0, 1.0, n_steps=5000)
    np.testing.assert_allclose(out, x, atol=1e-10)


def test_convergence_errors_shrink(cosine1000):
    res = convergence_study(cosine1000, steps_list=(16, 32, 64),
                            n_ref=20000, orders=(2,))
    (r,) = res
    assert isinstance(r, ConvergenceResult)
    assert r.errors[0] > r.errors[-1]
    assert r.slope > 1.5


def test_convergence_single_steps_has_nan_slope(cosine1000):
    (r,) = convergence_study(cosine1000, steps_list=(16,), n_ref=5000,
                             orders=(1,))
    assert np.isnan(r.slope)


def test_convergence_study_rejects_a_schedule_shorter_than_t_start():
    with pytest.raises(ValidationError, match="time 850 outside"):
        convergence_study(make_schedule("cosine", 100), n_ref=10)


@pytest.mark.parametrize("steps_list", [(16, 16), (8, 16, 8), (0, 8),
                                        (-4, 8), (8.0, 16)])
def test_convergence_study_rejects_bad_step_counts(cosine1000, monkeypatch,
                                                   steps_list):
    def no_reference(*args, **kwargs):
        raise AssertionError("reference solve ran")

    monkeypatch.setattr(oracle, "reference_solve", no_reference)
    with pytest.raises(ValidationError, match="must be distinct integers"):
        convergence_study(cosine1000, steps_list=steps_list)


@pytest.mark.parametrize("orders", [(4,), (1, 0), (2.0,), (True,)])
def test_convergence_study_rejects_bad_orders(cosine1000, monkeypatch,
                                              orders):
    def no_reference(*args, **kwargs):
        raise AssertionError("reference solve ran")

    monkeypatch.setattr(oracle, "reference_solve", no_reference)
    with pytest.raises(ValidationError, match="orders must be from 1, 2, 3"):
        convergence_study(cosine1000, orders=orders, steps_list=(8, 16))


def test_write_convergence_csv(tmp_path):
    res = [ConvergenceResult(order=1, steps=(8, 16), errors=(0.1, 0.05),
                             slope=1.0)]
    write_convergence_csv(res, tmp_path / "conv.csv")
    lines = (tmp_path / "conv.csv").read_text().strip().splitlines()
    assert lines[0] == "order,steps,terminal_rms_error,slope"
    assert len(lines) == 3
