"""The failure policy: a rejected argument or config value raises
``ValidationError``, any library failure is a ``NoduleSynthError`` that
``run_batch`` and ``run_bench`` record per request, and every other
exception (a numpy shape bug, say) propagates out of both."""

import ast
from pathlib import Path

import numpy as np
import pytest

import nodulesynth
from nodulesynth.bench import run_bench
from nodulesynth.eaas import EaasRequest, run_batch
from nodulesynth.errors import (NoduleSynthError, SolverError,
                                ValidationError)
from nodulesynth.predictor import TinyConvPredictor
from nodulesynth.schedule import make_schedule
from nodulesynth.solver import SolverConfig
from nodulesynth.volume import make_phantom

_SRC = Path(nodulesynth.__file__).parent


def _broadcast_bug(x_t):
    # The last axis is n + 1 against n >= 4 voxels: numpy's ValueError.
    return x_t.data + np.ones(x_t.dims[-1] + 1)


def _solver_failure(x_t):
    raise SolverError("planted solver failure")


def _nan_output(x_t):
    return np.full(x_t.dims, np.nan)


class _Planted(TinyConvPredictor):
    """The tiny conv net whose first ``fail`` predictions go wrong the
    ``plant`` way."""

    def __init__(self, plant, fail=np.inf):
        super().__init__(seed=0)
        self.plant, self.fail = plant, fail

    def _predict(self, x_t, t, c):
        if self.fail > 0:
            self.fail -= 1
            return self.plant(x_t)
        return super()._predict(x_t, t, c)


@pytest.fixture(scope="module")
def phantom():
    return make_phantom(0, (24,) * 3)


def _request(phantom, predictor, seed=0):
    reference, lung_layout = phantom
    return EaasRequest(reference=reference, lung_layout=lung_layout,
                       predictor=predictor,
                       schedule=make_schedule("cosine", 1000),
                       solver=SolverConfig(steps=2), patch_size=(16,) * 3,
                       seed=seed)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_batch_propagates_a_numpy_error(phantom, parallelism):
    predictor = _Planted(_broadcast_bug)
    requests = [_request(phantom, predictor, seed) for seed in (0, 1)]
    with pytest.raises(ValueError, match="broadcast") as info:
        run_batch(requests, parallelism=parallelism)
    assert not isinstance(info.value, NoduleSynthError)


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("plant,error", [
    (_solver_failure, "SolverError: planted solver failure"),
    (_nan_output, "SolverError: non-finite predictor output at t=1000"),
], ids=["solver_error", "nan_output"])
def test_run_batch_records_a_library_error(phantom, parallelism, plant,
                                           error):
    predictor = _Planted(plant)
    items = run_batch([_request(phantom, predictor, seed)
                       for seed in (0, 1)], parallelism=parallelism)
    assert [(it.result, it.error) for it in items] == [(None, error)] * 2
    assert all(it.error_type.__name__ == error.split(":")[0] for it in items)


def test_run_bench_propagates_a_numpy_error(phantom):
    with pytest.raises(ValueError, match="broadcast") as info:
        run_bench("planted", _request(phantom, _Planted(_broadcast_bug)),
                  n_trials=2, warmup=0)
    assert not isinstance(info.value, NoduleSynthError)


@pytest.mark.parametrize("plant", [_solver_failure, _nan_output],
                         ids=["solver_error", "nan_output"])
def test_run_bench_skips_a_library_error(phantom, plant):
    # Only the first prediction fails, so trial 0 is skipped and trial 1
    # is timed.
    report = run_bench("planted", _request(phantom, _Planted(plant, fail=1)),
                       n_trials=2, warmup=0)
    assert report.trials == 1


@pytest.mark.parametrize("parallelism", [2.5, "2", None, True])
def test_run_batch_rejects_a_non_integer_parallelism(phantom, parallelism):
    requests = [_request(phantom, TinyConvPredictor(seed=0))]
    with pytest.raises(ValidationError, match="parallelism"):
        run_batch(requests, parallelism=parallelism)


@pytest.mark.parametrize("n_trials,warmup",
                         [(1.5, 0), ("2", 0), (None, 0), (1, 0.5), (1, "1"),
                          (1, None)])
def test_run_bench_rejects_a_non_integer_count(phantom, n_trials, warmup):
    request = _request(phantom, TinyConvPredictor(seed=0))
    with pytest.raises(ValidationError, match="n_trials|warmup"):
        run_bench("bad", request, n_trials=n_trials, warmup=warmup)


def _names(node):
    """The plain names an ``except`` clause or a ``raise`` refers to."""
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _names(elt)]
    if isinstance(node, ast.Call):
        return _names(node.func)
    return [node.id] if isinstance(node, ast.Name) else []


def test_library_raises_no_untyped_input_error():
    # Argument checks raise ValidationError: a bare ValueError or
    # TypeError would pass for a programming error and propagate.
    untyped = [f"{path.name}:{node.lineno}"
               for path in sorted(_SRC.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Raise) and node.exc is not None
               and set(_names(node.exc)) & {"ValueError", "TypeError"}]
    assert untyped == []


@pytest.mark.parametrize("module,function", [
    ("eaas.py", "run_batch"), ("bench.py", "run_bench"), ("cli.py", "main")])
def test_failure_sorting_catches_no_builtin_error(module, function):
    tree = ast.parse((_SRC / module).read_text())
    [body] = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == function]
    caught = {name for node in ast.walk(body)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for name in _names(node.type)}
    assert caught and not caught & {"ValueError", "ArithmeticError",
                                    "TypeError"}
