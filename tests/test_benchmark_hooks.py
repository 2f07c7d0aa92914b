"""The benchmark's tracer patches library functions by name; a rename must fail here, fast."""

import importlib.util
import inspect
import os
from pathlib import Path
from unittest import mock

import numpy as np

from isophasal import intertwine
from isophasal.brackets import builtin_bracket
from isophasal.metric import CutoffProfile

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # run.py pins thread counts at import
        spec.loader.exec_module(run)
    hooks = run.traced_functions()
    assert hooks
    for owner, attr, name, _count in hooks:
        # looked up as the tracer's install() does
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(fn), f"{name}: {owner.__name__}.{attr} is missing"
    # the span counts laplacian's points from positional argument 3
    assert list(inspect.signature(intertwine.laplacian).parameters)[3] == "pts"


def test_laplacian_looks_up_inverse_metric_in_intertwine(monkeypatch):
    # the metric.inverse_metric_at span is patched on intertwine: laplacian must call it from there
    spy = mock.Mock(wraps=intertwine.inverse_metric_at)
    monkeypatch.setattr(intertwine, "inverse_metric_at", spy)
    bracket = builtin_bracket("cross1")
    profile = CutoffProfile(1.0, 1.0)
    f = intertwine.default_test_functions(bracket.m, bracket.k, profile)[1]
    intertwine.laplacian(bracket, profile, [f], np.full((2, bracket.m + 2 * bracket.k), 0.2))
    assert spy.call_count >= 1


def test_workloads_build_at_smoke_sizes(monkeypatch):
    # constructors only: they build their inputs through the config layer
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        workload(0, workloads.SMOKE[name])
