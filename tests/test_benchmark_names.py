"""The benchmark still finds every name it uses.

``perfbench/tracer.py`` wraps swissmc functions by module and attribute name
(its ``SPANS`` table, ``sampler._sample_one`` and
``sampler.sample_all_batches``) and counts ``TargetModel.log_density`` on the
base class.  ``Tracer.install`` raises if one of those names has gone, so
installing it here turns a refactor that would break the benchmark into a
tier-1 failure.  The workloads and layer timings import swissmc names and
build ``ExperimentConfig`` objects with keywords that nothing in the package
may read (``workers``), so they are loaded too and every workload and layer
timing runs at toy size.  The tests only read ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import swissmc
import swissmc.cli  # noqa: F401  (the tracer wraps names in swissmc.cli)
from swissmc import SamplerConfig, TargetModel, make_target

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch=None):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:  # dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    tracer_module = _load("tracer")
    originals = {
        (module, attr): getattr(sys.modules[module], attr)
        for module, attr, _, _ in tracer_module.SPANS
    }
    log_density = TargetModel.log_density
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert TargetModel.log_density is not log_density
        config = SamplerConfig(n_samples=5, burn_in=5, seed=1)
        swissmc.sample(make_target("warped-gaussian"), None, config)
        # one evaluation at the start plus one per iteration, through a subclass
        assert tracer.counters["targets.log_density"][0] == 11
        assert [span[0] for span in tracer.spans] == ["sampler.chain"]
    finally:
        tracer.uninstall()
    assert TargetModel.log_density is log_density
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original


def test_layers_run_at_toy_size(tmp_path, monkeypatch):
    # layers.py imports its median from the sibling stats.py as ``stats``
    monkeypatch.setitem(sys.modules, "stats", _load("stats"))
    timings = _load("layers").isolated_layers(3, True, tmp_path)
    assert all(value > 0 for value in timings.values())


@pytest.mark.parametrize("name", ["logistic-desk", "gaussian-dims", "cli-files"])
def test_workload_sets_up_and_runs_at_toy_size(tmp_path, monkeypatch, name):
    workload = _load("workloads", monkeypatch).WORKLOADS[name](seed=3, tiny=True, workdir=tmp_path)
    workload.setup()
    outcome = workload.check(workload.run())
    assert outcome.failures == {}
