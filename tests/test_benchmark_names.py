"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps swissmc functions by module and attribute name
(its ``SPANS`` table, ``sampler._sample_one`` and
``sampler.sample_all_batches``) and counts ``TargetModel.log_density`` on the
base class.  ``Tracer.install`` raises if one of those names has gone, so
installing it here turns a refactor that would break the benchmark into a
tier-1 failure.  The test only reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import swissmc
import swissmc.cli  # noqa: F401  (the tracer wraps names in swissmc.cli)
from swissmc import SamplerConfig, TargetModel, make_target

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_counts_and_uninstalls():
    tracer_module = _load_tracer_module()
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
