"""Experiment orchestration: determinism, serialization, aggregation."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from swissmc import (
    ConvergenceError,
    ExperimentConfig,
    ExperimentReport,
    InvalidInputError,
    RngStream,
    bench_dimension_scaling,
    make_target,
    run_experiment,
    simulate_rare_feature_data,
    strip_timing,
)
from swissmc.harness import laplace_pooling_moments, summarize_reports
from swissmc.targets import LogisticRegression, collapse_logistic
from helpers import lockstep_mismatches


def _tiny_config(**overrides):
    base = dict(
        target="rare-bernoulli",
        n_batches=3,
        n_samples=300,
        burn_in=150,
        seed=21,
        n_runs=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self):
        config = _tiny_config(combiners=("ar", "swiss"))
        clone = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert clone.to_dict() == config.to_dict()

    def test_readme_config_block_loads(self):
        # README documents the config schema as commented JSON; every field
        # it shows must exist, so the block has to load as a config.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Experiment config schema", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        payload = json.loads(re.sub(r"\s*//.*", "", block))
        config = ExperimentConfig.from_dict(payload)
        assert set(payload) == set(config.to_dict())

    def test_unknown_keys_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown config keys"):
            ExperimentConfig.from_dict({"target": "rare-bernoulli", "n_batches": 1,
                                        "n_samples": 10, "typo": 1})

    def test_unknown_combiner_rejected(self):
        with pytest.raises(InvalidInputError, match="combiners"):
            _tiny_config(combiners=("swiss", "magic"))

    def test_repeated_combiner_rejected(self):
        # a repeated name would run twice but leave one entry in the report
        with pytest.raises(InvalidInputError, match="must not repeat"):
            _tiny_config(combiners=["swiss", "swiss", "ar"])

    def test_unknown_target_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown target"):
            _tiny_config(target="nope")

    def test_single_draw_rejected(self):
        # a batch needs two draws, so one retained sample cannot run
        with pytest.raises(InvalidInputError, match="n_samples must be >= 2"):
            _tiny_config(n_samples=1)

    def test_negative_observation_count_rejected(self):
        # also on a data-free target, whose reports would record the value
        with pytest.raises(InvalidInputError, match="n_observations must be >= 0"):
            _tiny_config(n_observations=-3)

    def test_data_backed_needs_observations(self):
        with pytest.raises(InvalidInputError, match="n_observations"):
            ExperimentConfig(target="logistic-rare", n_batches=5, n_samples=10)

    def test_data_backed_runs_stop_before_the_data_stream(self):
        # repetition 100's chain master would equal the dataset's seed
        config = dict(target="logistic-rare", n_batches=2, n_samples=10, n_observations=40)
        assert ExperimentConfig(**config, n_runs=100).n_runs == 100
        with pytest.raises(InvalidInputError, match="n_runs must be <= 100 .* replay"):
            ExperimentConfig(**config, n_runs=101)
        assert _tiny_config(n_runs=101).n_runs == 101  # data-free: no dataset stream

    def test_data_free_target_takes_no_observations(self):
        # nothing would use the count, yet the report's config would record it
        with pytest.raises(InvalidInputError, match="'rare-bernoulli' is data-free .* n_observations"):
            _tiny_config(n_observations=5000)
        assert _tiny_config(n_observations=0).n_observations == 0


class TestRunExperiment:
    def test_report_shape_and_rows(self, tmp_path):
        config = _tiny_config(n_runs=1, out_dir=str(tmp_path / "out"))
        summary = run_experiment(config)
        report = summary.reports[0]
        assert set(report.combiner_metrics) == {"swiss", "consensus", "ar", "barycenter"}
        assert report.baselines == {}  # data-free target: no Laplace hook
        assert (tmp_path / "out" / "run_0.json").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out" / "metrics.csv").exists()
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("repetition,method")
        assert len(lines) == 1 + 4  # header + one row per combiner

    def test_single_batch_all_combiners_near_passthrough(self):
        # B = 1: every combiner reduces to the batch itself, so metrics sit at
        # the chain-noise level of two independent chains on the same target
        config = ExperimentConfig(
            target="rare-bernoulli",
            n_batches=1,
            n_samples=20_000,
            burn_in=2000,
            seed=22,
            n_runs=1,
        )
        summary = run_experiment(config)
        for name, metric in summary.reports[0].combiner_metrics.items():
            assert metric.iad < 0.05, name

    def test_identical_reports_modulo_timing_any_workers(self):
        # also with other lockstep groups; the logistic case has baselines
        assert lockstep_mismatches(_tiny_config()) == []
        logistic = ExperimentConfig(
            target="logistic-rare", n_batches=2, n_samples=100, burn_in=50,
            n_observations=300, seed=21, init="mle",
        )
        assert lockstep_mismatches(logistic) == []

    def test_report_round_trip(self):
        summary = run_experiment(_tiny_config(n_runs=1))
        payload = json.loads(json.dumps(summary.reports[0].to_dict()))
        clone = ExperimentReport.from_dict(payload)
        assert clone.to_dict() == summary.reports[0].to_dict()

    def test_data_backed_experiment_runs(self):
        config = ExperimentConfig(
            target="logistic-rare",
            n_batches=2,
            n_samples=250,
            burn_in=150,
            n_observations=400,
            seed=23,
            n_runs=1,
            combiners=("swiss", "ar"),
            init="mle",
        )
        summary = run_experiment(config)
        report = summary.reports[0]
        assert set(report.combiner_metrics) == {"swiss", "ar"}
        assert len(report.sampler_diagnostics["inflated"]) == 2
        assert "subposterior" not in report.sampler_diagnostics

        # the Laplace-pooling oracle and the reference noise floor
        assert set(report.baselines) == {"laplace_pooling", "noise_floor"}
        assert 0.0 < report.baselines["laplace_pooling"].iad < 1.0
        assert report.baselines["laplace_pooling"].mahalanobis is not None
        assert 0.0 < report.baselines["noise_floor"].iad < 1.0
        assert set(summary.aggregates["baselines"]) == {"laplace_pooling", "noise_floor"}
        payload = json.loads(json.dumps(report.to_dict()))
        assert ExperimentReport.from_dict(payload).to_dict() == report.to_dict()
        other = run_experiment(ExperimentConfig(**{**config.to_dict(), "workers": 2}))
        assert {
            name: metric.to_dict() for name, metric in other.reports[0].baselines.items()
        } == {name: metric.to_dict() for name, metric in report.baselines.items()}

    def test_laplace_pooling_single_batch_is_full_laplace(self):
        data = simulate_rare_feature_data(2000, 27)
        model = make_target("logistic-rare", dataset=data)
        whole = collapse_logistic(data.x, data.y)
        oracle = laplace_pooling_moments(model, [whole])
        full = model.laplace(whole)
        np.testing.assert_array_equal(oracle.mean, full.mean)
        np.testing.assert_array_equal(oracle.cov, full.cov)

    def test_failure_carries_stage_context(self, monkeypatch):
        # force a combine-stage failure: barycenter with an impossible cap
        config = _tiny_config(n_runs=1)
        monkeypatch.setattr("swissmc.combiners._BARYCENTER_MAX_ITERS", 1)
        monkeypatch.setattr("swissmc.combiners._BARYCENTER_TOL", 1e-18)
        with pytest.raises(Exception, match="repetition 0.*combine"):
            run_experiment(config)

    @pytest.mark.parametrize(
        "combiners, failing_data, label",
        [
            (("swiss",), "full", "full-data chain"),
            (("swiss",), "shard", "inflated batch 0"),
            (("consensus",), "shard", "un-inflated batch 0"),
        ],
    )
    def test_sampling_failure_names_its_chain(self, monkeypatch, combiners, failing_data, label):
        # the full-data chain and both shard sets share one group; an error
        # must still say which of them failed
        def mle(self, data_batch=None):
            if (data_batch is None) == (failing_data == "full"):
                raise InvalidInputError("no ML estimate")
            return np.zeros(self.dim)

        monkeypatch.setattr(LogisticRegression, "mle", mle)
        config = ExperimentConfig(
            target="logistic-rare", n_observations=400, n_batches=2, n_samples=50,
            burn_in=10, init="mle", combiners=combiners, seed=3,
        )
        with pytest.raises(InvalidInputError,
                           match=f"^repetition 0 failed during sampling: {label}: no ML"):
            run_experiment(config)

    def test_completed_repetitions_survive_later_failure(self, tmp_path):
        config = _tiny_config(n_runs=3, combiners=("swiss",), out_dir=str(tmp_path))
        import swissmc.harness as hz
        from swissmc import swiss_combine

        calls = {"n": 0}

        def fail_on_second_rep(batches, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise hz.InvalidInputError("forced failure")
            return swiss_combine(batches, **kw)

        hz._COMBINE["swiss"] = fail_on_second_rep
        try:
            with pytest.raises(Exception, match="repetition 1"):
                run_experiment(config)
        finally:
            hz._COMBINE["swiss"] = swiss_combine
        assert (tmp_path / "run_0.json").exists()
        assert not (tmp_path / "run_1.json").exists()


class TestRandomStreams:
    def test_no_two_random_consumers_share_a_key(self, monkeypatch):
        # every generator that a data-backed experiment (dataset, partitions,
        # chains, oracle) and the dimension bench (suites, exact draws) open
        keys = []
        generator = RngStream.generator

        def recording(stream):
            keys.append((stream.master_seed, stream.stream_id))
            return generator(stream)

        monkeypatch.setattr(RngStream, "generator", recording)
        run_experiment(ExperimentConfig(
            target="logistic-rare", n_batches=2, n_samples=60, burn_in=20,
            n_observations=300, seed=7, n_runs=2, init="mle", combiners=("swiss", "consensus"),
        ))
        # the dataset, then per repetition a partition, 5 chains and the oracle
        assert len(keys) == 1 + 2 * (1 + 5 + 1)
        bench_dimension_scaling([2, 3], 2, 60, seed=7)
        # per dimension the suite, the reference and 2 x 2 batch draws
        assert len(keys) == 15 + 2 * (1 + 1 + 4)
        assert len(set(keys)) == len(keys)


class TestSummaries:
    def test_mean_and_se(self):
        summary = run_experiment(_tiny_config())
        aggregates = summarize_reports(summary.reports)
        assert aggregates["n_runs"] == 2
        entry = aggregates["combiners"]["swiss"]["iad"]
        values = np.asarray(entry["values"])
        assert entry["mean"] == pytest.approx(values.mean())
        assert entry["se"] == pytest.approx(values.std(ddof=1) / np.sqrt(2))

    def test_strip_timing_removes_wall_clock(self):
        payload = {
            "total_seconds": 1.0,
            "nested": {"merge_time_seconds": 2.0, "keep": 3},
            "list": [{"total_seconds": 4.0}],
        }
        cleaned = strip_timing(payload)
        assert cleaned == {"nested": {"keep": 3}, "list": [{}]}


class TestBench:
    def test_rows_and_csv(self, tmp_path):
        rows = bench_dimension_scaling([2, 3], 4, 400, seed=24, out_dir=tmp_path)
        assert len(rows) == 2 * 4
        methods = {r["method"] for r in rows}
        assert methods == {"swiss", "consensus", "ar", "barycenter"}
        text = (tmp_path / "bench.csv").read_text().splitlines()
        assert text[0] == "d,method,iad,time_seconds"
        assert len(text) == 1 + len(rows)

    def test_swiss_and_consensus_accurate_on_suite(self):
        rows = bench_dimension_scaling([5], 10, 2000, seed=25)
        by_method = {r["method"]: r["iad"] for r in rows}
        assert by_method["swiss"] < 0.05
        assert by_method["consensus"] < 0.05
        assert by_method["barycenter"] > by_method["swiss"]

    def test_failure_names_dimension_repetition_and_combiner(self, monkeypatch):
        monkeypatch.setattr("swissmc.combiners._BARYCENTER_MAX_ITERS", 1)
        monkeypatch.setattr("swissmc.combiners._BARYCENTER_TOL", 1e-18)
        with pytest.raises(
            ConvergenceError,
            match=r"^bench at d=3 failed during combine \(barycenter\): barycenter",
        ):
            bench_dimension_scaling([3], 3, 300, seed=26)

    @pytest.mark.parametrize(
        "args, message",
        [
            (([3.7], 3, 300, 26), "dimension must be an integer"),
            (([True], 3, 300, 26), "dimension must be an integer"),
            (([0], 3, 300, 26), "dimension must be >= 1"),
            (([3], 2.5, 300, 26), "batch count must be an integer"),
            (([3], 3, 300.0, 26), "n_samples must be an integer"),
            (([3], 3, 300, 0.5), "seed must be an integer"),
        ],
    )
    def test_rejects_bad_input(self, args, message):
        with pytest.raises(InvalidInputError, match=message):
            bench_dimension_scaling(*args)

    def test_deterministic(self):
        a = bench_dimension_scaling([3], 3, 300, seed=26)
        b = bench_dimension_scaling([3], 3, 300, seed=26)
        assert [r["iad"] for r in a] == [r["iad"] for r in b]
