"""Command-line surface: full flows and exit codes."""

import json
import re
import shlex
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from swissmc import (
    ExperimentConfig,
    SampleBatch,
    SamplerConfig,
    draw_gaussian,
    partition,
    read_dataset_csv,
)
from swissmc.cli import build_parser, cli_main
from swissmc.io import (
    meta_path,
    read_assignment_csv,
    read_json,
    read_sample_csv,
    write_batch,
    write_sample_csv,
)
from swissmc.moments import BatchMeta
from helpers import exact_gaussian_cloud


def run_cli(*argv):
    return cli_main(list(argv))


class TestSimulatePartitionSampleFlow:
    def test_end_to_end_logistic_flow(self, tmp_path):
        data = tmp_path / "data.csv"
        assign = tmp_path / "assign.csv"
        chains = tmp_path / "chains"
        combined = tmp_path / "combined.csv"
        maps = tmp_path / "maps.json"
        report = tmp_path / "report.json"

        assert run_cli("simulate", "--n", "400", "--seed", "5", "--out", str(data)) == 0
        assert run_cli(
            "partition", "--data", str(data), "--batches", "2", "--seed", "1",
            "--out", str(assign),
        ) == 0
        expected = partition(read_dataset_csv(data), 2, seed=1).assignment
        assert read_assignment_csv(assign).assignment.tobytes() == expected.tobytes()
        assert run_cli(
            "sample", "--target", "logistic-rare", "--data", str(data),
            "--assignment", str(assign), "--n-samples", "150", "--burn-in", "100",
            "--seed", "2", "--init", "mle", "--out-dir", str(chains),
        ) == 0
        assert (chains / "batch_0.csv").exists()
        assert (chains / "batch_1.meta.json").exists()
        assert run_cli(
            "combine", "--method", "swiss", "--out", str(combined), "--maps", str(maps),
            str(chains / "batch_0.csv"), str(chains / "batch_1.csv"),
        ) == 0
        rows = read_sample_csv(combined)
        assert rows.shape == (300, 5)
        payload = json.loads(maps.read_text())
        assert [m["batch_id"] for m in payload["maps"]] == [0, 1]
        assert run_cli(
            "sample", "--target", "logistic-rare", "--data", str(data),
            "--assignment", str(assign), "--convention", "full", "--n-samples", "150",
            "--burn-in", "100", "--seed", "2", "--init", "mle", "--out-dir", str(chains),
        ) == 0
        assert run_cli(
            "evaluate", "--approx", str(combined), "--reference", str(chains / "full.csv"),
            "--out", str(report),
        ) == 0
        metrics = json.loads(report.read_text())
        assert set(metrics) >= {"mahalanobis", "skew_dev", "iad"}

    def test_data_free_sampling(self, tmp_path):
        chains = tmp_path / "chains"
        code = run_cli(
            "sample", "--target", "rare-bernoulli", "--batches", "3",
            "--n-samples", "200", "--burn-in", "100", "--seed", "3",
            "--out-dir", str(chains),
        )
        assert code == 0
        for b in range(3):
            draws = read_sample_csv(chains / f"batch_{b}.csv")
            assert draws.shape == (200, 1)
            assert np.all((0 < draws) & (draws < 1))


class TestCombine:
    def _write_batches(self, tmp_path, draws_a, draws_b):
        pa = tmp_path / "a.csv"
        pb = tmp_path / "b.csv"
        write_batch(pa, SampleBatch(0, draws_a, meta=BatchMeta(seed=1)))
        write_batch(pb, SampleBatch(1, draws_b, meta=BatchMeta(seed=2)))
        return pa, pb

    def test_identical_moment_batches_concatenate(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = exact_gaussian_cloud([0.0, 1.0], np.eye(2), 300, rng)
        pa, pb = self._write_batches(tmp_path, cloud, cloud.copy())
        out = tmp_path / "combined.csv"
        assert run_cli("combine", "--method", "swiss", "--out", str(out), str(pa), str(pb)) == 0
        combined = read_sample_csv(out)
        np.testing.assert_allclose(combined, np.vstack([cloud, cloud]), atol=1e-9)

    def test_consensus_row_count(self, tmp_path):
        rng = np.random.default_rng(1)
        pa, pb = self._write_batches(
            tmp_path,
            draw_gaussian([0.0], [[1.0]], 250, rng),
            draw_gaussian([1.0], [[2.0]], 250, rng),
        )
        out = tmp_path / "consensus.csv"
        assert run_cli("combine", "--method", "consensus", "--out", str(out), str(pa), str(pb)) == 0
        assert read_sample_csv(out).shape == (250, 1)

    def test_numerical_failure_exit_code(self, tmp_path):
        # constant draws give a singular covariance: exit code 2
        constant = np.ones((50, 2)) + np.arange(2)
        pa, pb = self._write_batches(tmp_path, constant, constant.copy())
        out = tmp_path / "combined.csv"
        assert run_cli("combine", "--method", "swiss", "--out", str(out), str(pa), str(pb)) == 2

    def test_duplicate_batch_ids_are_usage_error_before_output(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_batch(pa, SampleBatch(3, rng.standard_normal((50, 2))))
        write_batch(pb, SampleBatch(3, rng.standard_normal((50, 2))))
        out, maps = tmp_path / "combined.csv", tmp_path / "maps.json"
        code = run_cli(
            "combine", "--method", "swiss", "--out", str(out), "--maps", str(maps), str(pa), str(pb)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(pa) in err and str(pb) in err and "batch id 3" in err
        assert not out.exists() and not maps.exists()

    def test_dimension_mismatch_names_both_files(self, tmp_path, capsys):
        # a 5-column and a 3-column batch: exit 1 before any output, and the
        # error names the two files, not their positions
        rng = np.random.default_rng(6)
        pa, pb = self._write_batches(
            tmp_path, rng.standard_normal((50, 5)), rng.standard_normal((50, 3))
        )
        out = tmp_path / "combined.csv"
        assert run_cli("combine", "--method", "swiss", "--out", str(out), str(pa), str(pb)) == 1
        err = capsys.readouterr().err
        assert f"{pa} and {pb} disagree on dimension: 5 vs 3" in err
        assert not out.exists()

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_one_draw_file_is_named(self, tmp_path, capsys, sidecar):
        # a batch needs two draws; the refusal names the file, with or
        # without a sidecar, and exits 1 before any output is written
        rng = np.random.default_rng(5)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sample_csv(pa, rng.standard_normal((1, 2)))
        if sidecar:
            meta_path(pa).write_text(json.dumps({"batch_id": 0, "n_draws": 1, "dim": 2}))
        write_batch(pb, SampleBatch(1, rng.standard_normal((50, 2))))
        out = tmp_path / "combined.csv"
        assert run_cli("combine", "--method", "swiss", "--out", str(out), str(pa), str(pb)) == 1
        err = capsys.readouterr().err
        assert f"{pa}: batch 0: need at least 2 draws, got 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["swiss", "consensus", "barycenter"])
    def test_singular_batch_is_named(self, tmp_path, capsys, method):
        # batch 7's second column is twice its first: a rank-1 covariance
        rng = np.random.default_rng(3)
        z = rng.standard_normal(60)
        pa = tmp_path / "good.csv"
        pb = tmp_path / "flat.csv"
        write_batch(pa, SampleBatch(4, rng.standard_normal((60, 2))))
        write_batch(pb, SampleBatch(7, np.column_stack([z, 2.0 * z])))
        out = tmp_path / "combined.csv"
        assert run_cli("combine", "--method", method, "--out", str(out), str(pa), str(pb)) == 2
        assert "batch 7: matrix is not positive definite" in capsys.readouterr().err


class TestEvaluate:
    def test_self_comparison_is_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "sample.csv"
        write_batch(path, SampleBatch(0, rng.standard_normal((500, 2))))
        report = tmp_path / "metrics.json"
        assert run_cli(
            "evaluate", "--approx", str(path), "--reference", str(path), "--out", str(report)
        ) == 0
        payload = json.loads(report.read_text())
        assert payload["mahalanobis"] == pytest.approx(0.0, abs=1e-12)
        assert payload["iad"] == 0.0
        assert "iad = 0.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("side", ["--approx", "--reference"])
    def test_constant_column_names_its_file(self, tmp_path, capsys, side):
        # column 1 of one file is constant: exit 2, and the error names that
        # file and the column, whichever side the file is on
        rng = np.random.default_rng(3)
        good, flat = tmp_path / "good.csv", tmp_path / "flat.csv"
        write_batch(good, SampleBatch(0, rng.standard_normal((200, 3))))
        constant = rng.standard_normal((200, 3))
        constant[:, 1] = 0.5
        write_batch(flat, SampleBatch(0, constant))
        other = "--reference" if side == "--approx" else "--approx"
        assert run_cli("evaluate", side, str(flat), other, str(good)) == 2
        err = capsys.readouterr().err
        assert f"{flat}: zero variance in dimension 1" in err
        assert str(good) not in err


    def test_dimension_mismatch_names_both_files(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        approx, reference = tmp_path / "approx.csv", tmp_path / "reference.csv"
        write_sample_csv(approx, rng.standard_normal((100, 3)))
        write_sample_csv(reference, rng.standard_normal((100, 5)))
        report = tmp_path / "metrics.json"
        code = run_cli(
            "evaluate", "--approx", str(approx), "--reference", str(reference),
            "--out", str(report),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{approx} and {reference} disagree on dimension: 3 vs 5" in err
        assert not report.exists()


class TestExperimentCommand:
    def test_config_run_and_determinism(self, tmp_path):
        config = {
            "target": "rare-bernoulli",
            "n_batches": 2,
            "n_samples": 200,
            "burn_in": 100,
            "seed": 9,
            "n_runs": 1,
            "combiners": ["swiss", "consensus"],
        }
        cfg_a = tmp_path / "config_a.json"
        cfg_a.write_text(json.dumps(config))
        cfg_b = tmp_path / "config_b.json"
        cfg_b.write_text(json.dumps({**config, "workers": 2}))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("experiment", "--config", str(cfg_a), "--out", str(out_a)) == 0
        assert run_cli("experiment", "--config", str(cfg_b), "--out", str(out_b)) == 0
        from swissmc import strip_timing

        ra = json.loads((out_a / "run_0.json").read_text())
        rb = json.loads((out_b / "run_0.json").read_text())
        ra, rb = strip_timing(ra), strip_timing(rb)
        # --out sets the config's out_dir, so each report names its own directory
        assert (ra["config"].pop("out_dir"), rb["config"].pop("out_dir")) == (str(out_a), str(out_b))
        ra["config"].pop("workers")
        rb["config"].pop("workers")
        assert ra == rb

    def test_bad_config_key_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"target": "rare-bernoulli", "oops": 1,
                                        "n_batches": 1, "n_samples": 10}))
        assert run_cli("experiment", "--config", str(cfg_path)) == 1


class TestCheckedInConfigs:
    def test_desk_scale_config_parses(self):
        root = Path(__file__).resolve().parent.parent
        config = ExperimentConfig.from_dict(read_json(root / "configs" / "logistic_desk.json"))
        assert config.target == "logistic-rare"
        assert (config.n_observations, config.n_batches, config.n_samples) == (20000, 5, 5000)
        assert config.n_runs == 5

    def test_rare_bernoulli_config_parses(self):
        root = Path(__file__).resolve().parent.parent
        config = ExperimentConfig.from_dict(read_json(root / "configs" / "rare_bernoulli.json"))
        assert config.target == "rare-bernoulli"
        assert config.n_samples == 10000


class TestReadmeCommands:
    def test_every_command_line_parses(self):
        # README's "Command line" block documents every subcommand; each line
        # must parse with the current flags (nothing runs)
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"\n## Command line\n\n```bash\n(.*?)\n```", readme, re.S).group(1)
        lines = block.replace("\\\n", " ").splitlines()
        commands = [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]
        assert all(argv[0] == "swissmc" for argv in commands)
        assert {argv[1] for argv in commands} == {
            "simulate", "partition", "sample", "combine", "evaluate", "experiment", "bench"
        }
        for argv in commands:
            assert build_parser().parse_args(argv[1:]).func


class TestBenchCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli(
            "bench", "--dims", "2,3", "--batches", "3", "--n-samples", "300",
            "--seed", "4", "--out", str(out),
        )
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "d,method,iad,time_seconds"
        assert len(lines) == 1 + 2 * 4


class TestChainDefaults:
    def test_defaults_come_from_sampler_config(self):
        # SamplerConfig declares the chain settings once; the experiment
        # config and the sample command take their defaults from it
        declared = {f.name: f.default for f in fields(SamplerConfig)}
        assert declared.pop("n_samples") is MISSING
        config = ExperimentConfig(target="rare-bernoulli", n_batches=1, n_samples=10)
        args = build_parser().parse_args(
            ["sample", "--target", "rare-bernoulli", "--n-samples", "10", "--out-dir", "x"]
        )
        for name, default in declared.items():
            assert getattr(config, name) == default, name
            assert getattr(args, name) == default, name


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run_cli("simulate", "--wat", "1") == 1

    def test_no_command_prints_help(self):
        assert run_cli() == 1

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli(
            "evaluate", "--approx", str(tmp_path / "nope.csv"),
            "--reference", str(tmp_path / "nope.csv"),
        ) == 1

    def test_malformed_sample_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("param_0\n1.0\nzz\n")
        assert run_cli("evaluate", "--approx", str(bad), "--reference", str(bad)) == 1

    def test_non_finite_token_in_input_is_usage_error(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("param_0,param_1\n0.5,0.1\n0.2,0.3\n0.4,0.7\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("param_0,param_1\n0.5,0.1\nnan,0.1\n0.4,0.7\n")
        code = run_cli(
            "combine", "--method", "swiss", "--out", str(tmp_path / "o.csv"), str(good), str(bad)
        )
        assert code == 1
        assert "bad.csv:3" in capsys.readouterr().err
        data = tmp_path / "d.csv"
        data.write_text("y,x0\n1.0,1.0\n0.0,nan\n")
        code = run_cli(
            "partition", "--data", str(data), "--batches", "1", "--out", str(tmp_path / "a.csv")
        )
        assert code == 1
        assert "d.csv:3" in capsys.readouterr().err

    def test_non_utf8_input_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"param_0,param_1\n0.5,0.1\n\n0.2,0.3\n0.4,0.\xff7\n")
        assert run_cli("evaluate", "--approx", str(bad), "--reference", str(bad)) == 1
        assert "bad.csv:5: not UTF-8" in capsys.readouterr().err
        data = tmp_path / "d.csv"
        data.write_bytes(b"y,x0\n1.0,1.0\n0.0,\xff\n")
        out = str(tmp_path / "a.csv")
        assert run_cli("partition", "--data", str(data), "--batches", "1", "--out", out) == 1
        assert "d.csv:3: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b'{"target": "rare-bernoulli",\n "n_batches": \xff1}\n')
        assert run_cli("experiment", "--config", str(cfg_path)) == 1
        assert "config.json:2: not UTF-8" in capsys.readouterr().err

    def test_non_utf8_sidecar_is_usage_error(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for batch_id, path in enumerate(paths):
            write_batch(path, SampleBatch(batch_id, rng.standard_normal((60, 2))))
        sidecar = tmp_path / "b.meta.json"
        sidecar.write_bytes(sidecar.read_bytes().replace(b'"seed"', b'"s\xffeed"'))
        out = str(tmp_path / "o.csv")
        assert run_cli("combine", "--method", "swiss", "--out", out, *map(str, paths)) == 1
        err = capsys.readouterr().err
        assert "b.meta.json:" in err and "not UTF-8" in err

    def test_combine_dimension_mismatch_is_usage_error(self, tmp_path):
        two = tmp_path / "two.csv"
        two.write_text("param_0,param_1\n" + "".join(f"{i},{i * i % 7}\n" for i in range(8)))
        three = tmp_path / "three.csv"
        three.write_text(
            "param_0,param_1,param_2\n" + "".join(f"{i},{i * i % 7},{i % 3}\n" for i in range(8))
        )
        for method in ("swiss", "consensus", "ar", "barycenter"):
            out = str(tmp_path / "o.csv")
            assert run_cli("combine", "--method", method, "--out", out, str(two), str(three)) == 1

    def test_data_free_target_rejects_data_and_assignment(self, tmp_path, capsys):
        noy = tmp_path / "noy.csv"
        noy.write_text("x0,x1\n1.0,0.0\n0.0,1.0\n")
        data = tmp_path / "d.csv"
        assign = tmp_path / "a.csv"
        run_cli("simulate", "--n", "50", "--seed", "0", "--out", str(data))
        run_cli("partition", "--data", str(data), "--batches", "2", "--out", str(assign))
        capsys.readouterr()
        for flags in (
            ("--data", str(noy)),  # a CSV without a response column
            ("--data", str(data), "--assignment", str(assign)),  # a valid dataset and partition
            ("--assignment", str(assign)),
        ):
            code = run_cli(
                "sample", "--target", "rare-bernoulli", *flags,
                "--n-samples", "10", "--out-dir", str(tmp_path / "x"),
            )
            assert code == 1
            assert "data-free" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bench_non_integer_dimension_is_usage_error(self, capsys):
        assert run_cli("bench", "--dims", "5,x") == 1
        assert "'x'" in capsys.readouterr().err

    def test_experiment_override_is_validated(self, tmp_path, capsys):
        # a config that overrides the default worker count with 0
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"target": "rare-bernoulli", "n_batches": 1,
                                        "n_samples": 10, "burn_in": 10, "workers": 0}))
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(out)) == 1
        assert "workers" in capsys.readouterr().err
        assert not out.exists()

    def test_data_backed_config_past_100_runs_is_usage_error(self, tmp_path, capsys):
        # repetition 100 would replay the dataset's random stream
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"target": "logistic-rare", "n_batches": 2,
                                        "n_samples": 200, "burn_in": 500, "init": "mle",
                                        "n_observations": 2000, "n_runs": 101,
                                        "combiners": ["swiss"]}))
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(out)) == 1
        assert "n_runs must be <= 100" in capsys.readouterr().err
        assert not out.exists()

    def test_data_free_config_with_observations_is_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"target": "rare-bernoulli", "n_batches": 2,
                                        "n_samples": 20, "burn_in": 10,
                                        "n_observations": 5000}))
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "'rare-bernoulli' is data-free" in err and "n_observations" in err
        assert not out.exists()

    def test_single_draw_is_usage_error_before_output(self, tmp_path, capsys):
        # a batch needs two draws; the chain must not run before that is known
        out = tmp_path / "out1"
        code = run_cli(
            "sample", "--target", "rare-bernoulli", "--n-samples", "1", "--burn-in", "500",
            "--out-dir", str(out),
        )
        assert code == 1
        assert "n_samples must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payload", ["[1]", "5", '["target"]'])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, payload):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(payload)
        assert run_cli("experiment", "--config", str(cfg_path)) == 1

    def test_unknown_target_params_are_usage_errors(self, tmp_path, capsys):
        # targets take no parameters and partition has one scheme, so these
        # flags and this config key are unknown
        data, out = tmp_path / "d.csv", tmp_path / "x"
        run_cli("simulate", "--n", "50", "--seed", "0", "--out", str(data))
        capsys.readouterr()
        code = run_cli(
            "sample", "--target", "rare-bernoulli", "--params", '{"bogus": 1}',
            "--n-samples", "10", "--out-dir", str(out),
        )
        assert code == 1
        assert "--params" in capsys.readouterr().err
        code = run_cli(
            "partition", "--data", str(data), "--batches", "2", "--scheme", "by-group",
            "--out", str(tmp_path / "a.csv"),
        )
        assert code == 1
        assert "--scheme" in capsys.readouterr().err
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"target": "logistic-rare", "n_batches": 2,
                                        "n_samples": 10, "burn_in": 10,
                                        "n_observations": 100, "target_params": {}}))
        code = run_cli("experiment", "--config", str(cfg_path), "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['target_params']\n"
        assert not out.exists() and not (tmp_path / "a.csv").exists()

    @pytest.mark.parametrize("convention", ["inflated", "subposterior", "full"])
    @pytest.mark.parametrize("batches", ["0", "-2"])
    def test_sample_batch_count_below_one_is_usage_error(
        self, tmp_path, capsys, convention, batches
    ):
        out = tmp_path / "x"
        code = run_cli(
            "sample", "--target", "rare-bernoulli", "--convention", convention,
            "--batches", batches, "--n-samples", "10", "--burn-in", "0", "--out-dir", str(out),
        )
        assert code == 1
        assert "batch count" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_batches_on_data_backed_target_is_usage_error(self, tmp_path, capsys):
        # a data-backed target takes its batches from --assignment
        data, assign, out = tmp_path / "d.csv", tmp_path / "a.csv", tmp_path / "x"
        run_cli("simulate", "--n", "50", "--seed", "0", "--out", str(data))
        run_cli("partition", "--data", str(data), "--batches", "2", "--out", str(assign))
        capsys.readouterr()
        code = run_cli(
            "sample", "--target", "logistic-rare", "--data", str(data), "--assignment",
            str(assign), "--batches", "7", "--n-samples", "10", "--out-dir", str(out),
        )
        assert code == 1
        assert "--batches" in capsys.readouterr().err
        assert not out.exists()

    def test_assignment_of_another_length_is_usage_error_before_output(self, tmp_path, capsys):
        data, assign, out = tmp_path / "d.csv", tmp_path / "a.csv", tmp_path / "x"
        run_cli("simulate", "--n", "50", "--seed", "0", "--out", str(data))
        assign.write_text("batch\n0\n1\n0\n1\n")
        capsys.readouterr()
        code = run_cli(
            "sample", "--target", "logistic-rare", "--data", str(data), "--assignment",
            str(assign), "--n-samples", "10", "--out-dir", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err == "error: assignment covers 4 rows, dataset has 50\n"
        assert not out.exists()

    def test_integral_float_batch_id_is_usage_error_before_output(self, tmp_path, capsys):
        # a batch id is an integer, so 1.0 is refused with its file and line
        data, assign, out = tmp_path / "d.csv", tmp_path / "a.csv", tmp_path / "x"
        run_cli("simulate", "--n", "4", "--seed", "0", "--out", str(data))
        assign.write_text("batch\n0\n1.0\n0\n1\n")
        capsys.readouterr()
        code = run_cli(
            "sample", "--target", "logistic-rare", "--data", str(data), "--assignment",
            str(assign), "--n-samples", "10", "--out-dir", str(out),
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {assign}:3: ")
        assert not out.exists()

    def test_mutually_missing_assignment(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli("simulate", "--n", "50", "--seed", "0", "--out", str(data))
        code = run_cli(
            "sample", "--target", "logistic-rare", "--data", str(data),
            "--n-samples", "10", "--out-dir", str(tmp_path / "x"),
        )
        assert code == 1

    # "mle": rare-bernoulli has no ML-estimate hook; the others are not init modes
    @pytest.mark.parametrize("init", ["bogus", "1,x", "1,nan", ",", "mle", "1,2,3"])
    def test_bad_init_is_usage_error_before_output(self, tmp_path, capsys, init):
        out = tmp_path / "x"
        code = run_cli(
            "sample", "--target", "rare-bernoulli", "--init", init,
            "--n-samples", "10", "--out-dir", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "init" in err and "batch" not in err
        assert not out.exists()

    def test_too_few_draws_for_the_dimension_fail_before_sampling(self, tmp_path, capsys):
        # a 5-dimensional covariance needs 6 draws; 4 must be refused before
        # any chain runs or the output directory exists
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"target": "logistic-rare", "n_batches": 2,
                                        "n_samples": 4, "burn_in": 10,
                                        "n_observations": 100, "init": "mle"}))
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "n_samples must be >= 6" in err and "repetition" not in err
        assert not out.exists()

    def test_sample_too_few_draws_for_the_dimension_fail_before_output(self, tmp_path, capsys):
        # the rule of the experiment: 3 draws cannot give a 5-dimensional
        # batch covariance, so sample must refuse them before writing
        data, assign = tmp_path / "data.csv", tmp_path / "assign.csv"
        assert run_cli("simulate", "--n", "100", "--seed", "1", "--out", str(data)) == 0
        assert run_cli("partition", "--data", str(data), "--batches", "2",
                       "--out", str(assign)) == 0
        capsys.readouterr()
        out = tmp_path / "chains"
        code = run_cli(
            "sample", "--target", "logistic-rare", "--data", str(data), "--assignment",
            str(assign), "--n-samples", "3", "--init", "mle", "--out-dir", str(out),
        )
        assert code == 1
        assert "n_samples must be >= 6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sidecar, field",
        [
            ('{"batch_id": "x"}', "batch_id"),
            ('{"batch_id": 1.5}', "batch_id"),
            ('{"seed": true}', "seed"),
            ('{"inflation_exponent": null}', "inflation_exponent"),
            ('{"prior_exponent": Infinity}', "prior_exponent"),
            ('{"target_name": 5}', "target_name"),
            ("[1, 2]", "JSON object"),
            ('{"n_draws": 3}', "n_draws"),
            ('{"n_draws": 60.0}', "n_draws"),
            ('{"dim": 7}', "dim"),
            ('{"dim": true}', "dim"),
            ('{"dim": 7, "n_draws": 3, "batch_id": 0}', "n_draws"),
        ],
    )
    def test_malformed_sidecar_is_usage_error(self, tmp_path, capsys, sidecar, field):
        rng = np.random.default_rng(5)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for batch_id, path in enumerate(paths):
            write_batch(path, SampleBatch(batch_id, rng.standard_normal((60, 2))))
        (tmp_path / "b.meta.json").write_text(sidecar)
        out = tmp_path / "o.csv"
        assert run_cli("combine", "--method", "swiss", "--out", str(out), *map(str, paths)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(tmp_path / "b.meta.json") in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"n_batches": "2"}, "n_batches"),
            ({"n_batches": 2.5}, "n_batches"),
            ({"seed": None}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"n_runs": True}, "n_runs"),
            ({"thin": "1"}, "thin"),
            ({"combiners": "swiss"}, "combiners"),
            ({"combiners": ["swiss", 1, "x"]}, "combiners"),
            ({"out_dir": 5}, "out_dir"),
            ({"init": [1.0, True]}, "init"),
        ],
    )
    def test_config_field_of_wrong_type_is_usage_error(self, tmp_path, capsys, override, field):
        config = {"target": "rare-bernoulli", "n_batches": 2, "n_samples": 10, "burn_in": 10}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**config, **override}))
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["target", "n_batches", "n_samples"])
    def test_config_missing_a_required_key_is_usage_error(self, tmp_path, capsys, key):
        config = {"target": "rare-bernoulli", "n_batches": 2, "n_samples": 10, "burn_in": 10}
        del config[key]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(cfg_path), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: missing config keys: ['{key}']\n"
        assert not out.exists()

    def test_mle_non_convergence_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("swissmc.targets._NEWTON_MAX_STEPS", 1)
        data = tmp_path / "data.csv"
        assign = tmp_path / "assign.csv"
        assert run_cli("simulate", "--n", "400", "--seed", "5", "--out", str(data)) == 0
        assert run_cli("partition", "--data", str(data), "--batches", "2", "--out", str(assign)) == 0
        code = run_cli(
            "sample", "--target", "logistic-rare", "--data", str(data), "--assignment",
            str(assign), "--n-samples", "10", "--init", "mle", "--out-dir", str(tmp_path / "c"),
        )
        assert code == 2
        assert "ML estimate did not converge" in capsys.readouterr().err
