"""Sample-batch files and JSON helpers."""

import numpy as np
import pytest

from swissmc import (
    BatchMeta,
    InvalidInputError,
    ParseError,
    SampleBatch,
    partition,
    simulate_rare_feature_data,
)
from swissmc.cli import cli_main
from swissmc.io import (
    meta_path,
    read_assignment_csv,
    read_batch,
    read_dataset_csv,
    read_json,
    read_sample_csv,
    write_assignment_csv,
    write_batch,
    write_dataset_csv,
    write_sample_csv,
)


class TestSampleCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal((200, 3)) * np.array([1e-7, 1.0, 1e9])
        # signed zero, the smallest subnormal and the largest finite floats
        big = 1.7976931348623157e308
        draws[:2] = [[-0.0, 5e-324, big], [0.0, -5e-324, -big]]
        path = tmp_path / "draws.csv"
        write_sample_csv(path, draws)
        back = read_sample_csv(path)
        assert np.array_equal(back, draws)
        # array_equal treats -0.0 as 0.0; the bytes do not
        assert back.tobytes() == draws.tobytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ParseError, match=":1"):
            read_sample_csv(path)

    def test_bad_value_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("param_0\n1.0\nnope\n")
        with pytest.raises(ParseError, match=r"bad\.csv:3"):
            read_sample_csv(path)

    def test_non_finite_value_is_parse_error_with_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        # the blank line is skipped, so the bad row is the third data row, line 5
        path.write_text("param_0,param_1\n1.0,2.0\n\n3.0,4.0\nnan,0.1\n5.0,-inf\n")
        with pytest.raises(ParseError, match=r"nan\.csv:5: non-finite"):
            read_sample_csv(path)
        path.write_text("param_0\n1.0\n-inf\n")
        with pytest.raises(ParseError, match=r"nan\.csv:3: non-finite"):
            read_batch(path)

    def test_ragged_row_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("param_0,param_1\n1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match=r"ragged\.csv:3"):
            read_sample_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match=":1"):
            read_sample_csv(path)


class TestReaderFuzz:
    """Random byte edits of valid sample, dataset and assignment files: every
    outcome is a parsed file or ParseError/InvalidInputError, and the CLI
    exits 0 or 1, never with a traceback."""

    TOKENS = [b",", b"\n", *(bytes([c]) for c in b"0123456789"), b"nan", b"#", b"\xff"]

    def _mutate(self, raw: bytes, rng) -> bytes:
        data = bytearray(raw)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(data) + 1))
            token = self.TOKENS[int(rng.integers(len(self.TOKENS)))]
            edit = int(rng.integers(3))
            if edit == 0:
                data[pos:pos] = token
            elif edit == 1:
                del data[pos : pos + 1]
            else:
                data[pos : pos + 1] = token
        return bytes(data)

    def test_byte_edits_parse_or_raise(self, tmp_path, capsys):
        rng = np.random.default_rng(20261018)
        dataset = simulate_rare_feature_data(40, seed=1)
        sample_path = tmp_path / "sample.csv"
        data_path = tmp_path / "data.csv"
        assign_path = tmp_path / "assign.csv"
        write_sample_csv(sample_path, rng.standard_normal((30, 2)))
        write_dataset_csv(dataset, data_path)
        write_assignment_csv(assign_path, partition(dataset, 2, seed=2))
        bad = tmp_path / "mutated.csv"
        out = str(tmp_path / "out")
        cases = [
            (sample_path, read_sample_csv,
             ["evaluate", "--approx", str(bad), "--reference", str(sample_path)]),
            (data_path, read_dataset_csv,
             ["partition", "--data", str(bad), "--batches", "2", "--out", out + ".csv"]),
            (assign_path, read_assignment_csv,
             ["sample", "--target", "logistic-rare", "--data", str(data_path),
              "--assignment", str(bad), "--n-samples", "10", "--burn-in", "10",
              "--out-dir", out]),
        ]
        outcomes = set()
        for valid, reader, argv in cases:
            raw = valid.read_bytes()
            for _ in range(40):
                bad.write_bytes(self._mutate(raw, rng))
                try:
                    reader(bad)
                    outcomes.add("parsed")
                except (ParseError, InvalidInputError):
                    outcomes.add("rejected")
                assert cli_main(argv) in (0, 1)
        capsys.readouterr()
        assert outcomes == {"parsed", "rejected"}


class TestBatchSidecar:
    def test_round_trip_with_metadata(self, tmp_path):
        draws = np.random.default_rng(1).standard_normal((50, 2))
        batch = SampleBatch(
            3,
            draws,
            meta=BatchMeta(
                inflation_exponent=4.0, prior_exponent=0.25, seed=99, target_name="toy"
            ),
            diagnostics={"acceptance_rate": 0.3, "warnings": []},
        )
        path = tmp_path / "batch_3.csv"
        write_batch(path, batch)
        assert meta_path(path).name == "batch_3.meta.json"
        back = read_batch(path)
        assert back.batch_id == 3
        assert np.array_equal(back.draws, draws)
        assert back.meta == batch.meta
        assert back.diagnostics["acceptance_rate"] == 0.3

    def test_missing_sidecar_uses_fallback(self, tmp_path):
        path = tmp_path / "loose.csv"
        write_sample_csv(path, np.zeros((5, 1)) + np.arange(5)[:, None])
        back = read_batch(path, fallback_batch_id=7)
        assert back.batch_id == 7
        assert back.meta == BatchMeta()

    def test_invalid_sidecar_json(self, tmp_path):
        path = tmp_path / "batch.csv"
        write_sample_csv(path, np.ones((3, 1)) * np.arange(3)[:, None])
        meta_path(path).write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            read_batch(path)


class TestJsonHelpers:
    def test_invalid_json_carries_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"a": 1,\n "b": }\n')
        with pytest.raises(ParseError, match=r"broken\.json:2"):
            read_json(path)
