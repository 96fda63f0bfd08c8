"""Sample-batch files and JSON helpers."""

import numpy as np
import pytest

from swissmc import (
    Dataset,
    InvalidInputError,
    ParseError,
    SampleBatch,
    partition,
    simulate_rare_feature_data,
)
from swissmc.cli import cli_main
from swissmc.io import (
    _assignment_columns,
    _dataset_columns,
    _parse_lines,
    _read_csv,
    _sample_columns,
    _split_csv,
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
    write_table_csv,
)
from swissmc.moments import BatchMeta


def _outcome(read):
    """What a read gives: the header and the array's dtype, shape, order and
    bytes, or the exception's type and text."""
    try:
        header, values = read()
    except Exception as err:
        return type(err), str(err)
    return header, values.dtype, values.shape, values.flags.c_contiguous, values.tobytes()


def assert_reads_as_line_by_line(path, columns, dtype=float):
    """``_read_csv`` gives exactly what the line-by-line parse gives."""

    def by_line():
        lines, header, usecols = _split_csv(path, columns)
        return header, _parse_lines(path, lines, header, usecols, dtype)

    assert _outcome(lambda: _read_csv(path, columns, dtype)) == _outcome(by_line)


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
    exits 0 or 1, never with a traceback.  The one-parse reader gives the
    same array bytes, or the same error, as the line-by-line parse."""

    TOKENS = [b",", b"\n", *(bytes([c]) for c in b"0123456789"), b"nan", b"#", b"\xff"]

    def _mutate(self, raw: bytes, rng, tokens=TOKENS) -> bytes:
        data = bytearray(raw)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(data) + 1))
            token = tokens[int(rng.integers(len(tokens)))]
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

    # line breaks that str.splitlines takes and loadtxt may not, whitespace,
    # NUL and tokens that a float or int parse may take
    MORE_TOKENS = [b"\r\n", b"\r", b" ", b"\t", b"\x0c", b"\xc2\x85", b"\xe2\x80\xa8",
                   b"\xc2\xa0", b"\x1f", b"\x00", b"inf", b"1.0", b"e", b"-", b"+", b"_", b'"']

    def test_byte_edits_read_as_line_by_line(self, tmp_path):
        rng = np.random.default_rng(20261020)
        dataset = simulate_rare_feature_data(40, seed=1)
        sample_path = tmp_path / "sample.csv"
        data_path = tmp_path / "data.csv"
        assign_path = tmp_path / "assign.csv"
        mixed_path = tmp_path / "mixed.csv"
        write_sample_csv(sample_path, rng.standard_normal((30, 2)))
        write_dataset_csv(dataset, data_path)
        write_assignment_csv(assign_path, partition(dataset, 2, seed=2))
        # an ignored column and features out of order, so the columns are picked
        mixed_path.write_text("x1,w,y,x0\n" + "".join(f"{i}.5,{-i},1,2e{i}\n" for i in range(20)))
        bad = tmp_path / "mutated.csv"
        cases = [
            (sample_path, _sample_columns, float),
            (data_path, _dataset_columns, float),
            (mixed_path, _dataset_columns, float),
            (assign_path, _assignment_columns, int),
        ]
        for valid, columns, dtype in cases:
            raw = valid.read_bytes()
            assert_reads_as_line_by_line(valid, columns, dtype)
            for _ in range(150):
                bad.write_bytes(self._mutate(raw, rng, self.TOKENS + self.MORE_TOKENS))
                assert_reads_as_line_by_line(bad, columns, dtype)

    @pytest.mark.parametrize(
        "columns, dtype, raw",
        [
            (_sample_columns, float, b"param_0,param_1\r\n1.5,2\r\n3,4\r\n"),
            (_sample_columns, float, b"param_0,param_1\n1,2\n \t\n3,4\n"),
            (_sample_columns, float, b"param_0,param_1\n1,2\n3,4,5\n6,7\n"),
            (_sample_columns, float, b"param_0,param_1\n1,2,3\n4,5,6\n"),
            (_sample_columns, float, b"param_0,param_1\n1,\x0c2\n"),
            (_sample_columns, float, b"param_0,param_1\n1\xc2\x85,2\n"),
            (_sample_columns, float, b"param_0,param_1\n1,2\xe2\x80\xa8\n3,4\n"),
            (_sample_columns, float, b"param_0,param_1\n1,2 # note\n"),
            (_sample_columns, float, b"param_0,param_1\n1,2\n\xff,4\n"),
            (_sample_columns, float, b"param_0,param_1\n1,2\x00\n"),
            (_sample_columns, float, b"param_0,param_1\n"),
            (_sample_columns, float, b"param_0,param_1\n\n\n"),
            (_sample_columns, float, b"param_0\n1\nnan\n"),
            (_dataset_columns, float, b"y,x0,w\n1,2,nan\n0,3,4\n"),
            (_dataset_columns, float, b"y,group,x0\n1,a,2\n0,b,3\n"),
            (_dataset_columns, float, b"x1,w,y,x0\n1,2,3,4\n5,6,7,8\n"),
            (_assignment_columns, int, b"batch\n0\n1.0\n"),
        ],
        ids=[
            "crlf", "whitespace-only-line", "extra-field", "extra-field-every-row",
            "form-feed", "next-line", "line-separator", "hash", "not-utf8", "nul",
            "header-only", "blank-body", "nan", "nan-in-ignored-column",
            "text-in-ignored-column", "reordered-columns", "assignment-float-id",
        ],
    )
    def test_targeted_files_read_as_line_by_line(self, tmp_path, columns, dtype, raw):
        path = tmp_path / "case.csv"
        path.write_bytes(raw)
        assert_reads_as_line_by_line(path, columns, dtype)

    def test_valid_files_take_one_parse(self, tmp_path, monkeypatch):
        """A well-formed file never reaches the line-by-line parse."""
        dataset = simulate_rare_feature_data(40, seed=1)
        write_sample_csv(tmp_path / "sample.csv", np.ones((5, 2)))
        write_dataset_csv(dataset, tmp_path / "data.csv")
        write_assignment_csv(tmp_path / "assign.csv", partition(dataset, 2, seed=2))
        monkeypatch.setattr("swissmc.io._parse_lines", None)
        read_sample_csv(tmp_path / "sample.csv")
        read_dataset_csv(tmp_path / "data.csv")
        read_assignment_csv(tmp_path / "assign.csv")


class TestWriterBytes:
    """Every CSV writer writes the bytes that ``np.savetxt`` writes for the
    same table, across the 1024-row chunks the writer formats at once."""

    @staticmethod
    def savetxt_bytes(tmp_path, header, table, fmt="%.17g") -> bytes:
        path = tmp_path / "savetxt.csv"
        np.savetxt(
            path, table, fmt=fmt, delimiter=",", header=",".join(header), comments="",
            encoding="utf-8",
        )
        return path.read_bytes()

    @pytest.mark.parametrize("dim", [0, 1, 3])
    @pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025, 2049])
    def test_sample_csv(self, tmp_path, n_rows, dim):
        rng = np.random.default_rng(n_rows)
        draws = rng.standard_normal((n_rows, dim)) * 10.0 ** rng.integers(-300, 300, (n_rows, dim))
        big = 1.7976931348623157e308
        special = [-0.0, 5e-324, big, -big][: draws.size]
        draws.flat[: len(special)] = special
        path = tmp_path / "draws.csv"
        write_sample_csv(path, draws)
        header = [f"param_{j}" for j in range(dim)]
        assert path.read_bytes() == self.savetxt_bytes(tmp_path, header, draws)

    @pytest.mark.parametrize("with_y", [True, False])
    def test_dataset_csv(self, tmp_path, with_y):
        dataset = simulate_rare_feature_data(1500, seed=3)
        table = np.column_stack([dataset.y, dataset.x]) if with_y else dataset.x
        if not with_y:
            dataset = Dataset(dataset.x)
        header = ["y"] * with_y + [f"x{j}" for j in range(dataset.x.shape[1])]
        path = tmp_path / "data.csv"
        write_dataset_csv(dataset, path)
        assert path.read_bytes() == self.savetxt_bytes(tmp_path, header, table)

    def test_assignment_csv(self, tmp_path):
        split = partition(simulate_rare_feature_data(2049, seed=3), 3, seed=0)
        path = tmp_path / "assign.csv"
        write_assignment_csv(path, split)
        expected = self.savetxt_bytes(tmp_path, ["batch"], split.assignment[:, None], "%d")
        assert path.read_bytes() == expected

    @pytest.mark.parametrize(
        "header, rows, fields",
        [
            (
                ["name", "value", "note"],
                [["swiss", 0.1, None], [3, 2.5e-300, True], ["ar", None, -0.0]],
                [["swiss", "0.1", ""], ["3", "2.5e-300", "True"], ["ar", "", "-0.0"]],
            ),
            (["name", "value"], [], []),
            (["value"], [[1.5], [None]], [["1.5"], [""]]),
        ],
        ids=["mixed", "zero-rows", "one-column"],
    )
    def test_table_csv(self, tmp_path, header, rows, fields):
        path = tmp_path / "table.csv"
        write_table_csv(path, header, rows)
        table = np.array(fields, dtype=object).reshape(len(fields), len(header))
        assert path.read_bytes() == self.savetxt_bytes(tmp_path, header, table, "%s")


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
