import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import reference_values as rv
from gwalsh import (
    NoConvergenceError,
    NumericError,
    ValidationError,
    basis,
    cli,
    count_multiplies,
    generate_random,
    load_masked_system,
    load_matrix,
    load_transcript,
    protocol,
    save_matrix,
    series,
)
from gwalsh.cli import main
from gwalsh.matrix import MAX_N
from gwalsh.transform import read_coefficients, read_signal


@pytest.fixture()
def matrix_a_file(tmp_path, matrix_a):
    path = tmp_path / "A.json"
    save_matrix(matrix_a, path)
    return str(path)


@pytest.fixture()
def matrix_b_file(tmp_path, matrix_b):
    path = tmp_path / "B.json"
    save_matrix(matrix_b, path)
    return str(path)


@pytest.fixture()
def unpaired_b_file(tmp_path):
    # unitary with a constant first row, but not a companion of the reference A
    path = tmp_path / "B_unpaired.json"
    save_matrix(generate_random(3, seed=2), path)
    return str(path)


@pytest.fixture()
def signal_file(tmp_path, signal_f):
    from gwalsh.transform import write_signal

    path = tmp_path / "f.csv"
    write_signal(signal_f, path)
    return str(path)


class TestGenMatrix:
    def test_closed_form(self, tmp_path):
        out = tmp_path / "m.json"
        rc = main(["gen-matrix", "--entry", "0.4", "--row", "3", "--branch", "minus",
                   "--out", str(out)])
        assert rc == 0
        m = load_matrix(out)
        assert m.entries[2, 0] == 0.4

    def test_random_deterministic_bytes(self, tmp_path):
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        assert main(["gen-matrix", "--n", "4", "--seed", "9", "--out", str(first)]) == 0
        assert main(["gen-matrix", "--n", "4", "--seed", "9", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_out_of_range_is_numeric_failure(self, tmp_path):
        rc = main(["gen-matrix", "--entry", "1.0", "--out", str(tmp_path / "m.json")])
        assert rc == 1

    def test_missing_spec_is_validation_failure(self, tmp_path):
        rc = main(["gen-matrix", "--out", str(tmp_path / "m.json")])
        assert rc == 2


class TestSolveB:
    def test_closed_form_matches_reference(self, tmp_path, matrix_a_file):
        out = tmp_path / "B.json"
        rc = main(["solve-b", "--matrix", matrix_a_file, "--r", "0.2", "--out", str(out)])
        assert rc == 0
        b = load_matrix(out)
        np.testing.assert_allclose(b.entries[1], rv.MATRIX_B_ROW1, atol=1e-7)
        np.testing.assert_allclose(b.entries[2], rv.MATRIX_B_ROW2, atol=1e-7)

    def test_no_real_solution_exit_code(self, tmp_path, matrix_a_file):
        rc = main(["solve-b", "--matrix", matrix_a_file, "--r", "0.9",
                   "--out", str(tmp_path / "B.json")])
        assert rc == 1

    def test_numeric_with_masked_system(self, tmp_path, matrix_a_file, matrix_a):
        out = tmp_path / "B.json"
        masked_out = tmp_path / "masked.json"
        rc = main(["solve-b", "--matrix", matrix_a_file, "--numeric",
                   "--mask-seed", "3", "--seed", "2",
                   "--masked-out", str(masked_out), "--out", str(out)])
        assert rc == 0
        payload = json.loads(masked_out.read_text())
        assert isinstance(payload, list) and len(payload) == 1
        assert set(payload[0]) == {"coeffs", "rhs"}
        from gwalsh import pairing_check_rows

        assert pairing_check_rows(matrix_a, load_matrix(out), tol=1e-8).holds

    @pytest.mark.parametrize("flags", [[], ["--mask-seed", "5"], ["--seed", "3"]],
                             ids=["none", "mask-seed", "seed"])
    def test_mode_required(self, tmp_path, matrix_a_file, capsys, flags):
        # --numeric selects the numeric companion, as --r selects the closed form
        out = tmp_path / "B.json"
        assert main(["solve-b", "--matrix", matrix_a_file, *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "ValidationError: provide --r (closed form) or --numeric\n")
        assert not out.exists()

    def test_failed_solve_writes_no_file(self, tmp_path, matrix_a_file, monkeypatch):
        # the masked system is written only once B is certified against it
        def no_convergence(*args, **kwargs):
            raise NoConvergenceError("companion residual 4.441e-16 exceeds tol 3.000e-16")

        monkeypatch.setattr(cli, "solve_companion_numeric", no_convergence)
        out, masked_out = tmp_path / "B.json", tmp_path / "m.json"
        assert main(["solve-b", "--matrix", matrix_a_file, "--numeric", "--mask-seed", "5",
                     "--masked-out", str(masked_out), "--out", str(out)]) == 1
        assert not out.exists()
        assert not masked_out.exists()

    def test_two_by_two_masked_system_is_empty(self, tmp_path):
        # N = 2 has no pair 1 <= l < k <= N-1, so no equation; the format
        # carries no n, and a list naming no unknown cannot be read back
        a, masked, out = (tmp_path / name for name in ("A.json", "m.json", "B.json"))
        assert main(["gen-matrix", "--n", "2", "--seed", "1", "--out", str(a)]) == 0
        assert main(["solve-b", "--matrix", str(a), "--numeric", "--mask-seed", "5",
                     "--masked-out", str(masked), "--out", str(out)]) == 0
        assert masked.read_text() == "[]\n"
        with pytest.raises(ValidationError, match="names no unknowns"):
            load_masked_system(masked)


class TestEncodeDecode:
    def test_golden_coefficient(self, tmp_path, matrix_a_file, signal_file):
        out = tmp_path / "c.csv"
        rc = main(["encode", "--matrix", matrix_a_file, "--signal", signal_file,
                   "--out", str(out)])
        assert rc == 0
        c = read_coefficients(out)
        assert c.coeffs[1] == pytest.approx(-0.5443310539, abs=1e-8)
        assert c.coeffs[0] == pytest.approx(23.0 / 27.0, abs=1e-10)

    def test_inline_signal_same_bytes(self, tmp_path, matrix_a_file, signal_file):
        from_file = tmp_path / "c1.csv"
        inline = tmp_path / "c2.csv"
        main(["encode", "--matrix", matrix_a_file, "--signal", signal_file,
              "--out", str(from_file)])
        main(["encode", "--matrix", matrix_a_file, "--signal-inline", rv.SIGNAL_DIGITS,
              "--out", str(inline)])
        assert from_file.read_bytes() == inline.read_bytes()

    def test_round_trip(self, tmp_path, matrix_a_file, signal_file, signal_f):
        coeffs = tmp_path / "c.csv"
        back = tmp_path / "g.csv"
        main(["encode", "--matrix", matrix_a_file, "--signal", signal_file,
              "--out", str(coeffs)])
        rc = main(["decode", "--matrix", matrix_a_file, "--in", str(coeffs),
                   "--out", str(back)])
        assert rc == 0
        values = read_signal(back).values
        assert np.abs(values - signal_f.values).max() <= 1e-9

    def test_missing_file_exit_code(self, tmp_path, matrix_a_file):
        rc = main(["encode", "--matrix", matrix_a_file,
                   "--signal", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2


class TestSeriesCommand:
    def test_sweep_csv(self, tmp_path, matrix_a_file, signal_file):
        out = tmp_path / "sweep.csv"
        rc = main(["series", "--matrix", matrix_a_file, "--signal", signal_file,
                   "--k-list", "1,27", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,sup_error,l1_error,l2_error"
        assert len(lines) == 3
        last = lines[2].split(",")
        assert last[0] == "27"
        assert float(last[1]) <= 1e-10

    def test_bad_k_list(self, tmp_path, matrix_a_file, signal_file):
        rc = main(["series", "--matrix", matrix_a_file, "--signal", signal_file,
                   "--k-list", "1,abc", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_empty_k_list(self, tmp_path, matrix_a_file, signal_file):
        rc = main(["series", "--matrix", matrix_a_file, "--signal", signal_file,
                   "--k-list", ",", "--out", str(tmp_path / "s.csv")])
        assert rc == 2


class TestKernelCheck:
    def test_passes_for_reference_matrix(self, tmp_path, matrix_a_file):
        out = tmp_path / "kc.json"
        rc = main(["kernel-check", "--matrix", matrix_a_file, "--q", "3",
                   "--samples", "200", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["max_deviation"] <= 1e-9

    @pytest.mark.parametrize("deviation", [1.0, float("nan")], ids=["large", "nan"])
    def test_failure_exit_one(self, tmp_path, matrix_a_file, capsys, monkeypatch, deviation):
        monkeypatch.setattr(basis, "kernel_deviation", lambda *args, **kwargs: deviation)
        out = tmp_path / "kc.json"
        rc = main(["kernel-check", "--matrix", matrix_a_file, "--q", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("kernel-check failed: max_deviation=")
        assert json.loads(out.read_text())["pass"] is False


class TestCheckBoundaries:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--q", "0"],
            ["kernel-check", "--q", "0"],
            ["kernel-check", "--q", "3", "--samples", "0"],
            ["kernel-check", "--q", "40"],  # 3^40 cells exceed 2^53
            ["verify", "--q", "8"],  # 3^8 cells exceed MAX_GRID = 2048
            ["verify", "--q", "2", "--tol", "inf"],  # every check would pass
            ["kernel-check", "--q", "2", "--tol", "inf"],
            # N^q is never formed for a q this large
            ["kernel-check", "--q", "10000000"],
            ["verify", "--q", "10000000"],
            ["series", "--signal-inline", "012", "--k-list", "3", "--q", "9100"],
            ["series", "--signal-inline", "012", "--k-list", "3", "--q", "5000"],
        ],
        ids=["verify-q0", "kernel-check-q0", "samples0", "cells-over-2^53", "verify-over-grid",
             "verify-tol-inf", "kernel-check-tol-inf", "kernel-check-huge-q", "verify-huge-q",
             "series-q-past-int-str-limit", "series-q-long-message"],
    )
    def test_rejected_with_exit_two(self, tmp_path, matrix_a_file, capsys, argv):
        out = tmp_path / "report.json"
        start = time.perf_counter()
        assert main(argv + ["--matrix", matrix_a_file, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200  # one short line, no traceback

    def test_verify_limits_q_itself(self, tmp_path, matrix_a_file, monkeypatch):
        # gram_defect has no MAX_GRID cap: verify itself must refuse to allocate 3^13 cells
        monkeypatch.setattr(basis, "gram_defect", lambda a, q: 0.0)

        def no_signal(*args, **kwargs):
            raise AssertionError("verify built its N^q-cell signal")

        monkeypatch.setattr(cli, "random_signal", no_signal)
        out = tmp_path / "report.json"
        argv = ["verify", "--matrix", matrix_a_file, "--q", "13", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()


class TestIntegerFlags:
    """Integer flags follow the CSV header's rule: an optional '-' and ASCII digits."""

    @pytest.mark.parametrize("argv", [
        ["kernel-check", "--q", "\u0663"],
        ["kernel-check", "--q", "2", "--samples", "1_0"],
        ["kernel-check", "--q", "2", "--seed", "+5"],
        ["kernel-check", "--q", " 2"],
        ["gen-matrix", "--entry", "0.5", "--row", "\u0662"],
        ["gen-matrix", "--n", "3", "--seed", "+5"],
        ["gen-matrix", "--n", "0_3"],
        ["solve-b", "--numeric", "--mask-seed", "\u0665"],
        ["verify", "--q", "2", "--samples", "1_000"],
        ["series", "--signal-inline", "012", "--k-list", "3", "--q", "+1"],
    ], ids=["arabic-q", "underscore-samples", "plus-seed", "spaced-q", "arabic-row",
            "gen-plus-seed", "underscore-n", "arabic-mask-seed", "verify-samples", "plus-q"])
    def test_spellings_int_reads_exit_two(self, tmp_path, matrix_a_file, capsys, argv):
        # int() reads each of these as the number it spells
        out = tmp_path / "out.json"
        matrix = [] if argv[0] == "gen-matrix" else ["--matrix", matrix_a_file]
        assert main(argv + matrix + ["--out", str(out)]) == 2
        assert not out.exists()
        assert "invalid ascii_int value" in capsys.readouterr().err

    @pytest.mark.parametrize("k_list", ["\u0663,1_0", "2_7", "+3", "3,-x"])
    def test_k_list_entries(self, tmp_path, matrix_a_file, signal_file, capsys, k_list):
        out = tmp_path / "s.csv"
        argv = ["series", "--matrix", matrix_a_file, "--signal", signal_file,
                "--k-list", k_list, "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"ValidationError: bad --k-list {k_list!r}\n"

    def test_negative_and_spaced_k_list_entries_still_read(self, tmp_path, matrix_a_file,
                                                           signal_file):
        # a minus sign is part of the rule, and entries may be spaced around their commas
        out = tmp_path / "s.csv"
        argv = ["series", "--matrix", matrix_a_file, "--signal", signal_file, "--out", str(out)]
        assert main(argv + ["--k-list", "27, 36"]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["k", "27", "36"]
        assert main(argv + ["--k-list", "-1"]) == 2


class TestFloatFlags:
    """Float flags read what float() reads, less spaces, '_' and non-ASCII characters."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--matrix", "{A}", "--q", "2", "--tol", "1_0e-9"],
        ["--tol", "1_0e-9", "verify", "--matrix", "{A}", "--q", "2"],
        ["solve-b", "--matrix", "{A}", "--r", " 0.2"],
        ["solve-b", "--matrix", "{A}", "--r", "0.2 "],
        ["exchange", "--matrix", "{A}", "--r", "0.2 ", "--signal", "{f}"],
        ["gen-matrix", "--entry", "\u0660.\u0665"],
    ], ids=["underscore-tol", "underscore-top-tol", "spaced-r", "r-spaced", "exchange-r-spaced",
            "arabic-entry"])
    def test_spellings_float_reads_exit_two(self, tmp_path, matrix_a_file, signal_file, capsys,
                                            argv):
        # float() reads each of these as the number it spells
        out = tmp_path / "out"
        paths = {"A": matrix_a_file, "f": signal_file}
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("ValidationError: ") and err.count("\n") == 1
        assert "invalid ascii_float value" in err

    @pytest.mark.parametrize("text", ["1e-6", "-0.5", "0.7071067811865476"])
    @pytest.mark.parametrize("argv,dest", [
        (["verify", "--matrix", "A.json", "--q", "2", "--tol"], "tol"),
        (["gen-matrix", "--out", "A.json", "--entry"], "entry"),
        (["solve-b", "--matrix", "A.json", "--out", "B.json", "--r"], "r"),
    ], ids=["tol", "entry", "r"])
    def test_plain_spellings_read_as_float(self, argv, dest, text):
        value = getattr(cli.build_parser().parse_args(argv + [text]), dest)
        assert type(value) is float and value == float(text)


class TestMalformedCsv:
    @pytest.mark.parametrize(
        "text",
        [
            "# gwalsh signal N=x q=1\n0\n1\n",
            "# gwalsh signal N=1 q=0\n0\n",
            "# gwalsh signal N=0 q=0\n0\n",
            "# gwalsh signal N=3 q=-1\n0\n",
            "# gwalsh signal N=3 q=1\n0\nnan\n1\n",
            # spellings float() reads but the writers never emit
            "# gwalsh signal N=3 q=1\n0\n1_0\n1\n",
            "# gwalsh signal N=3 q=1\n0\n 1 , 2 \n1\n",
            "# gwalsh signal N=3 q=1\n0\n\u0661\n1\n",
            "# gwalsh signal N=3 q=1000000000\n0\n",  # 3^(10^9) is never formed
            # header integers int() reads but the writers never emit
            "# gwalsh signal N=0_3 q=1\n0\n1\n2\n",
            "# gwalsh signal N=\u0663 q=1\n0\n1\n2\n",
            "# gwalsh signal N=+3 q=1\n0\n1\n2\n",
            # bare numbers and re,im pairs in one body
            "# gwalsh signal N=3 q=1\n0\n1,2\n1\n",
        ],
        ids=["N=x", "N=1", "N=0", "q=-1", "nan", "underscore", "spaced-pair", "arabic-digit",
             "huge-q", "header-underscore", "header-arabic-digit", "header-plus", "mixed-lines"],
    )
    def test_encode_exit_two(self, tmp_path, matrix_a_file, text):
        signal = tmp_path / "f.csv"
        signal.write_text(text, encoding="utf-8")
        out = tmp_path / "c.csv"
        rc = main(["encode", "--matrix", matrix_a_file, "--signal", str(signal),
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_decode_non_finite_exit_two(self, tmp_path, matrix_a_file):
        coeffs = tmp_path / "c.csv"
        coeffs.write_text("# gwalsh coeffs N=3 q=1\n0\ninf\n1\n")
        out = tmp_path / "g.csv"
        rc = main(["decode", "--matrix", matrix_a_file, "--in", str(coeffs), "--out", str(out)])
        assert rc == 2
        assert not out.exists()


def _load_outcome(path) -> int:
    """load_matrix's outcome as the CLI's exit code: 0 loaded, 1 numeric failure, 2 invalid."""
    try:
        load_matrix(path)
    except NumericError:
        return 1
    except ValidationError:
        return 2
    return 0


def _encode_outcome(path, tmp_path) -> int:
    """``gwalsh encode`` on the matrix file; no output file unless it exits 0."""
    out = tmp_path / "c.csv"
    out.unlink(missing_ok=True)
    rc = main(["encode", "--matrix", str(path), "--signal-inline", "012", "--out", str(out)])
    assert out.exists() == (rc == 0)
    return rc


class TestMalformedMatrix:
    @pytest.mark.parametrize(
        "payload",
        [
            {"entries": 3},
            {"entries": [[0.5, "x"], [0.5, -0.5]]},
            {"n": "z", "entries": rv.MATRIX_A.tolist()},
            {"entries": [rv.MATRIX_A[0].tolist(), [repr(x) for x in rv.MATRIX_A[1].tolist()],
                         rv.MATRIX_A[2].tolist()]},
            {"entries": [[False if x == 0 else x for x in row] for row in rv.MATRIX_A.tolist()]},
            {"tol": float("inf"), "entries": rv.MATRIX_A.tolist()},
        ],
        ids=["entries-int", "entry-str", "n-str", "entry-numeric-str", "entry-bool", "tol-inf"],
    )
    def test_encode_exit_two(self, tmp_path, payload):
        matrix = tmp_path / "A.json"
        matrix.write_text(json.dumps(payload))
        out = tmp_path / "c.csv"
        rc = main(["encode", "--matrix", str(matrix), "--signal-inline", "012",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_wrong_declared_n_exits_two_before_unitarity(self, tmp_path, capsys):
        # the declared n is checked before the entries' numbers: exit 2, not 1
        entries = rv.MATRIX_A.copy()
        entries[1] *= 2
        matrix = tmp_path / "A.json"
        matrix.write_text(json.dumps({"n": 4, "entries": entries.tolist()}))
        out = tmp_path / "c.csv"
        rc = main(["encode", "--matrix", str(matrix), "--signal-inline", "012",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("BadDimensionError: ")
        assert not out.exists()

    def test_file_tol_is_not_read(self, tmp_path, capsys):
        # every subcommand validates at --tol (default 1e-8); the file's tol
        # applies only to load_matrix(path) called without a tol
        half = 0.7071067811865476
        matrix = tmp_path / "A.json"
        matrix.write_text(json.dumps({"tol": 0.5, "entries": [[half, half], [0.65, -0.65]]}))
        assert load_matrix(matrix).tol == 0.5
        out = tmp_path / "c.csv"
        args = ["encode", "--matrix", str(matrix), "--signal-inline", "01", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("NotUnitaryError: unitarity defect")
        assert not out.exists()
        assert main(args + ["--tol", "0.5"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("tol_text", ["-1", "0", "-0.0", "1e400", '"1e-8"', "[1e-8]", "1e-8"])
    def test_cli_and_library_agree_on_the_file_tol(self, tmp_path, tol_text):
        matrix = tmp_path / "A.json"
        matrix.write_text(f'{{"tol": {tol_text}, "entries": {json.dumps(rv.MATRIX_A.tolist())}}}')
        assert _load_outcome(matrix) == _encode_outcome(matrix, tmp_path) == (
            0 if tol_text == "1e-8" else 2)

    @pytest.mark.parametrize("fixture", sorted((Path(__file__).parent / "fixtures").iterdir()),
                             ids=lambda path: path.name)
    def test_cli_and_library_agree_on_the_fixtures(self, tmp_path, fixture):
        assert _load_outcome(fixture) == _encode_outcome(fixture, tmp_path)

    def test_huge_entry_one_stderr_line_with_warnings_as_errors(self, tmp_path):
        # the entry bound comes before the Gram, which would overflow and warn
        matrix = tmp_path / "A.json"
        half = 0.7071067811865476
        matrix.write_text(json.dumps({"entries": [[half, half], [1e200, -1e200]]}))
        out = tmp_path / "c.csv"
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "gwalsh", "encode", "--matrix", str(matrix),
             "--signal-inline", "01", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("NotUnitaryError: ") and result.stderr.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--signal", "--in", "--matrix"])
def test_non_utf8_file_exit_two(tmp_path, matrix_a_file, signal_file, capsys, flag):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe")
    out = tmp_path / "out.csv"
    command, inputs = {
        "--signal": ("encode", ["--matrix", matrix_a_file, "--signal", str(bad)]),
        "--in": ("decode", ["--matrix", matrix_a_file, "--in", str(bad)]),
        "--matrix": ("encode", ["--matrix", str(bad), "--signal", signal_file]),
    }[flag]
    assert main([command, *inputs, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("ValidationError: ")


@pytest.mark.parametrize("argv", [
    ["encode"], ["series", "--k-list", "3"], ["exchange", "--r", "0.2"],
], ids=["encode", "series", "exchange"])
def test_no_signal_exit_two(tmp_path, matrix_a_file, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--matrix", matrix_a_file, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "ValidationError: provide --signal or --signal-inline"]
    assert not out.exists()


def test_superscript_inline_signal_exit_two(tmp_path, matrix_a_file):
    out = tmp_path / "c.csv"
    rc = main(["encode", "--matrix", matrix_a_file, "--signal-inline", "0\u00b22",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("digits", ["\u0662\u0662\u0662", "\uff10\uff11\uff12", " 012 "],
                         ids=["arabic", "fullwidth", "outer-spaces"])
def test_inline_signal_takes_ascii_digits_only(tmp_path, matrix_a_file, capsys, digits):
    # float() reads each of these characters as a digit, and strip() would drop the spaces
    out = tmp_path / "c.csv"
    rc = main(["encode", "--matrix", matrix_a_file, "--signal-inline", digits, "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"ValidationError: inline signal character {digits[0]!r} is not a digit\n")


def test_path_with_newline_one_stderr_line(tmp_path, capsys):
    # the message quotes the path, and the path holds a newline
    matrix = tmp_path / "a\nb.json"
    matrix.write_text("{bad")
    out = tmp_path / "c.csv"
    rc = main(["encode", "--matrix", str(matrix), "--signal-inline", "012", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("ValidationError: malformed matrix JSON in ")
    assert "a\\nb.json: " in lines[0]


@pytest.mark.parametrize("argv", [["verify", "--q", "2", "--samples", "200"],
                                  ["kernel-check", "--q", "3", "--samples", "200"]],
                         ids=["verify", "kernel-check"])
def test_report_on_stdout_is_the_out_file(tmp_path, matrix_a_file, capsys, argv):
    out = tmp_path / "report.json"
    argv = argv + ["--matrix", matrix_a_file]
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("argv", [["verify", "--q", "2", "--samples", "200"],
                                  ["kernel-check", "--q", "3", "--samples", "200"]],
                         ids=["verify", "kernel-check"])
def test_empty_out_is_a_path(tmp_path, matrix_a_file, capsys, monkeypatch, argv):
    # only an absent --out prints the report; "" names the working directory
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--matrix", matrix_a_file, "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("IsADirectoryError: ")


@pytest.mark.parametrize("argv,error", [
    (["verify", "--q", "2", "--samples", "200", "--matrix-b", ""], "IsADirectoryError: "),
    (["exchange", "--signal-inline", "012", "--matrix-b", ""], "IsADirectoryError: "),
    (["solve-b", "--numeric", "--masked-out", ""],
     "ValidationError: --masked-out needs --mask-seed"),
    (["solve-b", "--numeric", "--mask-seed", "5", "--masked-out", ""], "IsADirectoryError: "),
], ids=["verify-matrix-b", "exchange-matrix-b", "solve-b-masked-out",
        "solve-b-masked-out-with-seed"])
def test_empty_path_flag_is_a_path(tmp_path, matrix_a_file, capsys, monkeypatch, argv, error):
    # only a flag left out is absent; "" names the working directory, not a file
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"
    assert main(argv + ["--matrix", matrix_a_file, "--out", str(out)]) == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(error)


def test_empty_msg_dir_is_the_working_directory(tmp_path, matrix_a_file, matrix_b_file,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["exchange", "--matrix", matrix_a_file, "--matrix-b", matrix_b_file,
            "--signal-inline", "012"]
    assert main(argv + ["--msg-dir", "", "--out", "t.json"]) == 0
    assert sorted(path.name for path in tmp_path.glob("w*.csv")) == ["w1.csv", "w2.csv", "w3.csv"]
    assert main(argv + ["--out", "t_mem.json"]) == 0
    assert (tmp_path / "t.json").read_bytes() == (tmp_path / "t_mem.json").read_bytes()


class TestVerify:
    def test_reference_matrix_passes(self, tmp_path, matrix_a_file):
        out = tmp_path / "report.json"
        rc = main(["--tol", "1e-10", "verify", "--matrix", matrix_a_file, "--q", "3",
                   "--samples", "200", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["failing"] == []
        assert report["unitarity_defect"] <= 1e-10
        assert report["gram_defect"] <= 1e-10
        assert report["kernel_max_deviation"] <= 1e-10
        assert report["martingale_exp_residual"] <= 1e-10

    def test_reference_companion_fails_at_tight_tol(self, tmp_path, matrix_b_file):
        rc = main(["--tol", "1e-12", "verify", "--matrix", matrix_b_file, "--q", "2"])
        assert rc == 1

    def test_failing_pair_exit_one(self, tmp_path, matrix_a_file, unpaired_b_file, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--matrix", matrix_a_file, "--matrix-b", unpaired_b_file,
                   "--q", "2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "verify failed: pairing_basis_residual, pairing_row_residual"]
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert report["failing"] == ["pairing_basis_residual", "pairing_row_residual"]

    def test_nan_check_fails(self, tmp_path, matrix_a_file, capsys, monkeypatch):
        monkeypatch.setattr(basis, "gram_defect", lambda *args: float("nan"))
        out = tmp_path / "report.json"
        rc = main(["verify", "--matrix", matrix_a_file, "--q", "2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["verify failed: gram_defect"]
        report = json.loads(out.read_text())
        assert report["pass"] is False
        assert report["failing"] == ["gram_defect"]

    def test_tol_after_subcommand(self, matrix_b_file):
        rc = main(["verify", "--matrix", matrix_b_file, "--q", "2", "--tol", "1e-12"])
        assert rc == 1

    def test_pair_report(self, tmp_path, matrix_a_file, matrix_b_file):
        out = tmp_path / "report.json"
        rc = main(["--tol", "1e-7", "verify", "--matrix", matrix_a_file,
                   "--matrix-b", matrix_b_file, "--q", "2", "--samples", "100",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pairing_row_residual"] <= 1e-7
        assert report["pairing_basis_residual"] <= 1e-7

    @pytest.mark.parametrize("n, q", [(3, 6), (5, 4), (8, 3)])
    def test_numeric_companion_session_passes(self, tmp_path, n, q):
        # the benchmark's verify session: a certified numeric companion, then verify the pair
        for seed in range(10):
            a, b, out = (str(tmp_path / f"{name}{seed}.json") for name in ("A", "B", "report"))
            save_matrix(generate_random(n, seed=seed), a)
            codes = [
                main(["solve-b", "--matrix", a, "--numeric", "--mask-seed", str(100 + seed),
                      "--out", b]),
                main(["verify", "--matrix", a, "--matrix-b", b, "--q", str(q), "--out", out]),
            ]
            assert codes == [0, 0], (seed, codes)
            report = json.loads(Path(out).read_text())
            assert report["pass"] is True, (seed, report["failing"])

    def test_verify_session_counts_only_its_transforms(self, tmp_path, monkeypatch):
        # count_multiplies() is q * N^(q+1) summed over the dwt_fast/idwt calls the
        # session makes, the closed form the benchmark's traced self-check compares with
        closed = []
        for module in (series, protocol, cli):
            for name in ("dwt_fast", "idwt"):
                def counted(a, data, transform=getattr(module, name)):
                    closed.append(data.q * data.base ** (data.q + 1))
                    return transform(a, data)

                monkeypatch.setattr(module, name, counted)
        a, b = str(tmp_path / "A.json"), str(tmp_path / "B.json")
        with count_multiplies() as counter:
            for n, q in [(3, 6), (5, 4), (8, 3)]:
                save_matrix(generate_random(n, seed=0), a)
                assert main(["solve-b", "--matrix", a, "--numeric", "--mask-seed", "100",
                             "--out", b]) == 0
                assert main(["verify", "--matrix", a, "--matrix-b", b, "--q", str(q),
                             "--out", str(tmp_path / "report.json")]) == 0
        assert closed and counter.count == sum(closed)


class TestExchange:
    def test_with_explicit_partner(self, tmp_path, matrix_a_file, matrix_b_file, signal_file):
        out = tmp_path / "t.json"
        msg_dir = tmp_path / "msgs"
        rc = main(["exchange", "--matrix", matrix_a_file, "--matrix-b", matrix_b_file,
                   "--signal", signal_file, "--msg-dir", str(msg_dir), "--out", str(out)])
        assert rc == 0
        transcript = load_transcript(out)
        assert transcript.max_error <= 1e-6
        assert not transcript.pairing_violated
        assert sorted(p.name for p in msg_dir.iterdir()) == ["w1.csv", "w2.csv", "w3.csv"]
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "n", "q", "w1", "w2", "w3", "recovered", "max_error", "pairing_violated",
        }

    def test_rerun_into_msg_dir_replaces_messages(self, tmp_path, matrix_a_file, signal_file):
        msg_dir = tmp_path / "msgs"
        args = ["exchange", "--matrix", matrix_a_file, "--r", "0.2", "--signal", signal_file,
                "--msg-dir", str(msg_dir)]
        assert main(args + ["--out", str(tmp_path / "t1.json")]) == 0
        first = {p.name: p.read_bytes() for p in msg_dir.iterdir()}
        assert main(args + ["--out", str(tmp_path / "t2.json")]) == 0
        assert {p.name: p.read_bytes() for p in msg_dir.iterdir()} == first
        assert sorted(first) == ["w1.csv", "w2.csv", "w3.csv"]

    def test_with_derived_partner(self, tmp_path, matrix_a_file, signal_file):
        out = tmp_path / "t.json"
        rc = main(["exchange", "--matrix", matrix_a_file, "--r", "0.2",
                   "--signal", signal_file, "--out", str(out)])
        assert rc == 0
        assert load_transcript(out).max_error <= 1e-6

    def test_with_masked_numeric_partner(self, tmp_path, matrix_a_file, signal_file):
        out = tmp_path / "t.json"
        rc = main(["exchange", "--matrix", matrix_a_file, "--mask-seed", "4",
                   "--seed", "1", "--signal", signal_file, "--out", str(out)])
        assert rc == 0
        assert load_transcript(out).max_error <= 1e-6

    @pytest.mark.parametrize("derive, solve", [
        (["--r", "0.2"], ["--r", "0.2"]),
        (["--r", "0.2", "--branch", "minus"], ["--r", "0.2", "--branch", "minus"]),
        (["--mask-seed", "5"], ["--numeric", "--mask-seed", "5"]),
        (["--mask-seed", "5", "--seed", "3"], ["--numeric", "--mask-seed", "5", "--seed", "3"]),
    ], ids=["r", "r-minus", "mask-seed", "mask-seed-seed"])
    def test_derived_partner_is_solve_b_partner(self, tmp_path, matrix_a_file, signal_file,
                                                derive, solve):
        # exchange derives B on the one path that solve-b writes it
        b = str(tmp_path / "B.json")
        assert main(["solve-b", "--matrix", matrix_a_file, *solve, "--out", b]) == 0
        transcripts = []
        for partner in (derive, ["--matrix-b", b]):
            out = tmp_path / f"t{len(transcripts)}.json"
            assert main(["exchange", "--matrix", matrix_a_file, *partner,
                         "--signal", signal_file, "--out", str(out)]) == 0
            transcripts.append(out.read_bytes())
        assert transcripts[0] == transcripts[1]

    def test_violated_pairing_warns(self, tmp_path, matrix_a_file, unpaired_b_file, signal_file,
                                    capsys):
        out = tmp_path / "t.json"
        rc = main(["exchange", "--matrix", matrix_a_file, "--matrix-b", unpaired_b_file,
                   "--signal", signal_file, "--out", str(out)])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: pairing condition violated")
        assert load_transcript(out).pairing_violated

    def test_partner_required(self, tmp_path, matrix_a_file, signal_file):
        rc = main(["exchange", "--matrix", matrix_a_file, "--signal", signal_file,
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2


# an explicitly given flag that the chosen path never reads
_UNREAD = [
    ["gen-matrix", "--entry", "0.4", "--complex"],
    ["gen-matrix", "--entry", "0.4", "--seed", "3"],
    ["gen-matrix", "--n", "3", "--row", "3", "--branch", "minus"],
    ["solve-b", "--matrix", "{A}", "--numeric", "--branch", "minus"],
    ["solve-b", "--matrix", "{A}", "--r", "0.2", "--seed", "4"],
    ["solve-b", "--matrix", "{A}", "--r", "0.2", "--numeric"],
    ["solve-b", "--matrix", "{A}", "--r", "0.2", "--mask-seed", "5", "--masked-out", "{m}"],
    ["exchange", "--matrix", "{A}", "--matrix-b", "{B}", "--branch", "minus", "--seed", "4",
     "--signal", "{f}"],
    ["exchange", "--matrix", "{A}", "--r", "0.2", "--seed", "4", "--signal", "{f}"],
    ["exchange", "--matrix", "{A}", "--mask-seed", "5", "--branch", "minus", "--signal", "{f}"],
]
_UNREAD_IDS = ["entry-complex", "entry-seed", "n-row-branch", "numeric-branch", "r-seed",
               "r-numeric", "r-mask-seed", "matrix-b-branch-seed", "exchange-r-seed",
               "mask-seed-branch"]

# one process's calls: every exit code, --tol before and after the subcommand
# (and then left out again), the unread-flag rejections, and --help
_SESSION = [
    ["gen-matrix", "--entry", "0.4", "--row", "2", "--branch", "plus", "--out", "{A}"],
    ["--tol", "1e-6", "solve-b", "--matrix", "{A}", "--r", "0.2", "--out", "{B}"],
    ["solve-b", "--matrix", "{A}", "--numeric", "--mask-seed", "5",
     "--masked-out", "{d}/masked.json", "--out", "{d}/Bn.json"],
    ["encode", "--matrix", "{A}", "--signal-inline", rv.SIGNAL_DIGITS, "--tol", "1e-6",
     "--out", "{d}/c.csv"],
    ["decode", "--matrix", "{A}", "--in", "{d}/c.csv", "--out", "{f}"],
    ["gen-matrix", "--entry", "1.0", "--out", "{d}/bad.json"],
    ["solve-b", "--matrix", "{A}", "--r", "0.9", "--out", "{d}/bad.json"],
    ["verify", "--matrix", "{A}", "--matrix-b", "{B}", "--q", "2", "--tol", "1e-20"],
    ["kernel-check", "--matrix", "{A}", "--q", "2", "--samples", "50"],
    ["--tol", "inf", "verify", "--matrix", "{A}", "--q", "2"],
    ["encode", "--bogus", "x"],
    *[argv + ["--out", "{d}/rejected.json"] for argv in _UNREAD],
    ["exchange", "--matrix", "{A}", "--matrix-b", "{B}", "--signal", "{f}",
     "--msg-dir", "{d}/msgs", "--out", "{d}/t.json"],
    ["series", "--matrix", "{A}", "--signal", "{f}", "--k-list", "27,60,300",
     "--out", "{d}/sweep.csv"],
    ["--help"],
    ["exchange", "--help"],
    [],
]


# each kind of argv the parser itself rejects, and a piece of its message
_PARSER_REJECTS = {
    "unknown-flag": (["encode", "--matrix", "{A}", "--signal", "{f}", "--bogus", "x"],
                     "unrecognized arguments: --bogus x"),
    "unknown-argument-with-newline": (["encode", "--matrix", "{A}", "--signal", "{f}", "x\ny"],
                                      "unrecognized arguments: x\\ny"),
    "missing-flag": (["encode", "--signal", "{f}"],
                     "the following arguments are required: --matrix"),
    "missing-subcommand": (["--tol", "1e-6"], "the following arguments are required: subcommand"),
    "unknown-subcommand": (["frobnicate"], "argument subcommand: invalid choice: 'frobnicate'"),
    "bad-type": (["kernel-check", "--matrix", "{A}", "--q", "\u0663"],
                 "argument --q: invalid ascii_int value: '\u0663'"),
    "bad-choice": (["gen-matrix", "--entry", "0.4", "--branch", "sideways"],
                   "argument --branch: invalid choice: 'sideways'"),
    "exclusive-pair": (["encode", "--matrix", "{A}", "--signal", "{f}", "--signal-inline", "012"],
                       "argument --signal-inline: not allowed with argument --signal"),
}


@pytest.mark.parametrize("kind", list(_PARSER_REJECTS))
def test_parser_rejection_is_one_validation_line(tmp_path, matrix_a_file, signal_file, capsys,
                                                 kind):
    # argparse's own error() would print the usage lines before its message; one
    # "--out=" token leaves the missing subcommand missing
    argv, message = _PARSER_REJECTS[kind]
    out = tmp_path / "out"
    paths = {"A": matrix_a_file, "f": signal_file}
    assert main([arg.format(**paths) for arg in argv] + [f"--out={out}"]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("ValidationError: ") and captured.err.count("\n") == 1
    assert message in captured.err


class TestArgumentHandling:
    def test_unknown_flag_rejected(self):
        assert main(["encode", "--bogus", "x"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["encode", "--matrix", "{A}", "--signal", "{f}", "--signal-inline", "012"],
            ["gen-matrix", "--entry", "0.4", "--n", "5"],
            ["exchange", "--matrix", "{A}", "--matrix-b", "{B}", "--r", "0.5", "--mask-seed", "3",
             "--signal", "{f}"],
            # --masked-out has no masked system to write without --mask-seed
            ["solve-b", "--matrix", "{A}", "--numeric", "--masked-out", "{m}"],
        ],
        ids=["signal-and-inline", "entry-and-n", "matrix-b-r-mask-seed",
             "masked-out-without-mask-seed"],
    )
    def test_input_named_twice_rejected(self, tmp_path, matrix_a_file, matrix_b_file,
                                        signal_file, argv):
        masked = tmp_path / "m.json"
        paths = {"A": matrix_a_file, "B": matrix_b_file, "f": signal_file, "m": str(masked)}
        out = tmp_path / "out"
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
        assert not out.exists()
        assert not masked.exists()

    @pytest.mark.parametrize("argv", _UNREAD, ids=_UNREAD_IDS)
    def test_unread_flag_rejected(self, tmp_path, matrix_a_file, matrix_b_file, signal_file,
                                  capsys, argv):
        masked = tmp_path / "m.json"
        paths = {"A": matrix_a_file, "B": matrix_b_file, "f": signal_file, "m": str(masked)}
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 1
        assert not out.exists()
        assert not masked.exists()
        err = capsys.readouterr().err
        assert err.startswith("ValidationError: not read with ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["gen-matrix", "--n", "3", "--seed", "-1"],
        ["kernel-check", "--matrix", "{A}", "--q", "2", "--seed", "-1"],
        ["verify", "--matrix", "{A}", "--q", "2", "--seed", "-1"],
        ["solve-b", "--matrix", "{A}", "--numeric", "--seed", "-2"],
        ["solve-b", "--matrix", "{A}", "--numeric", "--mask-seed", "-1", "--masked-out", "{m}"],
        ["exchange", "--matrix", "{A}", "--mask-seed", "-1", "--signal", "{f}"],
    ], ids=["gen-matrix", "kernel-check", "verify", "solve-b-seed", "solve-b-mask-seed",
            "exchange-mask-seed"])
    def test_negative_seed_rejected(self, tmp_path, matrix_a_file, signal_file, capsys, argv):
        masked = tmp_path / "m.json"
        paths = {"A": matrix_a_file, "f": signal_file, "m": str(masked)}
        out = tmp_path / "out"
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
        assert not out.exists()
        assert not masked.exists()
        err = capsys.readouterr().err
        assert err.startswith("ValidationError: seed must be a non-negative integer")
        assert err.count("\n") == 1

    # NaN and inf are input errors, not numeric failures; "--r=-inf" keeps
    # argparse from reading "-inf" as a flag
    @pytest.mark.parametrize("argv", [
        ["gen-matrix", "--entry", "nan"],
        ["gen-matrix", "--entry", "inf"],
        ["gen-matrix", "--entry=-inf"],
        ["solve-b", "--matrix", "{A}", "--r", "nan"],
        ["solve-b", "--matrix", "{A}", "--r=-inf"],
        ["exchange", "--matrix", "{A}", "--r", "nan", "--signal", "{f}"],
        ["exchange", "--matrix", "{A}", "--r", "inf", "--signal", "{f}"],
    ], ids=["entry-nan", "entry-inf", "entry-minus-inf", "solve-b-nan", "solve-b-minus-inf",
            "exchange-nan", "exchange-inf"])
    def test_non_finite_flag_rejected(self, tmp_path, matrix_a_file, signal_file, capsys, argv):
        out = tmp_path / "out"
        paths = {"A": matrix_a_file, "f": signal_file}
        assert main([arg.format(**paths) for arg in argv] + ["--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("ValidationError: ") and "must be finite" in err
        assert err.count("\n") == 1

    # sizes are bounded (matrix.MAX_N, basis.MAX_SAMPLES) before anything is
    # allocated: 10^17 values would not fit a 57-bit address space, past 2^63
    # bytes numpy's index type overflows, and n = MAX_N + 1 would run Gram-Schmidt
    # for minutes
    @pytest.mark.parametrize("argv", [
        ["gen-matrix", "--n", str(10**17)],
        ["kernel-check", "--matrix", "{A}", "--q", "2", "--samples", str(10**17)],
        ["gen-matrix", "--n", str(10**19)],
        ["gen-matrix", "--n", str(MAX_N + 1)],
        ["kernel-check", "--matrix", "{A}", "--q", "2", "--samples", str(10**18)],
        ["kernel-check", "--matrix", "{A}", "--q", "2", "--samples", str(basis.MAX_SAMPLES + 1)],
    ], ids=["gen-matrix-n", "kernel-check-samples", "gen-matrix-n-past-index-range",
            "gen-matrix-n-over-limit", "kernel-check-samples-past-index-range",
            "kernel-check-samples-over-limit"])
    def test_unallocatable_size_rejected(self, tmp_path, matrix_a_file, capsys, argv):
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main([arg.format(A=matrix_a_file) for arg in argv] + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(("BadDimensionError: base must be between 2 and ",
                               "ValidationError: samples must be between 1 and "))
        assert err.count("\n") == 1

    def test_cached_parser_matches_fresh(self, tmp_path, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()

        def session(d):
            paths = {"A": f"{d}/A.json", "B": f"{d}/B.json", "f": f"{d}/f.csv", "d": d,
                     "m": f"{d}/m.json"}
            runs = []
            for argv in _SESSION:
                rc = main([arg.format(**paths) for arg in argv])
                out, err = capsys.readouterr()
                runs.append((rc, out.replace(str(d), "D"), err.replace(str(d), "D")))
            files = {str(f.relative_to(d)): f.read_bytes() for f in d.rglob("*") if f.is_file()}
            return runs, files

        (tmp_path / "cached").mkdir()
        (tmp_path / "fresh").mkdir()
        cached = session(tmp_path / "cached")
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = session(tmp_path / "fresh")
        assert cached == fresh
        codes = [rc for rc, _, _ in cached[0]]
        assert {0, 1, 2} <= set(codes)
        assert codes[:5] == [0, 0, 0, 0, 0] and codes[-3:] == [0, 0, 2]
        assert all(err.count("\n") == 1 for rc, _, err in cached[0] if rc == 2)

    def test_dispatch_reads_current_command(self, monkeypatch):
        # a tracer rebinds cmd_* after the parser is cached; main must call the new one
        cli.build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_decode", lambda args: calls.append(args.in_path) or 0)
        assert main(["decode", "--matrix", "A.json", "--in", "c.csv", "--out", "g.csv"]) == 0
        assert calls == ["c.csv"]

    def test_unknown_subcommand_rejected(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gwalsh" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path, matrix_a_file, signal_file):
        result = subprocess.run(
            [sys.executable, "-m", "gwalsh", "encode", "--matrix", matrix_a_file,
             "--signal", signal_file, "--out", str(tmp_path / "c.csv")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "c.csv").exists()

    def test_identical_flags_identical_bytes(self, tmp_path, matrix_a_file, signal_file):
        first = tmp_path / "s1.csv"
        second = tmp_path / "s2.csv"
        args = ["series", "--matrix", matrix_a_file, "--signal", signal_file,
                "--k-list", "1,3,9,27"]
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_import_loads_no_executor_modules():
    # concurrent.futures pulls in logging (about 11 ms of start-up); the
    # transforms start plain threads instead
    code = ("import sys, gwalsh.cli\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _workflow_run_block(step: str) -> str:
    """The ``run:`` block of the CI workflow step named ``step``, dedented."""
    workflow = Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {step}")
    run = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def test_ci_console_script_step_runs(tmp_path):
    # the workflow holds the one copy of these commands and their cmp checks (the
    # README session, the one-CPU bytes, the in-memory against the --msg-dir
    # transcripts); this runs them as CI does, under bash -e
    missing = [tool for tool in ("bash", "taskset", "cmp") if shutil.which(tool) is None]
    assert not missing, f"the console-script step needs {missing}"
    script = tmp_path / "step.sh"
    script.write_text(_workflow_run_block("Console script smoke (README session)"),
                      encoding="utf-8")
    shims = tmp_path / "bin"
    shims.mkdir()
    commands = {"python": f'exec "{sys.executable}" "$@"\n'}
    if shutil.which("gwalsh") is None:  # no console script installed: run the module
        commands["gwalsh"] = f'exec "{sys.executable}" -m gwalsh "$@"\n'
    for name, command in commands.items():
        (shims / name).write_text("#!/bin/sh\n" + command)
        (shims / name).chmod(0o755)
    source = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PATH=f"{shims}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])),
               TMPDIR=str(tmp_path))  # the step's mktemp -d lands here
    result = subprocess.run(["bash", "-e", str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, (result.stdout[-2000:], result.stderr[-2000:])
