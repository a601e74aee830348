import json
import subprocess
import sys

import numpy as np
import pytest

import reference_values as rv
from gwalsh import basis, cli, load_matrix, load_transcript, save_matrix
from gwalsh.cli import main
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


class TestKernelCheck:
    def test_passes_for_reference_matrix(self, tmp_path, matrix_a_file):
        out = tmp_path / "kc.json"
        rc = main(["kernel-check", "--matrix", matrix_a_file, "--q", "3",
                   "--samples", "200", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["max_deviation"] <= 1e-9


class TestCheckBoundaries:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--q", "0"],
            ["kernel-check", "--q", "0"],
            ["kernel-check", "--q", "3", "--samples", "0"],
            ["kernel-check", "--q", "40"],  # 3^40 cells exceed 2^53
            ["verify", "--q", "8"],  # 3^8 cells exceed MAX_GRID = 2048
        ],
        ids=["verify-q0", "kernel-check-q0", "samples0", "cells-over-2^53", "verify-over-grid"],
    )
    def test_rejected_with_exit_two(self, tmp_path, matrix_a_file, argv):
        out = tmp_path / "report.json"
        assert main(argv + ["--matrix", matrix_a_file, "--out", str(out)]) == 2
        assert not out.exists()

    def test_verify_limits_q_itself(self, tmp_path, matrix_a_file, monkeypatch):
        # a gram_defect without the MAX_GRID cap must not let verify allocate 3^13 cells
        monkeypatch.setattr(basis, "gram_defect", lambda a, q: 0.0)

        def no_signal(*args, **kwargs):
            raise AssertionError("verify built its N^q-cell signal")

        monkeypatch.setattr(cli, "random_signal", no_signal)
        out = tmp_path / "report.json"
        argv = ["verify", "--matrix", matrix_a_file, "--q", "13", "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()


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
        ],
        ids=["N=x", "N=1", "N=0", "q=-1", "nan", "underscore", "spaced-pair", "arabic-digit",
             "huge-q"],
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


class TestMalformedMatrix:
    @pytest.mark.parametrize(
        "payload",
        [
            {"entries": 3},
            {"entries": [[0.5, "x"], [0.5, -0.5]]},
            {"n": "z", "entries": rv.MATRIX_A.tolist()},
        ],
        ids=["entries-int", "entry-str", "n-str"],
    )
    def test_encode_exit_two(self, tmp_path, payload):
        matrix = tmp_path / "A.json"
        matrix.write_text(json.dumps(payload))
        out = tmp_path / "c.csv"
        rc = main(["encode", "--matrix", str(matrix), "--signal-inline", "012",
                   "--out", str(out)])
        assert rc == 2
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


def test_superscript_inline_signal_exit_two(tmp_path, matrix_a_file):
    out = tmp_path / "c.csv"
    rc = main(["encode", "--matrix", matrix_a_file, "--signal-inline", "0\u00b22",
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()


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

    def test_partner_required(self, tmp_path, matrix_a_file, signal_file):
        rc = main(["exchange", "--matrix", matrix_a_file, "--signal", signal_file,
                   "--out", str(tmp_path / "t.json")])
        assert rc == 2


class TestArgumentHandling:
    def test_unknown_flag_rejected(self):
        assert main(["encode", "--bogus", "x"]) == 2

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
