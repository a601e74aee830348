import json
from pathlib import Path

import numpy as np
import pytest

import reference_values as rv
from gwalsh import (
    CoefficientVector,
    IncompatibleGridsError,
    ResolutionTooCoarseError,
    Signal,
    ValidationError,
    ZeroSignalError,
    cell_average,
    convergence_sweep,
    count_multiplies,
    dwt_fast,
    generate_random,
    idwt,
    load_matrix,
    martingale_check,
    norm_bound_check,
    partial_sum,
    random_signal,
    write_sweep_csv,
)
from gwalsh import series
from gwalsh.cli import main
from gwalsh.series import sweep_to_csv
from gwalsh.transform import read_signal

FIXTURES = Path(__file__).parent / "fixtures"


README_K_LIST = [27, 36, 60, 81, 100, 200, 241, 300]


def per_k_sweep(a, s, k_list, q_eval):
    """Oracle: the sweep as one averaging and one analysis per truncation."""
    reports = []
    for k in sorted(set(k_list)):
        averaged = cell_average(s, q_eval, base=a.n)
        if k == len(averaged):
            values = averaged.values
        else:
            coeffs = dwt_fast(a, averaged).coeffs.copy()
            coeffs[k:] = 0
            values = idwt(a, CoefficientVector(base=a.n, q=q_eval, coeffs=coeffs)).values
        cells = np.lcm(len(values), len(s))  # both refined per k
        diff = np.abs(np.repeat(values, cells // len(values)) - np.repeat(s.values, cells // len(s)))
        sup, l1, l2 = float(diff.max()), float(diff.mean()), float(np.sqrt((diff**2).mean()))
        reports.append(series.PartialSumReport(k, a.n, q_eval, values, sup, l1, l2))
    return reports


def _common_max_dev(u, base_u, v, base_v):
    cells = np.lcm(len(u), len(v))
    return np.abs(np.repeat(u, cells // len(u)) - np.repeat(v, cells // len(v))).max()


class TestCellAverage:
    def test_global_mean(self, signal_f):
        avg = cell_average(signal_f, 0)
        assert avg.values[0] == pytest.approx(rv.SIGNAL_MEAN, abs=1e-14)

    def test_identity_at_own_resolution(self, signal_f):
        avg = cell_average(signal_f, 3)
        assert np.array_equal(avg.values, signal_f.values)

    def test_cross_base_against_integer_oracle(self, dyadic_step):
        # oracle: integer refinement of the 16-cell signal to the 432-cell
        # common grid, averaged in exact arithmetic over each triadic cell
        avg = cell_average(dyadic_step, 3, base=3)
        fine = np.repeat(rv.DYADIC_STEP, 27)  # 432 cells
        oracle = fine.reshape(27, 16).sum(axis=1) / 16.0
        np.testing.assert_allclose(avg.values, oracle, atol=1e-15)

    def test_coarsen_one_level(self):
        s = Signal.from_values(3, np.arange(9.0))
        avg = cell_average(s, 1)
        np.testing.assert_allclose(avg.values, [1.0, 4.0, 7.0], atol=1e-15)

    def test_grid_guard(self, dyadic_step):
        with pytest.raises(IncompatibleGridsError):
            cell_average(dyadic_step, 13, base=3)


class TestPartialSum:
    def test_full_truncation_reproduces_signal(self, matrix_a, signal_f):
        report = partial_sum(matrix_a, signal_f, 27, 3)
        assert report.sup_error == 0.0
        assert np.array_equal(report.values, signal_f.values)

    def test_full_truncation_through_transform(self, matrix_a, signal_f):
        # evaluated one level finer, the transform actually runs
        report = partial_sum(matrix_a, signal_f, 27, 4)
        assert report.sup_error <= 1e-10
        assert len(report.values) == 81

    def test_k_one_is_the_mean(self, matrix_a, signal_f):
        report = partial_sum(matrix_a, signal_f, 1, 3)
        np.testing.assert_allclose(report.values, np.full(27, rv.SIGNAL_MEAN), atol=1e-12)

    def test_cross_base_power_truncations(self, matrix_a, dyadic_step):
        for k, q in [(27, 3), (81, 4)]:
            report = partial_sum(matrix_a, dyadic_step, k, 6)
            avg = cell_average(dyadic_step, q, base=3)
            assert _common_max_dev(report.values, 3, avg.values, 3) <= 1e-9

    def test_idempotence(self, matrix_a, dyadic_step):
        first = partial_sum(matrix_a, dyadic_step, 27, 4)
        again = partial_sum(
            matrix_a, Signal(base=3, q=4, values=first.values), 27, 4
        )
        assert _common_max_dev(first.values, 3, again.values, 3) <= 1e-12

    def test_monotone_refinement_for_measurable_signal(self, matrix_a):
        s = random_signal(3, 3, seed=21)
        sups = [partial_sum(matrix_a, s, 3**q, 3).sup_error for q in range(4)]
        assert all(sups[i] >= sups[i + 1] - 1e-12 for i in range(3))
        assert sups[3] == 0.0
        # beyond the signal resolution the expansion stays exact
        assert partial_sum(matrix_a, s, 3**4, 4).sup_error == 0.0

    def test_resolution_too_coarse(self, matrix_a, signal_f):
        with pytest.raises(ResolutionTooCoarseError):
            partial_sum(matrix_a, signal_f, 28, 3)  # W_27 needs resolution 4
        with pytest.raises(ResolutionTooCoarseError):
            partial_sum(matrix_a, signal_f, 9, 2)  # below the signal resolution

    def test_bad_truncation(self, matrix_a, signal_f):
        with pytest.raises(Exception):
            partial_sum(matrix_a, signal_f, 0, 3)

    @pytest.mark.parametrize("k", [5.5, 27.0, True, "5"], ids=["fraction", "whole-float",
                                                              "bool", "str"])
    def test_non_integer_truncation_rejected(self, matrix_a, signal_f, k):
        # 5.5 used to fail in a slice with a bare TypeError; 27.0 gave a report with k = 27.0
        with pytest.raises(ValidationError, match="truncation k must be an integer"):
            partial_sum(matrix_a, signal_f, k, 3)

    def test_numpy_integer_truncation(self, matrix_a, signal_f):
        report = partial_sum(matrix_a, signal_f, np.int64(9), 3)
        assert type(report.k) is int
        assert np.array_equal(report.values, partial_sum(matrix_a, signal_f, 9, 3).values)

    @pytest.mark.parametrize("q_eval", [True, 2.0, "2"], ids=["bool", "float", "str"])
    def test_non_integer_q_eval_rejected(self, matrix_a, signal_f, q_eval):
        # True is not 1: it fails as a type, not as "q_eval=True too coarse"
        with pytest.raises(ValidationError, match="q_eval must be an integer"):
            partial_sum(matrix_a, signal_f, 5, q_eval)
        with pytest.raises(ValidationError, match="q_eval must be an integer"):
            convergence_sweep(matrix_a, signal_f, [5], q_eval)

    @pytest.mark.parametrize("kind", [np.uint8, np.int64])
    def test_numpy_integer_q_eval(self, matrix_a, signal_f, kind):
        report = partial_sum(matrix_a, signal_f, 5, kind(4))
        want = partial_sum(matrix_a, signal_f, 5, 4)
        assert type(report.q_eval) is int
        assert report.values.tobytes() == want.values.tobytes()
        swept = convergence_sweep(matrix_a, signal_f, [5, 81], kind(4))
        assert [type(r.q_eval) for r in swept] == [int, int]
        want = convergence_sweep(matrix_a, signal_f, [5, 81], 4)
        assert sweep_to_csv(swept) == sweep_to_csv(want)


class TestMartingale:
    def test_randomized_suite(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            base = int(rng.integers(2, 4))
            q_sig = int(rng.integers(1, 4))
            a = generate_random(base, seed=200 + trial)
            s = random_signal(base, q_sig, seed=300 + trial)
            for q in range(q_sig):
                report = martingale_check(a, s, q)
                assert report.exp_residual <= 1e-10
                assert report.tower_residual <= 1e-10

    def test_exact_zero_at_signal_resolution(self, matrix_a, signal_f):
        report = martingale_check(matrix_a, signal_f, 3)
        assert report.exp_residual == 0.0

    def test_cross_base(self, matrix_a, dyadic_step):
        for q in (1, 2, 3):
            report = martingale_check(matrix_a, dyadic_step, q)
            assert report.exp_residual <= 1e-10
            assert report.tower_residual <= 1e-10


class TestNormBounds:
    def test_contraction_randomized(self):
        rng = np.random.default_rng(55)
        for trial in range(25):
            base = int(rng.integers(2, 4))
            a = generate_random(base, seed=400 + trial)
            s = Signal(base=base, q=3, values=rng.standard_normal(base**3))
            for q in (0, 1, 2, 3):
                report = norm_bound_check(a, s, q)
                assert report.l1_ratio <= 1 + 1e-12
                assert report.linf_ratio <= 1 + 1e-12

    def test_measurable_signal_fixed(self, matrix_a, signal_f):
        report = norm_bound_check(matrix_a, signal_f, 3)
        assert report.l1_ratio == pytest.approx(1.0, abs=1e-12)
        assert report.linf_ratio == pytest.approx(1.0, abs=1e-12)

    def test_alternating_signal_contracts_strictly(self, matrix_a):
        s = Signal(base=3, q=3, values=np.resize([1.0, -1.0], 27))
        report = norm_bound_check(matrix_a, s, 1)
        assert report.l1_ratio < 1.0

    def test_zero_signal(self, matrix_a):
        with pytest.raises(ZeroSignalError):
            norm_bound_check(matrix_a, Signal.from_values(3, np.zeros(27)), 1)


class TestConvergenceSweep:
    def test_rows_sorted_and_zero_at_full_truncation(self, matrix_a, signal_f):
        reports = convergence_sweep(matrix_a, signal_f, [81, 27, 3], 4)
        assert [r.k for r in reports] == [3, 27, 81]
        full = next(r for r in reports if r.k == 27)
        assert full.sup_error <= 1e-10

    def test_cross_base_regression_fixture(self, matrix_a, dyadic_step):
        payload = json.loads((FIXTURES / "cross_base_sweep.json").read_text())
        k_list = [row["k"] for row in payload["rows"]]
        reports = convergence_sweep(matrix_a, dyadic_step, k_list, payload["q_eval"])
        for report, row in zip(reports, payload["rows"]):
            assert report.k == row["k"]
            assert report.sup_error == pytest.approx(row["sup_error"], abs=1e-12)
            assert report.l1_error == pytest.approx(row["l1_error"], abs=1e-12)
            assert report.l2_error == pytest.approx(row["l2_error"], abs=1e-12)

    def test_intermediate_truncations_are_worse_in_l1_l2(self, matrix_a, dyadic_step):
        # between the two exact power-of-3 truncations, the expansion is
        # strictly worse in the integrated norms (the sup norm is not
        # monotone here: k=60 happens to dip below k=81)
        reports = {r.k: r for r in convergence_sweep(matrix_a, dyadic_step, [36, 60, 81], 6)}
        for k in (36, 60):
            assert reports[k].l1_error > reports[81].l1_error
            assert reports[k].l2_error > reports[81].l2_error

    def test_csv_format(self, matrix_a, signal_f, tmp_path):
        reports = convergence_sweep(matrix_a, signal_f, [1, 27], 3)
        text = sweep_to_csv(reports)
        lines = text.splitlines()
        assert lines[0] == "k,sup_error,l1_error,l2_error"
        assert lines[1].startswith("1,")
        assert len(lines) == 3
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        assert path.read_text() == text

    def test_equals_one_analysis_per_truncation(self, matrix_a, signal_f, dyadic_step):
        payload = json.loads((FIXTURES / "cross_base_sweep.json").read_text())
        cases = [
            (signal_f, README_K_LIST, 6),
            (dyadic_step, [row["k"] for row in payload["rows"]], payload["q_eval"]),
            (random_signal(3, 7, seed=5), [3**7, 1, 500, 3**7 - 1, 81], 7),
        ]
        for s, k_list, q_eval in cases:
            got = convergence_sweep(matrix_a, s, k_list, q_eval)
            want = per_k_sweep(matrix_a, s, k_list, q_eval)
            assert sweep_to_csv(got) == sweep_to_csv(want)
            for report, oracle in zip(got, want):
                assert np.array_equal(report.values, oracle.values)

    def test_readme_session_csv(self, tmp_path):
        a_path, c_path, f_path, out = (str(tmp_path / name)
                                       for name in ("A.json", "c.csv", "f.csv", "sweep.csv"))
        assert main(["gen-matrix", "--entry", "0.4", "--row", "2", "--branch", "plus",
                     "--out", a_path]) == 0
        assert main(["encode", "--matrix", a_path, "--signal-inline",
                     "000110000011111110002222222", "--out", c_path]) == 0
        assert main(["decode", "--matrix", a_path, "--in", c_path, "--out", f_path]) == 0
        assert main(["series", "--matrix", a_path, "--signal", f_path, "--k-list",
                     ",".join(map(str, README_K_LIST)), "--out", out]) == 0
        want = per_k_sweep(load_matrix(a_path), read_signal(f_path), README_K_LIST, 6)
        assert Path(out).read_text() == sweep_to_csv(want)

    @pytest.mark.parametrize("signal,k_list,least", [
        ("signal_f", README_K_LIST, 6),
        ("signal_f", [5, 9], 3),  # the signal's own q beats W_8's resolution 2
        ("signal_f", [9, 81], 4),  # the largest k a power of N: W_80 has 4 digits
        ("dyadic_step", [36, 60], 4),  # cross base: W_n's resolution alone
        ("dyadic_step", [1], 1),
    ], ids=["readme", "signal-q", "power-of-n", "cross-base", "k-one"])
    def test_default_q_eval_is_the_least_that_passes(self, request, matrix_a, signal, k_list,
                                                     least):
        s = request.getfixturevalue(signal)
        reports = convergence_sweep(matrix_a, s, k_list)
        assert {r.q_eval for r in reports} == {least}
        assert sweep_to_csv(reports) == sweep_to_csv(convergence_sweep(matrix_a, s, k_list, least))
        with pytest.raises(ResolutionTooCoarseError):
            convergence_sweep(matrix_a, s, k_list, least - 1)

    @pytest.mark.parametrize("k_list,syntheses", [
        (README_K_LIST, 8), ([1, 27, 729], 2), ([729, 728], 1), ([729], 0),
    ])
    def test_one_analysis_per_sweep(self, matrix_a, signal_f, k_list, syntheses):
        # q_eval = 6: the truncation k = 3^6 is the cell average, no transform
        with count_multiplies() as counter:
            convergence_sweep(matrix_a, signal_f, k_list, 6)
        analyses = 1 if syntheses else 0
        assert counter.count == (analyses + syntheses) * 6 * 3**7

    @pytest.mark.parametrize("k_list", [[2.7, 9.9], ["5"], [3, 9.0], [True, 3]],
                             ids=["fractions", "str", "whole-float", "bool"])
    def test_non_integer_truncations_rejected(self, matrix_a, signal_f, k_list):
        # int(k) used to run [2.7, 9.9] as k = 2 and 9, and accept "5"
        with pytest.raises(ValidationError, match="truncation k must be an integer"):
            convergence_sweep(matrix_a, signal_f, k_list, 3)

    def test_numpy_integer_truncations_reported_as_ints(self, matrix_a, signal_f):
        reports = convergence_sweep(matrix_a, signal_f, [np.int64(27), np.int32(3), 9], 3)
        assert [(type(r.k), r.k) for r in reports] == [(int, 3), (int, 9), (int, 27)]
        assert sweep_to_csv(reports) == sweep_to_csv(
            convergence_sweep(matrix_a, signal_f, [27, 3, 9], 3))

    @pytest.mark.parametrize("k_list,q_eval,error,text", [
        ([0, 5], 4, ValidationError, "at least 1, got 0"),
        ([5, 100, 300], 4, ResolutionTooCoarseError, "n < 100 need resolution 5"),
        # k = 5 fits q_eval = 2 but the signal does not; k = 100 fits neither
        ([5, 100], 2, ResolutionTooCoarseError, "below the signal resolution 3"),
    ])
    def test_bad_truncation_raises_as_per_k(self, matrix_a, signal_f, k_list, q_eval, error,
                                            text):
        # the checks run per k in ascending order, as one partial_sum per k ran them
        with pytest.raises(error, match=text):
            convergence_sweep(matrix_a, signal_f, k_list, q_eval)
