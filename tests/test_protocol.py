import asyncio
import struct
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_values as rv
from gwalsh import (
    CoefficientVector,
    DimensionMismatchError,
    DirectoryChannel,
    InMemoryChannel,
    NoConvergenceError,
    NoRealSolutionError,
    Signal,
    ValidationError,
    companion_family,
    generate_random,
    grid_matrix,
    load_masked_system,
    load_transcript,
    mask_constraints,
    pairing_check_basis,
    pairing_check_rows,
    random_signal,
    run_exchange,
    save_masked_system,
    save_transcript,
    solve_companion,
    solve_companion_numeric,
    validate,
)
from gwalsh.protocol import masked_system_from_list, transcript_from_dict, transcript_to_dict
from gwalsh.transform import read_coefficients, read_signal


def rotated_partner(a, angle):
    """Unitary constant-first-row matrix violating the pairing condition.

    Rotating (rather than reflecting) A's rows 1 and 2 inside their plane
    gives a valid matrix whose pairing residual against A is exactly
    2*|sin(angle)|.
    """
    u, w = a.entries[1], a.entries[2]
    c, s = np.cos(angle), np.sin(angle)
    rows = a.entries.copy()
    rows[1], rows[2] = c * u - s * w, s * u + c * w
    return validate(rows, tol=1e-10)


def phased_partner(a, phases):
    """A with non-constant row l multiplied by phases[l - 1].

    The result is unitary with a constant first row, and it pairs with A
    only when every phase is real: <B_l, A_l> = phases[l - 1].
    """
    return validate(np.vstack([a.entries[:1], np.asarray(phases)[:, None] * a.entries[1:]]),
                    tol=1e-10)


def row_inner(a, b, l, k):
    """Sum over j of B[l, j] * conj(A[k, j]): B's row l against A's row k."""
    return (b.entries[l] * np.conj(a.entries[k])).sum()


def loop_pairing_check(a, b, tol):
    """Oracle: the row check as a double loop over row inner products.

    The pairs l < k are visited in row-major order and the last maximal one
    is named; a diagonal pair, which binds only complex matrices, is named
    only when it is strictly worse than every pair l < k.
    """
    worst_pair, worst = None, 0.0
    for l in range(1, a.n):
        for k in range(l + 1, a.n):
            residual = abs(row_inner(a, b, l, k) - row_inner(b, a, l, k))
            if residual >= worst:
                worst_pair, worst = (l, k), float(residual)
    for l in range(1, a.n):
        residual = abs(row_inner(a, b, l, l) - row_inner(b, a, l, l))
        if residual > worst:
            worst_pair, worst = (l, l), float(residual)
    return worst <= tol, worst_pair, worst


class TestPairingRows:
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_matches_row_inner_loop(self, n, complex_entries):
        for seed in range(6):
            a = generate_random(n, seed=seed, complex_entries=complex_entries)
            partners = [solve_companion_numeric(a, seed=seed + 1),
                        generate_random(n, seed=seed + 50, complex_entries=complex_entries)]
            if n > 2:
                partners.append(rotated_partner(a, 0.1 + seed))
            if complex_entries:
                partners.append(phased_partner(a, np.exp(1j * np.arange(1, n))))
            for b in partners:
                report = pairing_check_rows(a, b, tol=1e-8)
                holds, pair, worst = loop_pairing_check(a, b, tol=1e-8)
                assert report.holds == holds
                # the matrix product and the loop sum the same N products in
                # different orders
                assert abs(report.worst_residual - worst) <= 4 * n * np.finfo(float).eps
                if not holds:
                    assert (report.worst_pair.l, report.worst_pair.k) == pair
            # the companion holds; the last partner, rotated or phased, violates
            assert pairing_check_rows(a, partners[0], tol=1e-8).holds
            assert (n == 2 and not complex_entries) or not report.holds

    def test_ties_name_the_last_pair(self):
        # entries +-1/2 make every residual exact, so the pairs l < k tie
        a = validate(0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                                     [1, -1, -1, 1]]), tol=1e-12)
        cycled = validate(a.entries[[0, 2, 3, 1]], tol=1e-12)
        for b, worst in ((a, 0.0), (cycled, 1.0)):
            report = pairing_check_rows(a, b, tol=1e-8)
            assert report.worst_residual == worst
            assert (report.worst_pair.l, report.worst_pair.k) == (2, 3)

    def test_complex_diagonal_violation(self):
        # <B_1, A_1> = i is not real: only the diagonal pair (1, 1) fails
        a = generate_random(3, seed=4, complex_entries=True)
        b = phased_partner(a, [1j, 1])
        report = pairing_check_rows(a, b, tol=1e-8)
        assert not report.holds
        assert report.worst_residual == pytest.approx(2.0, abs=1e-12)
        assert (report.worst_pair.l, report.worst_pair.k) == (1, 1)
        assert pairing_check_basis(a, b, q=1).worst_residual == pytest.approx(2.0, abs=1e-12)

    def test_complex_two_point_systems_can_fail(self):
        a = generate_random(2, seed=0, complex_entries=True)
        report = pairing_check_rows(a, phased_partner(a, [1j]), tol=1e-8)
        assert not report.holds
        assert report.worst_residual == pytest.approx(2.0, abs=1e-12)
        assert (report.worst_pair.l, report.worst_pair.k) == (1, 1)

    def test_dimension_mismatch(self, matrix_a):
        with pytest.raises(DimensionMismatchError):
            pairing_check_rows(matrix_a, generate_random(4, seed=0))

    def test_self_pair_holds(self, matrix_a):
        report = pairing_check_rows(matrix_a, matrix_a, tol=1e-12)
        assert report.holds
        assert report.worst_residual == 0.0
        assert (report.worst_pair.l, report.worst_pair.k) == (1, 2)

    def test_reference_pair_holds(self, matrix_a, matrix_b):
        report = pairing_check_rows(matrix_a, matrix_b, tol=1e-7)
        assert report.holds
        assert report.worst_residual <= 1e-7

    def test_row_swap_is_a_companion(self, matrix_a):
        # swapping the two non-constant rows is a reflection in the row
        # frame, so it satisfies the pairing condition exactly
        swapped = validate(matrix_a.entries[[0, 2, 1]], tol=1e-10)
        report = pairing_check_rows(matrix_a, swapped, tol=1e-12)
        assert report.holds

    def test_rotated_pair_fails_predictably(self, matrix_a):
        for angle in (0.05, 0.4, 1.1):
            partner = rotated_partner(matrix_a, angle)
            report = pairing_check_rows(matrix_a, partner, tol=1e-8)
            assert not report.holds
            assert report.worst_residual == pytest.approx(2 * abs(np.sin(angle)), abs=1e-12)

    def test_two_point_systems_always_pair(self):
        a = generate_random(2, seed=0)
        b = generate_random(2, seed=1)
        report = pairing_check_rows(a, b, tol=1e-12)
        assert report.holds
        assert report.worst_pair is None


class TestPairingBasis:
    def test_forward_direction_family_pairs(self, matrix_a):
        rng = np.random.default_rng(17)
        family = companion_family(matrix_a)
        for _ in range(25):
            r = float(rng.uniform(-family.admissible_bound, family.admissible_bound))
            b = family.member(r)
            report = pairing_check_basis(matrix_a, b, q=2, tol=1e-8)
            assert report.holds

    def test_converse_direction_failure_at_single_digit_pair(self, matrix_a):
        partner = rotated_partner(matrix_a, 0.2)
        assert pairing_check_rows(matrix_a, partner, tol=1e-8).worst_residual >= 1e-2
        report = pairing_check_basis(matrix_a, partner, q=2, tol=1e-3)
        assert not report.holds
        assert report.worst_residual >= 1e-3
        # the violation already shows on the degree-one functions
        level_one = pairing_check_basis(matrix_a, partner, q=1, tol=1e-3)
        assert not level_one.holds
        assert all(index < 3 for index in level_one.worst_indices)

    def test_level_one_matches_row_residual(self, matrix_a):
        c = generate_random(3, seed=4, complex_entries=True)
        for a, partner in ((matrix_a, rotated_partner(matrix_a, 0.13)),
                           (c, phased_partner(c, [np.exp(0.3j), 1])),
                           (c, generate_random(3, seed=8, complex_entries=True))):
            rows = pairing_check_rows(a, partner, tol=1e-8)
            basis_level = pairing_check_basis(a, partner, q=1, tol=1e-8)
            assert basis_level.worst_residual == pytest.approx(rows.worst_residual, abs=1e-12)

    def test_index_zero_pairs_always_agree(self, matrix_a):
        # both sides reduce to inner products against the constant function,
        # so the residual vanishes on row 0 and column 0 even when the
        # pairing fails everywhere else
        partner = rotated_partner(matrix_a, 0.7)
        width = 9
        ga = grid_matrix(matrix_a, 2)
        gb = grid_matrix(partner, 2)
        residual = np.abs((gb @ ga.T) / width - (ga @ gb.T) / width)
        assert residual[0, :].max() <= 1e-12
        assert residual[:, 0].max() <= 1e-12
        assert residual.max() > 1e-2

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("pairs", [True, False], ids=["holding", "violated"])
    def test_one_product_matches_two_product_oracle(self, complex_entries, pairs):
        a = generate_random(4, seed=3, complex_entries=complex_entries)
        b = (solve_companion_numeric(a, seed=5) if pairs
             else generate_random(4, seed=9, complex_entries=complex_entries))
        report = pairing_check_basis(a, b, q=2, tol=1e-8)
        ga, gb = grid_matrix(a, 2), grid_matrix(b, 2)
        oracle = np.abs((gb @ ga.conj().T) / 16 - (ga @ gb.conj().T) / 16)
        assert report.holds == pairs == (oracle.max() <= 1e-8)
        assert report.worst_residual == pytest.approx(oracle.max(), rel=1e-12, abs=1e-15)
        assert oracle[report.worst_indices] == pytest.approx(oracle.max(), rel=1e-12, abs=1e-15)


class TestSolveCompanion:
    def test_reproduces_reference_matrix(self, matrix_a):
        b = solve_companion(matrix_a, 0.2, branch="plus")
        np.testing.assert_allclose(b.entries[1], rv.MATRIX_B_ROW1, atol=1e-7)
        np.testing.assert_allclose(b.entries[2], rv.MATRIX_B_ROW2, atol=1e-7)

    def test_free_parameter_pinned_exactly(self, matrix_a):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = float(rng.uniform(-0.8, 0.8))
            b = solve_companion(matrix_a, r)
            assert b.entries[2, 2] == r

    def test_branches_coincide_at_boundary(self, matrix_a):
        r = np.sqrt(2.0 / 3.0)
        plus = solve_companion(matrix_a, r, branch="plus")
        minus = solve_companion(matrix_a, r, branch="minus")
        np.testing.assert_allclose(plus.entries, minus.entries, atol=1e-12)

    def test_branches_differ_inside(self, matrix_a):
        plus = solve_companion(matrix_a, 0.2, branch="plus")
        minus = solve_companion(matrix_a, 0.2, branch="minus")
        assert np.abs(plus.entries - minus.entries).max() > 0.1
        assert pairing_check_rows(matrix_a, minus, tol=1e-10).holds

    def test_no_real_solution(self, matrix_a):
        with pytest.raises(NoRealSolutionError):
            solve_companion(matrix_a, 0.9)

    def test_arbitrary_base_matrices(self):
        rng = np.random.default_rng(9)
        for seed in range(15):
            a = generate_random(3, seed=seed)
            r = float(rng.uniform(-0.8, 0.8))
            b = solve_companion(a, r, branch="minus" if seed % 2 else "plus")
            assert b.unitarity_defect() <= 1e-10
            assert pairing_check_rows(a, b, tol=1e-10).holds

    def test_requires_real_3x3(self, matrix_a):
        with pytest.raises(ValidationError):
            solve_companion(generate_random(4, seed=0), 0.1)
        with pytest.raises(ValidationError):
            solve_companion(generate_random(3, seed=0, complex_entries=True), 0.1)


class TestCompanionFamily:
    def test_admissible_bound(self, matrix_a):
        family = companion_family(matrix_a)
        assert family.admissible_bound == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        lo, hi = family.admissible_range
        assert lo == -hi

    def test_members_valid_and_paired(self, matrix_a):
        family = companion_family(matrix_a, branch="minus")
        for r in np.linspace(-0.8, 0.8, 9):
            member = family.member(float(r))
            assert member.unitarity_defect() <= 1e-8
            assert pairing_check_rows(matrix_a, member, tol=1e-8).holds


class TestMaskConstraints:
    def test_single_equation_for_base_three(self, matrix_a):
        masked = mask_constraints(matrix_a, mask_seed=5)
        assert masked.n == 3
        assert len(masked.equations) == 1
        assert set(masked.equations[0].coeffs) == {
            f"b_{i}_{j}" for i in (1, 2) for j in range(3)
        }

    def test_equation_is_scaled_pairing_row(self, matrix_a):
        eq = mask_constraints(matrix_a, mask_seed=5).equations[0]
        scale = eq.coeffs["b_1_0"] / matrix_a.entries[2, 0]
        assert 0.5 <= abs(scale) <= 2.0
        for j in range(3):
            assert eq.coeffs[f"b_1_{j}"] == pytest.approx(scale * matrix_a.entries[2, j], rel=1e-12)
            assert eq.coeffs[f"b_2_{j}"] == pytest.approx(-scale * matrix_a.entries[1, j], rel=1e-12)

    def test_deterministic_in_seed(self, matrix_a):
        first = mask_constraints(matrix_a, mask_seed=8)
        second = mask_constraints(matrix_a, mask_seed=8)
        assert first.equations == second.equations
        third = mask_constraints(matrix_a, mask_seed=9)
        assert first.equations != third.equations

    def test_solution_set_preserved(self, matrix_a, matrix_b):
        eq = mask_constraints(matrix_a, mask_seed=5).equations[0]
        scale = eq.coeffs["b_1_0"] / matrix_a.entries[2, 0]
        masked_residual = abs(
            sum(
                eq.coeffs[f"b_{i}_{j}"] * matrix_b.entries[i, j]
                for i in (1, 2)
                for j in range(3)
            )
            - eq.rhs
        )
        raw_residual = abs(
            (matrix_b.entries[1] * matrix_a.entries[2]).sum()
            - (matrix_a.entries[1] * matrix_b.entries[2]).sum()
        )
        assert masked_residual == pytest.approx(abs(scale) * raw_residual, rel=1e-6)

    def test_equation_count_scales(self):
        a = generate_random(4, seed=2)
        assert len(mask_constraints(a, mask_seed=0).equations) == 3

    def test_requires_real(self):
        with pytest.raises(ValidationError):
            mask_constraints(generate_random(3, seed=0, complex_entries=True), mask_seed=0)

    def test_serialization_round_trip(self, matrix_a, tmp_path):
        masked = mask_constraints(matrix_a, mask_seed=5)
        path = tmp_path / "masked.json"
        save_masked_system(masked, path)
        loaded = load_masked_system(path)
        assert loaded.n == 3
        assert loaded.equations == masked.equations


    @pytest.mark.parametrize(
        "raw",
        [
            {"coeffs": {"b_1_0": 1.0}},
            [["b_1_0", 1.0]],
            [{"rhs": 0.0}],
            [{"coeffs": [["b_1_0", 1.0]]}],
            [{"coeffs": {"b_1_0": "one"}}],
            [{"coeffs": {"b_1_0": None}}],
            [{"coeffs": {"b_1_0": float("nan")}}],
            [{"coeffs": {"b_1_0": 1.0}, "rhs": float("inf")}],
            3,
        ],
        ids=["dict-root", "list-item", "no-coeffs", "list-coeffs", "str-coeff",
             "null-coeff", "nan-coeff", "inf-rhs", "int-root"],
    )
    def test_malformed_system_raises_validation_error(self, raw):
        with pytest.raises(ValidationError):
            masked_system_from_list(raw)

    def test_malformed_json_text_raises_validation_error(self, tmp_path):
        path = tmp_path / "masked.json"
        path.write_text('[{"coeffs": {"b_1_0": 1.0}')
        with pytest.raises(ValidationError, match="malformed masked-system JSON"):
            load_masked_system(path)


class TestSolveCompanionNumeric:
    def test_certified_solution_from_masked_system(self, matrix_a):
        masked = mask_constraints(matrix_a, mask_seed=1)
        b = solve_companion_numeric(matrix_a, masked, seed=0, tol=1e-10)
        assert b.unitarity_defect() <= 1e-8
        assert pairing_check_rows(matrix_a, b, tol=1e-8).holds
        assert np.linalg.norm(b.entries - matrix_a.entries) >= 0.1

    def test_unmasked_equations_derived_from_matrix(self, matrix_a):
        b = solve_companion_numeric(matrix_a, None, seed=3, tol=1e-10)
        assert pairing_check_rows(matrix_a, b, tol=1e-8).holds

    def test_companion_is_never_a_itself(self, matrix_a):
        for seed in range(20):
            b = solve_companion_numeric(matrix_a, None, seed=seed, tol=1e-10)
            assert pairing_check_rows(matrix_a, b, tol=1e-8).holds
            assert np.linalg.norm(b.entries - matrix_a.entries) >= 0.1

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("n", range(2, 17))
    def test_every_base(self, n, complex_entries):
        a = generate_random(n, seed=40 + n, complex_entries=complex_entries)
        masked = None if complex_entries else mask_constraints(a, mask_seed=n)
        b = solve_companion_numeric(a, masked, seed=n, tol=1e-10)
        assert b.is_real is not complex_entries
        assert pairing_check_rows(a, b, tol=1e-12).holds
        assert pairing_check_basis(a, b, q=2, tol=1e-12).holds
        s = random_signal(n, 2, seed=n, complex_values=complex_entries)
        assert run_exchange(a, b, s).max_error <= 1e-12

    def test_masked_system_of_another_matrix_fails(self):
        a = generate_random(4, seed=6)
        other = mask_constraints(generate_random(4, seed=7), mask_seed=2)
        with pytest.raises(NoConvergenceError) as info:
            solve_companion_numeric(a, other, seed=1, tol=1e-10)
        assert info.value.best_residual > 1e-3

    def test_base_four(self):
        a = generate_random(4, seed=6)
        b = solve_companion_numeric(a, mask_constraints(a, mask_seed=2), seed=1, tol=1e-9)
        assert b.n == 4
        assert pairing_check_rows(a, b, tol=1e-7).holds
        assert pairing_check_basis(a, b, q=2, tol=1e-7).holds

    def test_complex_entries(self):
        a = generate_random(3, seed=4, complex_entries=True)
        b = solve_companion_numeric(a, None, seed=2, tol=1e-9)
        assert not b.is_real
        assert pairing_check_rows(a, b, tol=1e-7).holds
        # complex companions must satisfy the full basis-level condition,
        # including the diagonal row pairs the row check does not see
        assert pairing_check_basis(a, b, q=2, tol=1e-8).holds

    def test_no_convergence_reports_best_residual(self, matrix_a):
        with pytest.raises(NoConvergenceError) as info:
            solve_companion_numeric(matrix_a, None, seed=0, tol=0.0)
        assert info.value.best_residual < 1e-6  # solver got close, bar was impossible

    def test_certification_reads_the_pairing_residual(self, matrix_a, monkeypatch):
        monkeypatch.setattr("gwalsh.protocol._pairing_residual", lambda b, a: np.ones((2, 2)))
        with pytest.raises(NoConvergenceError) as info:
            solve_companion_numeric(matrix_a, seed=0)
        assert info.value.best_residual == 1.0

    def test_deterministic(self, matrix_a):
        first = solve_companion_numeric(matrix_a, None, seed=5, tol=1e-10)
        second = solve_companion_numeric(matrix_a, None, seed=5, tol=1e-10)
        assert np.array_equal(first.entries, second.entries)


class TestRunExchange:
    def test_reference_pair_recovers_signal(self, matrix_a, matrix_b, signal_f):
        transcript = run_exchange(matrix_a, matrix_b, signal_f)
        assert not transcript.pairing_violated
        assert transcript.max_error <= 1e-6
        cell = int(0.4 * 27)
        assert abs(transcript.recovered.values[cell] - 1.0) <= 1e-6

    def test_relay_message_matches_reference_tail(self, matrix_a, matrix_b, signal_f):
        # the reference list omits the leading coefficient: offset 1 aligns
        transcript = run_exchange(matrix_a, matrix_b, signal_f)
        w3 = transcript.w3.coeffs
        offset_zero = np.abs(w3[0:26] - rv.RELAY_TAIL).max()
        offset_one = np.abs(w3[1:27] - rv.RELAY_TAIL).max()
        assert offset_one <= 1e-6
        assert offset_zero > 1e-2
        assert w3[0] == pytest.approx(np.mean(transcript.w2.values), abs=1e-9)

    def test_identity_partner_round_trips(self, matrix_a, signal_f):
        transcript = run_exchange(matrix_a, matrix_a, signal_f)
        assert transcript.max_error <= 1e-10
        assert np.abs(transcript.w2.values - signal_f.values).max() <= 1e-10

    def test_random_family_pairs(self, matrix_a):
        rng = np.random.default_rng(31)
        for trial in range(20):
            a = generate_random(3, seed=500 + trial)
            r = float(rng.uniform(-0.8, 0.8))
            b = solve_companion(a, r, branch="minus" if trial % 2 else "plus")
            s = random_signal(3, 1 + trial % 4, seed=600 + trial)
            assert run_exchange(a, b, s).max_error <= 1e-7

    def test_violated_pairing_flagged_not_fatal(self, matrix_a, signal_f):
        partner = rotated_partner(matrix_a, 0.5)
        transcript = run_exchange(matrix_a, partner, signal_f)
        assert transcript.pairing_violated
        assert transcript.max_error > 1e-2

    def test_directory_channel_stages_files(self, matrix_a, matrix_b, signal_f, tmp_path):
        channel = DirectoryChannel(tmp_path / "msgs")
        transcript = run_exchange(matrix_a, matrix_b, signal_f, channel=channel)
        assert transcript.max_error <= 1e-6
        w1 = read_coefficients(tmp_path / "msgs" / "w1.csv")
        np.testing.assert_array_equal(w1.coeffs, transcript.w1.coeffs)
        w2 = read_signal(tmp_path / "msgs" / "w2.csv")
        np.testing.assert_array_equal(w2.values, transcript.w2.values)
        assert (tmp_path / "msgs" / "w3.csv").exists()

    def test_directory_channel_failed_write_keeps_old_message(self, tmp_path, monkeypatch):
        channel = DirectoryChannel(tmp_path / "msgs")
        first = CoefficientVector(base=3, q=1, coeffs=[0.5, -0.0, 1e-300])
        channel.put("w1.csv", first)
        real_write_text = Path.write_text

        def write_half_then_fail(path, text, *args, **kwargs):
            real_write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError):
            channel.put("w1.csv", CoefficientVector(base=3, q=2, coeffs=np.arange(9.0)))
        monkeypatch.undo()
        assert channel.get("w1.csv").coeffs.tobytes() == first.coeffs.tobytes()
        assert [p.name for p in (tmp_path / "msgs").iterdir()] == ["w1.csv"]

    def test_message_of_the_wrong_kind_raises_validation_error(self, matrix_a, signal_f):
        class SwappingChannel(InMemoryChannel):
            def get(self, name):
                m = super().get(name)
                return Signal(m.base, m.q, m.coeffs) if isinstance(m, CoefficientVector) else m

        with pytest.raises(ValidationError, match="w1.csv"):
            run_exchange(matrix_a, matrix_a, signal_f, channel=SwappingChannel())

    def test_directory_channel_decodes_by_header_kind(self, tmp_path):
        channel = DirectoryChannel(tmp_path)
        channel.put("m", Signal(2, 1, [0.5, -0.0]))
        assert type(channel.get("m")) is Signal
        (tmp_path / "m").write_text("# gwalsh other N=2 q=1\n0.5\n1.0\n")
        with pytest.raises(ValidationError):
            channel.get("m")

    def test_masking_does_not_touch_exchange(self, matrix_a, signal_f):
        # masking only changes the published system; any seed yields a
        # companion, and every companion recovers the signal
        for mask_seed in (0, 1, 2):
            masked = mask_constraints(matrix_a, mask_seed=mask_seed)
            b = solve_companion_numeric(matrix_a, masked, seed=7, tol=1e-10)
            assert run_exchange(matrix_a, b, signal_f).max_error <= 1e-7

    def test_transcript_serialization(self, matrix_a, matrix_b, signal_f, tmp_path):
        transcript = run_exchange(matrix_a, matrix_b, signal_f)
        path = tmp_path / "t.json"
        save_transcript(transcript, path)
        loaded = load_transcript(path)
        assert loaded.max_error == transcript.max_error
        assert loaded.pairing_violated == transcript.pairing_violated
        np.testing.assert_array_equal(loaded.w1.coeffs, transcript.w1.coeffs)
        np.testing.assert_array_equal(loaded.recovered.values, transcript.recovered.values)

    def test_complex_transcript_keeps_signed_zeros(self, tmp_path):
        a = generate_random(2, seed=3, complex_entries=True)
        signed = Signal(base=2, q=2, values=[complex(-0.0, -0.0), complex(-0.0, 1.0),
                                             complex(2.5, -0.0), -1j])
        transcript = replace(run_exchange(a, a, signed), w2=signed)
        path = tmp_path / "t.json"
        save_transcript(transcript, path)
        loaded = load_transcript(path)
        assert loaded.w2.values.dtype == np.complex128
        assert loaded.w2.values.tobytes() == transcript.w2.values.tobytes()
        assert loaded.recovered.values.tobytes() == transcript.recovered.values.tobytes()
        save_transcript(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.pop("w3"),
            lambda d: d.pop("n"),
            lambda d: d["w2"].__setitem__(0, None),
            lambda d: d["w1"].__setitem__(1, "x"),
            lambda d: d.__setitem__("recovered", "abc"),
            lambda d: d.__setitem__("w1", [[0.5, 0.0, 1.0]] * 27),
            lambda d: d.__setitem__("n", 3.7),
            lambda d: d.__setitem__("n", "3"),
            lambda d: d.__setitem__("q", 2.5),
            lambda d: d.__setitem__("q", None),
            lambda d: d.update(n=1, q=0, w1=[0.5], w2=[0.5], w3=[0.5], recovered=[0.5]),
            lambda d: d.__setitem__("max_error", "x"),
            lambda d: d.__setitem__("max_error", None),
            lambda d: d.__setitem__("pairing_violated", "false"),
            lambda d: d.__setitem__("pairing_violated", 0),
        ],
        ids=["missing-message", "missing-n", "null-value", "string-value", "message-str",
             "triples", "n-fraction", "n-str", "q-fraction", "q-null", "base-one",
             "max-error-str", "max-error-null", "violated-str", "violated-int"],
    )
    def test_malformed_transcript_raises_validation_error(self, matrix_a, signal_f, edit):
        d = transcript_to_dict(run_exchange(matrix_a, matrix_a, signal_f))
        transcript_from_dict(d)  # the unedited dict loads
        edit(d)
        with pytest.raises(ValidationError):
            transcript_from_dict(d)

    def test_malformed_transcript_json_text(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"n": 3, "q": ')
        with pytest.raises(ValidationError, match="malformed transcript JSON"):
            load_transcript(path)

    @pytest.mark.parametrize("violated", [False, True])
    def test_pairing_flag_round_trips(self, matrix_a, signal_f, violated):
        d = transcript_to_dict(run_exchange(matrix_a, matrix_a, signal_f))
        d["pairing_violated"] = violated
        assert transcript_from_dict(d).pairing_violated is violated

    def test_transcript_json_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValidationError):
            load_transcript(path)

    @pytest.mark.parametrize("n", [2, 3])
    def test_complex_diagonal_violation_flagged(self, n):
        a = generate_random(n, seed=4 if n == 3 else 0, complex_entries=True)
        b = phased_partner(a, [1j, 1][: n - 1])
        transcript = run_exchange(a, b, random_signal(n, 2, seed=1))
        assert transcript.pairing_violated
        assert transcript.max_error > 1e-2

    def test_base_two_any_pair_works(self):
        a = generate_random(2, seed=0)
        b = generate_random(2, seed=99)
        s = random_signal(2, 4, seed=1)
        transcript = run_exchange(a, b, s)
        assert not transcript.pairing_violated
        assert transcript.max_error <= 1e-9

    def test_base_mismatch(self, matrix_a):
        from gwalsh import BaseMismatchError

        with pytest.raises(BaseMismatchError):
            run_exchange(matrix_a, generate_random(4, seed=0), random_signal(3, 2, seed=0))
        with pytest.raises(BaseMismatchError):
            run_exchange(matrix_a, matrix_a, random_signal(2, 3, seed=0))

    def test_complex_pair_complex_signal(self):
        a = generate_random(3, seed=14, complex_entries=True)
        b = solve_companion_numeric(a, None, seed=5, tol=1e-10)
        s = random_signal(3, 2, seed=6, complex_values=True)
        transcript = run_exchange(a, b, s)
        assert transcript.max_error <= 1e-7
        assert not transcript.pairing_violated


def _stored(payload: bytes) -> InMemoryChannel:
    channel = InMemoryChannel()
    channel._store["m"] = payload
    return channel


def _wire(kind: bytes, code: bytes, n: int, q: int, values) -> bytes:
    """The documented in-memory layout: kind, dtype code, N, q, little-endian values."""
    dtype = "<c16" if code == b"c" else "<f8"
    return struct.pack("<ccqq", kind, code, n, q) + np.asarray(values, dtype=dtype).tobytes()


def _cells(message) -> np.ndarray:
    return message.values if isinstance(message, Signal) else message.coeffs


class TestInMemoryChannel:
    @pytest.mark.parametrize("cls", [Signal, CoefficientVector])
    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, 5e-324, -1.7976931348623157e308, 0.1, 1e16, -2.5, 3.0, 1 / 3],
        [complex(-0.0, -0.0), complex(-0.0, 1.0), complex(2.5, -0.0), -1j,
         complex(5e-324, 1e300), 0j, 1 + 0j, complex(0.1, -0.0), complex(-3, 1 / 3)],
    ], ids=["real", "complex"])
    def test_round_trip_is_bit_exact(self, cls, values):
        message = cls(3, 2, np.asarray(values))
        channel = InMemoryChannel()
        channel.put("m", message)
        for _ in range(2):  # every get decodes the stored bytes again
            received = channel.get("m")
            assert type(received) is cls
            assert (received.base, received.q) == (3, 2)
            assert _cells(received).dtype == _cells(message).dtype
            assert _cells(received).tobytes() == _cells(message).tobytes()

    def test_stored_as_documented_bytes(self):
        channel = InMemoryChannel()
        channel.put("m", Signal(2, 1, [0.5, -0.0]))
        assert channel._store["m"] == _wire(b"s", b"f", 2, 1, [0.5, -0.0])
        channel.put("m", CoefficientVector(2, 0, np.array([1j], dtype=np.complex64)))
        assert channel._store["m"] == _wire(b"c", b"c", 2, 0, [1j])

    def test_put_rejects_text(self):
        with pytest.raises(TypeError):
            InMemoryChannel().put("m", "# gwalsh signal N=2 q=0\n1.0\n")

    @pytest.mark.parametrize("payload", [
        b"",
        _wire(b"s", b"f", 3, 1, [1.0, 2.0, 3.0])[:10],
        _wire(b"s", b"f", 3, 1, [1.0, 2.0, 3.0])[:-1],
        _wire(b"s", b"f", 3, 1, [1.0, 2.0]),
        _wire(b"s", b"f", 3, 2, [1.0, 2.0, 3.0]),
        _wire(b"c", b"c", 2, 1, [1.0, 2.0, 3.0]),
        _wire(b"s", b"f", 2, 2**62, [1.0, 2.0]),
        _wire(b"x", b"f", 3, 1, [1.0, 2.0, 3.0]),
        _wire(b"s", b"i", 3, 1, [1.0, 2.0, 3.0]),
        _wire(b"s", b"f", 3, 1, [1.0, np.nan, 3.0]),
        _wire(b"c", b"f", 3, 1, [1.0, -np.inf, 3.0]),
        _wire(b"c", b"c", 3, 1, [1.0, complex(0, np.inf), 3.0]),
        _wire(b"s", b"f", 3, -1, []),
        _wire(b"s", b"f", 1, 0, [1.0]),
        _wire(b"s", b"f", -3, 1, [1.0, 2.0, 3.0]),
    ], ids=["empty", "truncated-header", "truncated-value", "too-few", "too-many",
            "complex-too-few", "huge-q", "unknown-kind", "unknown-dtype", "nan", "inf",
            "complex-inf", "negative-q", "base-one", "negative-base"])
    def test_malformed_payload_raises_validation_error(self, payload):
        with pytest.raises(ValidationError):
            _stored(payload).get("m")


@st.composite
def _payloads(draw):
    """Wire payloads whose every field is well formed with probability 3/4."""

    def mostly(good, bad):
        return draw(good if draw(st.integers(0, 3)) else bad)

    kind = mostly(st.sampled_from([b"s", b"c"]), st.binary(min_size=1, max_size=1))
    code = mostly(st.sampled_from([b"f", b"c"]), st.binary(min_size=1, max_size=1))
    n = mostly(st.integers(2, 4), st.integers(-2**63, 2**63 - 1))
    q = mostly(st.integers(0, 3), st.integers(-2**63, 2**63 - 1))
    count = mostly(st.just(n**q if 2 <= n <= 4 and 0 <= q <= 3 else 0), st.integers(0, 70))
    width = 2 if code == b"c" else 1
    finite = bool(draw(st.integers(0, 3)))
    floats = draw(st.lists(st.floats(allow_nan=not finite, allow_infinity=not finite),
                           min_size=count * width, max_size=count * width))
    raw = struct.pack("<ccqq", kind, code, n, q) + np.array(floats, dtype="<f8").tobytes()
    return mostly(st.just(raw), st.integers(0, len(raw)).map(lambda cut: raw[:cut]))


@settings(max_examples=200)
@given(st.one_of(_payloads(), st.binary(max_size=80)))
@example(_wire(b"c", b"c", 2, 1, [complex(-0.0, 1.0), complex(1e-310, -0.0)]))
def test_any_stored_bytes_decode_or_raise_validation_error(payload):
    try:
        message = _stored(payload).get("m")
    except ValidationError:
        return
    assert len(_cells(message)) == message.base**message.q
    assert np.isfinite(_cells(message)).all()
    again = InMemoryChannel()
    again.put("m", message)
    assert again._store["m"] == payload  # a payload that decodes is exactly its re-encoding


class TestConcurrentExchange:
    """The default channel keeps no shared state: concurrent exchanges need no locking."""

    @staticmethod
    def _inputs():
        a = generate_random(3, seed=41)
        b = solve_companion(a, 0.3)
        signals = [random_signal(3, 6, seed=70 + i, complex_values=i == 3) for i in range(4)]
        return a, b, signals

    @staticmethod
    def _assert_same(transcripts, serial):
        assert len(transcripts) == len(serial)
        for got, want in zip(transcripts, serial):
            for field in ("w1", "w2", "w3", "recovered"):
                got_msg, want_msg = getattr(got, field), getattr(want, field)
                assert np.array_equal(_cells(got_msg), _cells(want_msg))
            assert got.max_error == want.max_error
            assert got.pairing_violated == want.pairing_violated

    def test_threads(self):
        a, b, signals = self._inputs()
        serial = [run_exchange(a, b, s) for s in signals]
        results = [None] * len(signals)
        barrier = threading.Barrier(len(signals), timeout=10)

        def worker(i):
            barrier.wait()
            results[i] = [run_exchange(a, b, signals[i]) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(signals))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, runs in enumerate(results):
            self._assert_same(runs, [serial[i]] * len(runs))

    def test_asyncio_tasks(self):
        a, b, signals = self._inputs()
        serial = [run_exchange(a, b, s) for s in signals]

        async def exchange_all():
            loop = asyncio.get_running_loop()
            with ThreadPoolExecutor(max_workers=4) as pool:
                tasks = [asyncio.create_task(asyncio.wait_for(
                    loop.run_in_executor(pool, run_exchange, a, b, s), timeout=60))
                    for s in signals]
                return await asyncio.gather(*tasks)

        self._assert_same(asyncio.run(exchange_all()), serial)


def test_import_loads_no_scipy():
    code = "import sys, gwalsh; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
