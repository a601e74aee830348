import asyncio
import subprocess
import sys
import threading
import tracemalloc
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
    DegenerateEliminationError,
    DimensionMismatchError,
    DirectoryChannel,
    InMemoryChannel,
    NoConvergenceError,
    NoRealSolutionError,
    Signal,
    ValidationError,
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
from gwalsh import protocol, transform
from gwalsh.basis import MAX_GRID
from gwalsh.protocol import (
    MaskedConstraintSystem,
    MaskedEquation,
    PairingReport,
    _walsh_cross,
    masked_system_from_list,
    transcript_from_dict,
    transcript_to_dict,
)
from gwalsh.transform import (
    _butterfly,
    _digit_groups,
    count_multiplies,
    message_from_text,
    message_to_text,
    read_coefficients,
    read_signal,
)

# bound on the batched pass's distance from the dense product of the grid
# matrices; measured at most 6.4e-15 on the twelve oracle cases below
CROSS_BOUND = 3e-14


def full_array_report(lhs, tol=1e-8):
    """Oracle: the residual over the whole [l, k] cross matrix and its first argmax."""
    residuals = np.abs(lhs - lhs.conj().T)
    flat = int(residuals.argmax())
    worst = float(residuals.flat[flat])
    return PairingReport(holds=worst <= tol, worst_indices=divmod(flat, len(lhs)),
                         worst_residual=worst)


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

    The pairs l <= k are visited in row-major order and the first maximal
    one is named; the diagonal pairs bind only complex matrices.
    """
    worst_pair, worst = None, -1.0
    for l in range(1, a.n):
        for k in range(l, a.n):
            residual = abs(row_inner(a, b, l, k) - row_inner(b, a, l, k))
            if residual > worst:
                worst_pair, worst = (l, k), float(residual)
    return worst <= tol, worst_pair, worst


def whole_array_row_report(a, b, tol):
    """Oracle: ``|X - X^H|`` for ``X = B[1:] A[1:]^H`` as one array, and its
    first row-major argmax over the pairs l <= k."""
    cross = b.entries[1:] @ a.entries[1:].conj().T
    residuals = np.abs(cross - cross.conj().T)
    upper = np.where(np.triu(np.ones(residuals.shape, dtype=bool)), residuals, -1.0)
    l, k = divmod(int(upper.argmax()), len(upper))
    worst = float(upper[l, k])
    return PairingReport(holds=worst <= tol, worst_indices=(l + 1, k + 1), worst_residual=worst)


# +-1/2 entries make every row residual exact, so pairs tie
HALVES = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


def row_check_pair(n, complex_entries, seed, partner):
    """A seeded matrix A and a partner of the named kind."""
    if partner == "halves":  # A and B both carry the rows of HALVES, B's in a seeded order
        order = np.random.default_rng(seed).permutation(3) + 1
        return validate(HALVES, tol=1e-12), validate(HALVES[[0, *order]], tol=1e-12)
    a = generate_random(n, seed=seed, complex_entries=complex_entries)
    if partner == "phased":  # <B_l, A_k> vanishes for l != k: only diagonal pairs can fail
        angles = np.random.default_rng(seed).uniform(0, 2 * np.pi, n - 1)
        return a, phased_partner(a, np.exp(1j * angles) if complex_entries else np.sign(angles - 3))
    return a, {"companion": lambda: solve_companion_numeric(a, seed=seed + 1),
               "random": lambda: generate_random(n, seed=seed + 1, complex_entries=complex_entries),
               "self": lambda: a}[partner]()


@pytest.mark.parametrize("call", [
    lambda a, b: pairing_check_rows(a, b),
    lambda a, b: pairing_check_basis(a, b, 2),
    lambda a, b: run_exchange(a, b, random_signal(3, 2, seed=0)),
], ids=["pairing_check_rows", "pairing_check_basis", "run_exchange"])
def test_matrix_sizes_differ(call):
    # two matrices of different sizes raise one error type, with one text
    with pytest.raises(DimensionMismatchError, match="matrix sizes differ: 3 vs 4"):
        call(generate_random(3, seed=1), generate_random(4, seed=1))


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
                    assert report.worst_indices == pair
            # the companion holds; the last partner, rotated or phased, violates
            assert pairing_check_rows(a, partners[0], tol=1e-8).holds
            assert (n == 2 and not complex_entries) or not report.holds

    def test_ties_name_the_first_pair(self):
        a = validate(HALVES, tol=1e-12)
        cycled = validate(a.entries[[0, 2, 3, 1]], tol=1e-12)
        for b, worst, pair in ((a, 0.0, (1, 1)), (cycled, 1.0, (1, 2))):
            report = pairing_check_rows(a, b, tol=1e-8)
            assert report.worst_residual == worst
            assert report.worst_indices == pair

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 9), complex_entries=st.booleans(), seed=st.integers(0, 2**16),
           partner=st.sampled_from(["companion", "random", "self", "phased", "halves"]))
    @example(n=4, complex_entries=False, seed=0, partner="halves")
    @example(n=4, complex_entries=False, seed=1, partner="self")
    @example(n=2, complex_entries=False, seed=1, partner="random")
    @example(n=2, complex_entries=True, seed=1, partner="phased")
    @example(n=3, complex_entries=True, seed=4, partner="phased")
    def test_matches_whole_array_oracle(self, n, complex_entries, seed, partner):
        a, b = row_check_pair(n, complex_entries, seed, partner)
        report = pairing_check_rows(a, b, tol=1e-8)
        assert report == whole_array_row_report(a, b, tol=1e-8)
        if partner == "phased" and complex_entries:
            # only diagonal pairs violate, and the report names one of them
            assert not report.holds and report.worst_indices[0] == report.worst_indices[1]

    def test_complex_diagonal_violation(self):
        # <B_1, A_1> = i is not real: only the diagonal pair (1, 1) fails
        a = generate_random(3, seed=4, complex_entries=True)
        b = phased_partner(a, [1j, 1])
        report = pairing_check_rows(a, b, tol=1e-8)
        assert not report.holds
        assert report.worst_residual == pytest.approx(2.0, abs=1e-12)
        assert report.worst_indices == (1, 1)
        assert pairing_check_basis(a, b, q=1).worst_residual == pytest.approx(2.0, abs=1e-12)

    def test_complex_two_point_systems_can_fail(self):
        a = generate_random(2, seed=0, complex_entries=True)
        report = pairing_check_rows(a, phased_partner(a, [1j]), tol=1e-8)
        assert not report.holds
        assert report.worst_residual == pytest.approx(2.0, abs=1e-12)
        assert report.worst_indices == (1, 1)

    def test_self_pair_holds(self, matrix_a):
        report = pairing_check_rows(matrix_a, matrix_a, tol=1e-12)
        assert report.holds
        assert report.worst_residual == 0.0
        assert report.worst_indices == (1, 1)

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
        assert report.worst_indices == (1, 1)


class TestPairingBasis:
    def test_forward_direction_family_pairs(self, matrix_a):
        rng = np.random.default_rng(17)
        bound = np.sqrt(2.0 / 3.0)  # the whole real companion family of a 3x3 matrix
        for branch in ("plus", "minus"):
            for _ in range(25):
                b = solve_companion(matrix_a, float(rng.uniform(-bound, bound)), branch=branch)
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

    @pytest.mark.parametrize("n,q", [(3, 6), (5, 4), (8, 3)])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("pairs", [True, False], ids=["companion", "random"])
    def test_batched_pass_matches_dense_oracle(self, n, q, complex_entries, pairs):
        a = generate_random(n, seed=1, complex_entries=complex_entries)
        b = (solve_companion_numeric(a, seed=2) if pairs
             else generate_random(n, seed=2, complex_entries=complex_entries))
        ga, gb = grid_matrix(a, q), grid_matrix(b, q)
        dense = (gb @ ga.conj().T) / n**q  # [l, k] = <W_l of B, W_k of A>
        np.testing.assert_allclose(_walsh_cross(a, b, q), dense, rtol=0, atol=CROSS_BOUND)
        oracle = np.abs(dense - dense.conj().T)
        report = pairing_check_basis(a, b, q, tol=1e-8)
        assert report.holds == pairs == (oracle.max() <= 1e-8)
        assert report.worst_residual == pytest.approx(oracle.max(), rel=0, abs=2 * CROSS_BOUND)
        if not pairs:
            # a companion's cross matrix is nearly Hermitian, so only a
            # non-companion pair tells [l, k] from [k, l]
            assert np.abs(dense - dense.T).max() > 100 * CROSS_BOUND

    @pytest.mark.parametrize("n,q", [(3, 6), (5, 4), (8, 3), (2, 11)])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("partner", ["companion", "random", "self"])
    def test_blocked_scan_equals_full_array(self, n, q, complex_entries, partner):
        a = generate_random(n, seed=1, complex_entries=complex_entries)
        b = {"companion": lambda: solve_companion_numeric(a, seed=2),
             "random": lambda: generate_random(n, seed=2, complex_entries=complex_entries),
             "self": lambda: a}[partner]()  # b = a: the residual ties at many entries
        assert pairing_check_basis(a, b, q) == full_array_report(_walsh_cross(a, b, q))

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n,q", [(3, 6), (8, 3)])
    def test_residual_exactly_symmetric(self, n, q, complex_entries):
        # the blocked scan reads only the upper triangle on this property
        a = generate_random(n, seed=1, complex_entries=complex_entries)
        b = generate_random(n, seed=2, complex_entries=complex_entries)
        lhs = _walsh_cross(a, b, q)
        residuals = np.abs(lhs - lhs.conj().T)
        assert np.array_equal(residuals, residuals.T)

    def test_nan_entry_fails_the_check(self):
        a = generate_random(3, seed=1)
        # construction rejects a NaN entry; the read-only flag is not immutability
        b = validate(a.entries, a.tol)
        b.entries.flags.writeable = True
        b.entries[2, 1] = np.nan
        report = pairing_check_basis(a, b, 4)
        assert not report.holds
        assert np.isnan(report.worst_residual)
        assert report.worst_indices == full_array_report(_walsh_cross(a, b, 4)).worst_indices

    @pytest.mark.parametrize(
        "entries",
        [{(3, 5): 1, (600, 700): 1}, {(3, 5): 1, (600, 650): 2},
         {(3, 5): 1, (500, 700): np.nan, (600, 650): 2}, {(700, 20): np.nan}],
        ids=["tie-across-blocks", "larger-later", "nan-later", "nan-below-diagonal"],
    )
    def test_scan_keeps_the_first_maximum(self, monkeypatch, entries):
        # a 729 x 729 cross matrix spans many row blocks; each entry sets one
        # residual pair [k, l], [l, k]
        lhs = np.zeros((729, 729), dtype=complex)
        for index, value in entries.items():
            lhs[index] = value
        monkeypatch.setattr(protocol, "_walsh_cross", lambda a, b, q, out: lhs)
        a = generate_random(3, seed=1)
        assert repr(pairing_check_basis(a, a, 6)) == repr(full_array_report(lhs))

    def test_every_checkable_grid_is_one_pass(self):
        for n in range(2, MAX_GRID + 1):
            q = 1
            while n**q <= MAX_GRID:
                assert _digit_groups(n, q) == [q]
                q += 1

    @pytest.mark.parametrize("n,q", [(3, 6), (5, 4)])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_check_holds_one_full_array(self, n, q, complex_entries):
        # a grid step that copied on reshape and a fresh cross matrix made it about 2.1
        a = generate_random(n, seed=1, complex_entries=complex_entries)
        b = solve_companion_numeric(a, seed=2)
        itemsize = np.dtype(complex if complex_entries else float).itemsize
        tracemalloc.start()
        try:
            assert pairing_check_basis(a, b, q).holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.35 * n ** (2 * q) * itemsize

    @pytest.mark.parametrize("n,q", [(3, 6), (5, 4)])
    @pytest.mark.parametrize("complex_a,complex_b",
                             [(False, False), (True, True), (True, False), (False, True)],
                             ids=["real", "complex", "complex-a-real-b", "real-a-complex-b"])
    def test_pass_over_the_grid_equals_a_fresh_output(self, n, q, complex_a, complex_b):
        a = generate_random(n, seed=1, complex_entries=complex_a)
        b = generate_random(n, seed=2, complex_entries=complex_b)
        grid = grid_matrix(b, q).T
        fresh = _butterfly(a, grid, q, inverse=False)
        over = _butterfly(a, grid, q, inverse=False, overwrite=True)
        assert np.array_equal(over, fresh)
        # a complex A analyses a real B's grid into one fresh complex array
        assert np.shares_memory(over, grid) == (complex_b or not complex_a)
        assert np.array_equal(_walsh_cross(a, b, q), fresh.reshape(grid.shape).T)

    @pytest.mark.parametrize("n,q,complex_a,complex_b", [
        (4, 5, False, False), (4, 5, True, True), (4, 5, True, False), (2, 11, False, False),
    ], ids=["real-4-5", "complex-4-5", "complex-a-real-b-4-5", "real-2-11"])
    def test_split_pass_over_the_grid_equals_the_serial_pass(
            self, monkeypatch, started_threads, n, q, complex_a, complex_b):
        # from about 1000 cells the one pass over the grid has at least _SPLIT_BLOCKS
        # blocks (32 at 4^5, 128 at 2^11), and its second half runs on one thread
        a = generate_random(n, seed=1, complex_entries=complex_a)
        b = generate_random(n, seed=2, complex_entries=complex_b)
        split = _walsh_cross(a, b, q)
        assert len(started_threads) == 1
        assert not started_threads[0].is_alive()
        monkeypatch.setattr(transform, "_SPLIT_BLOCKS", sys.maxsize)  # more than any pass has
        serial = _walsh_cross(a, b, q)
        assert len(started_threads) == 1
        assert not np.shares_memory(split, serial)  # without out, each call a fresh array
        assert split.dtype == serial.dtype
        assert np.array_equal(split, serial)

    def test_check_adds_no_multiplies(self):
        a = generate_random(3, seed=1)
        b = solve_companion_numeric(a, seed=2)
        with count_multiplies() as counter:
            assert pairing_check_basis(a, b, 6).holds
        assert counter.count == 0


def pairing_case(n, q, complex_entries, partner="random"):
    """Arguments of a pairing check: A and a random B of A's kind, or of the other ("mixed")."""
    a = generate_random(n, seed=n + q, complex_entries=complex_entries)
    complex_b = complex_entries != (partner == "mixed")
    return a, generate_random(n, seed=n + q + 1, complex_entries=complex_b), q


def on_new_thread(fn):
    """fn() on a thread of its own, which ends (and frees its scratch array) before this returns."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result()


# the verify-suite sizes, and a complex check whose pass splits in two halves
CONCURRENT_CASES = [(3, 6, False), (5, 4, False), (8, 3, False), (4, 5, True)]


class TestPairingWorkspace:
    @pytest.mark.parametrize("first,second", [
        ((3, 6, False), (3, 6, False)),
        ((5, 4, False), (5, 4, False)),
        ((8, 3, False), (8, 3, False)),
        ((4, 5, True), (4, 5, True)),
        ((4, 5, True), (5, 4, False)),
        ((4, 5, True), (5, 4, True)),
        ((45, 2, False), (45, 2, False)),
    ], ids=["3-6", "5-4", "8-3", "complex-4-5", "smaller-5-4", "smaller-complex-5-4", "45-2"])
    @pytest.mark.parametrize("partner", ["random", "mixed"])
    def test_later_check_allocates_no_full_array(self, first, second, partner):
        # a later check allocates the grid's next-to-last step (1/N^2 of the
        # array) and the pass's and scan's blocks of about 2^15 values (five
        # at most, with the pass split in two halves); the first check, like
        # every check before the scratch array, held 1 to 1.35 arrays
        first_case = pairing_case(*first, partner=partner)
        second_case = pairing_case(*second, partner=partner)
        n, q = second[:2]
        itemsize = np.result_type(*(m.entries for m in second_case[:2])).itemsize
        full = n ** (2 * q) * itemsize

        def run():
            pairing_check_basis(*first_case)
            tracemalloc.start()
            try:
                report = pairing_check_basis(*second_case)
                return report, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        report, peak = on_new_thread(run)
        assert report == pairing_check_basis(*second_case)
        assert peak <= itemsize * (n ** (2 * q - 2) + 6 * transform._BLOCK)
        assert peak < full / 2
        if n**q > 2000:  # the blocks are small beside a 45^4 array
            assert peak < full / 10

    def test_scratch_is_kept_and_freed_with_its_thread(self):
        case = pairing_case(4, 5, True)
        full = 4**10 * 16
        tracemalloc.start()
        try:
            kept = on_new_thread(lambda: (pairing_check_basis(*case),
                                          tracemalloc.get_traced_memory()[0])[1])
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept >= full
        assert left < 0.1 * full

    def test_threads_match_serial_runs(self):
        # each thread runs every size, in its own order, so each grows its own
        # scratch array and views prefixes of it while the others run
        cases = [pairing_case(*c) for c in CONCURRENT_CASES]
        serial = [pairing_check_basis(*case) for case in cases]
        barrier = threading.Barrier(len(cases))

        def run(shift):
            order = [(shift + i) % len(cases) for i in range(2 * len(cases))]
            barrier.wait(timeout=60)
            return [(i, pairing_check_basis(*cases[i])) for i in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads change over between the pass's blocks
        try:
            with ThreadPoolExecutor(max_workers=len(cases)) as pool:
                results = list(pool.map(run, range(len(cases)), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(cases)
        for runs in results:
            for i, report in runs:
                assert repr(report) == repr(serial[i])

    def test_nested_check_does_not_share_the_scratch(self, monkeypatch):
        # a check that starts while another on the same thread holds the array
        # must not write over it
        outer_case, inner_case = pairing_case(3, 6, False), pairing_case(5, 4, False)
        expected = pairing_check_basis(*outer_case), pairing_check_basis(*inner_case)
        scan = protocol._hermitian_defect
        inner = []

        def scan_after_a_nested_check(x):
            if not inner:
                inner.append(None)  # so the nested check's own scan runs plainly
                inner[0] = pairing_check_basis(*inner_case)
            return scan(x)

        monkeypatch.setattr(protocol, "_hermitian_defect", scan_after_a_nested_check)
        assert pairing_check_basis(*outer_case) == expected[0]
        assert inner == [expected[1]]


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
        # the message states the bound, sqrt(2/3) for every valid matrix
        with pytest.raises(NoRealSolutionError, match=r"\|r\| <= 0\.816496580928 "):
            solve_companion(matrix_a, 0.9)
        with pytest.raises(NoRealSolutionError):
            solve_companion(matrix_a, -0.8165)  # just past -sqrt(2/3) = -0.81649658...

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_r_is_a_validation_error(self, matrix_a, r):
        with pytest.raises(ValidationError, match="must be finite"):
            solve_companion(matrix_a, r)

    def test_arbitrary_base_matrices(self):
        rng = np.random.default_rng(9)
        for seed in range(15):
            a = generate_random(3, seed=seed)
            r = float(rng.uniform(-0.8, 0.8))
            b = solve_companion(a, r, branch="minus" if seed % 2 else "plus")
            assert b.unitarity_defect() <= 1e-10
            assert pairing_check_rows(a, b, tol=1e-10).holds

    def test_last_column_without_weight(self):
        # rows 1 and 2 end in 0: A is far from unitary, accepted only at a loose tol
        third, half = 1 / np.sqrt(3), 1 / np.sqrt(2)
        a = validate([[third] * 3, [half, -half, 0], [-half, half, 0]], tol=0.9)
        with pytest.raises(DegenerateEliminationError, match="last column carries no weight"):
            solve_companion(a, 0.1)

    def test_unknown_branch(self, matrix_a):
        with pytest.raises(ValidationError, match="branch must be one of"):
            solve_companion(matrix_a, 0.2, branch="up")

    def test_requires_real_3x3(self, matrix_a):
        with pytest.raises(ValidationError):
            solve_companion(generate_random(4, seed=0), 0.1)
        with pytest.raises(ValidationError):
            solve_companion(generate_random(3, seed=0, complex_entries=True), 0.1)


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

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_published_equations_reveal_rows_up_to_sign(self, tmp_path, n):
        # the masking hides nothing: in the equation naming rows l and k, the
        # coefficients of b_k_* are a nonzero multiple of A[l], and those of b_l_* of A[k]
        a = generate_random(n, seed=n)
        path = tmp_path / "masked.json"
        save_masked_system(mask_constraints(a, mask_seed=n + 1), path)
        recovered = {}
        for eq in load_masked_system(path).equations:
            rows = sorted({int(name.split("_")[1]) for name in eq.coeffs})
            for row, other in (rows, rows[::-1]):
                coeffs = np.array([eq.coeffs[f"b_{other}_{j}"] for j in range(n)])
                unit = coeffs / np.linalg.norm(coeffs)
                recovered.setdefault(row, []).append(unit)
        assert sorted(recovered) == list(range(1, n))
        for row, units in recovered.items():
            target = a.entries[row] / np.linalg.norm(a.entries[row])
            for unit in units:
                assert min(np.abs(unit - target).max(), np.abs(unit + target).max()) <= 1e-12


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
            [{"coeffs": {"b_1_0": "2.5"}}],
            [{"coeffs": {"b_1_0": True}}],
            [{"coeffs": {"b_1_0": 1.0}, "rhs": "1"}],
            [{"coeffs": {"b_1_0": [1.0, 0.0]}, "rhs": [0.0, 0.0]}],
            [{"coeffs": {"b_1_0": 1.0, "b_01_0": 2.0}}],  # both name the unknown b_1_0
            [{"coeffs": {"b_\u0661_2": 1.0}}],
            [{"coeffs": {"b_ 2_1": 1.0}}],
            [{"coeffs": {"b_0_1": 1.0}}],  # row 0 is the constant row
        ],
        ids=["dict-root", "list-item", "no-coeffs", "list-coeffs", "str-coeff",
             "null-coeff", "nan-coeff", "inf-rhs", "int-root", "numeric-str-coeff",
             "bool-coeff", "str-rhs", "complex-pairs", "leading-zero-name", "arabic-digit-name",
             "spaced-name", "row-zero-name"],
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

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_best_residual_is_the_dense_masked_residual(self, n):
        # oracle: each equation as a dense (N-1) x N coefficient array over B's rows 1..N-1
        a = generate_random(n, seed=6)
        b_rows = solve_companion_numeric(a, None, seed=1).entries[1:]  # masking moves no entry
        other = mask_constraints(generate_random(n, seed=7), mask_seed=2)
        dense = []
        for eq in other.equations:
            coeff = np.zeros((n - 1, n))
            for name, value in eq.coeffs.items():
                _, i, j = name.split("_")
                coeff[int(i) - 1, int(j)] = value
            dense.append(abs((coeff * b_rows).sum() - eq.rhs))
        with pytest.raises(NoConvergenceError) as info:
            solve_companion_numeric(a, other, seed=1, tol=1e-10)
        assert info.value.best_residual == pytest.approx(max(dense), rel=0, abs=1e-15)

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

    def test_masked_system_of_another_size(self, matrix_a):
        masked = mask_constraints(generate_random(4, seed=7), mask_seed=2)
        with pytest.raises(DimensionMismatchError, match="masked system has n=4, matrix has n=3"):
            solve_companion_numeric(matrix_a, masked)

    def test_complex_matrix_with_a_masked_system(self):
        a = generate_random(3, seed=4, complex_entries=True)
        masked = MaskedConstraintSystem(n=3, equations=())
        with pytest.raises(ValidationError, match="masked systems carry real coefficients"):
            solve_companion_numeric(a, masked)

    def test_unknown_out_of_range(self, matrix_a):
        masked = MaskedConstraintSystem(n=3, equations=(MaskedEquation({"b_5_0": 1.0}),))
        with pytest.raises(ValidationError, match="unknown 'b_5_0' out of range for n=3"):
            solve_companion_numeric(matrix_a, masked)

    def test_no_convergence_reports_best_residual(self, matrix_a):
        with pytest.raises(NoConvergenceError) as info:
            # tol must be positive: the least positive double is a bar no rounding meets
            solve_companion_numeric(matrix_a, None, seed=0, tol=5e-324)
        assert info.value.best_residual < 1e-6  # solver got close, bar was impossible

    def test_certification_reads_the_pairing_residual(self, matrix_a, monkeypatch):
        monkeypatch.setattr("gwalsh.protocol._hermitian_defect", lambda x: (1.0, (0, 0)))
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

    def test_default_channel_is_one_per_message(self, matrix_a, matrix_b, signal_f,
                                                monkeypatch):
        channels = []
        put = InMemoryChannel.put
        monkeypatch.setattr(InMemoryChannel, "put",
                            lambda self, name, message: channels.append(self) or
                            put(self, name, message))
        run_exchange(matrix_a, matrix_b, signal_f)
        assert len({id(channel) for channel in channels}) == len(channels) == 3

    @pytest.mark.parametrize("n,q,complex_values", [(3, 9, False), (4, 6, True)],
                             ids=["real-3-9", "complex-4-6"])
    def test_default_channel_holds_one_message_in_flight(self, n, q, complex_values):
        # each message's channel is dropped once it is received, so the exchange holds
        # its four returned arrays and one message in flight: about 5.15 message arrays
        # with the transform's blocks; three stored messages would add three more
        a = generate_random(n, seed=1, complex_entries=complex_values)
        b = solve_companion_numeric(a, seed=2)
        s = random_signal(n, q, seed=3, complex_values=complex_values)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert run_exchange(a, b, s).max_error <= 1e-9
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 6 * s.values.nbytes

    def test_caller_channel_keeps_all_three_messages(self, matrix_a, matrix_b, signal_f):
        channel = InMemoryChannel()
        transcript = run_exchange(matrix_a, matrix_b, signal_f, channel)
        for field in ("w1", "w2", "w3"):
            sent, kept = getattr(transcript, field), channel.get(f"{field}.csv")
            assert type(kept) is type(sent) and kept is not sent
            assert _cells(kept).tobytes() == _cells(sent).tobytes()

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
            lambda d: d.__setitem__("q", -1),
            lambda d: d.update(n=1, q=0, w1=[0.5], w2=[0.5], w3=[0.5], recovered=[0.5]),
            lambda d: d.__setitem__("max_error", "x"),
            lambda d: d.__setitem__("max_error", None),
            lambda d: d.__setitem__("pairing_violated", "false"),
            lambda d: d.__setitem__("pairing_violated", 0),
            lambda d: d["w1"].__setitem__(1, "0.5"),
            lambda d: d["w2"].__setitem__(0, True),
            lambda d: d.__setitem__("max_error", float("inf")),
        ],
        ids=["missing-message", "missing-n", "null-value", "string-value", "message-str",
             "triples", "n-fraction", "n-str", "q-fraction", "q-null", "q-negative",
             "base-one", "max-error-str", "max-error-null", "violated-str", "violated-int",
             "numeric-str-value", "bool-value", "max-error-inf"],
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

        with pytest.raises(DimensionMismatchError):
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


def _cells(message) -> np.ndarray:
    return message.values if isinstance(message, Signal) else message.coeffs


def _typed_values(dtype) -> np.ndarray:
    """Nine values of ``dtype``, computed in it so they carry its own rounding."""
    if dtype is object:
        return np.array([True, 2, 0.5, 1 / 3, 1j / 3, np.float32(0.1), np.complex64(0.1j),
                         np.int8(-4), -0.0], dtype=object)
    if np.dtype(dtype).kind == "b":
        return np.arange(9) % 2 == 1
    values = np.arange(-4, 5).astype(dtype)
    if np.dtype(dtype).kind == "c":
        values = values + np.arange(9).astype(dtype) * dtype(1j)
    return values / dtype(3) if np.dtype(dtype).kind in "fc" else values


@pytest.mark.parametrize("cls", [Signal, CoefficientVector])
@pytest.mark.parametrize("dtype", [bool, np.int64, np.float16, np.float32, np.float64,
                                   np.longdouble, np.complex64, np.complex128, np.clongdouble,
                                   object], ids=lambda t: np.dtype(t).name)
def test_every_number_type_crosses_each_channel_exactly(tmp_path, cls, dtype):
    # values are stored as float64 or complex128 whatever their input type, so the
    # in-memory channel, the file channel and the repr CSV each give back the same bits
    message = cls(3, 2, _typed_values(dtype))
    stored = _cells(message)
    assert stored.dtype == (np.complex128 if np.iscomplexobj(stored) else np.float64)
    received = [message_from_text(message_to_text(message))]
    for channel in (InMemoryChannel(), DirectoryChannel(tmp_path)):
        channel.put("m", message)
        received.append(channel.get("m"))
    for back in received:
        assert type(back) is cls and (back.base, back.q) == (3, 2)
        assert _cells(back).dtype == stored.dtype
        assert _cells(back).tobytes() == stored.tobytes()


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

    def test_put_rejects_text(self):
        with pytest.raises(TypeError):
            InMemoryChannel().put("m", "# gwalsh signal N=2 q=0\n1.0\n")

    @pytest.mark.parametrize("message,kind", [
        (Signal(3, 1, [1.0, np.nan, 3.0]), "signal"),
        (CoefficientVector(3, 1, [1.0, -np.inf, 3.0]), "coeffs"),
        (CoefficientVector(3, 1, [1.0, complex(0, np.inf), 3.0]), "coeffs"),
    ], ids=["nan", "inf", "complex-inf"])
    def test_non_finite_value_rejected_on_get(self, message, kind):
        # the message types accept non-finite values; the channel's get rejects them
        channel = InMemoryChannel()
        channel.put("m", message)
        with pytest.raises(ValidationError, match=f"non-finite value in a gwalsh {kind} message"):
            channel.get("m")

    @pytest.mark.parametrize("cls", [Signal, CoefficientVector])
    def test_received_array_is_fresh(self, cls):
        sent = cls(3, 2, np.arange(9.0) / 3)
        channel = InMemoryChannel()
        channel.put("m", sent)
        first, second = channel.get("m"), channel.get("m")
        assert first is not sent and second is not first
        for received in (first, second):
            assert not _cells(received).flags.writeable
            assert not np.shares_memory(_cells(received), _cells(sent))
        assert not np.shares_memory(_cells(first), _cells(second))

    def test_numpy_integer_base_arrives_as_int(self, matrix_a, matrix_b, tmp_path):
        # the transcript JSON takes N and q from the received w1, so they must be ints
        s = Signal(np.int64(3), np.int32(2), np.arange(9.0))
        transcript = run_exchange(matrix_a, matrix_b, s)
        assert (type(transcript.w1.base), type(transcript.w1.q)) == (int, int)
        save_transcript(transcript, tmp_path / "t.json")
        loaded = load_transcript(tmp_path / "t.json")
        assert (loaded.w1.base, loaded.w1.q) == (3, 2)


def test_readme_library_tour_runs(monkeypatch):
    # the tour's exchange uses the default channel: its three messages cross InMemoryChannel
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    received = []
    get = InMemoryChannel.get
    monkeypatch.setattr(InMemoryChannel, "get",
                        lambda self, name: received.append(name) or get(self, name))
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    assert received == ["w1.csv", "w2.csv", "w3.csv"]
    assert namespace["t"].max_error < 1e-7


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


def test_one_pass_work_starts_no_thread(monkeypatch):
    # a 3^9 exchange and the 3^6, 5^4 and 8^3 grids pass over 17 blocks or fewer,
    # under _SPLIT_BLOCKS: serial on any host
    def no_thread(*args, **kwargs):
        raise AssertionError("a pass under _SPLIT_BLOCKS blocks started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    a = generate_random(3, seed=1)
    b = solve_companion_numeric(a, seed=2)
    assert run_exchange(a, b, random_signal(3, 9, seed=3)).max_error <= 1e-10
    assert pairing_check_basis(a, b, 6).holds
    for n, q in ((5, 4), (8, 3)):
        a = generate_random(n, seed=n)
        assert pairing_check_basis(a, solve_companion_numeric(a, seed=n), q).holds


def test_import_loads_no_heavy_module():
    # importing gwalsh adds no module that costs start-up time: one uuid
    # import once cost 8 ms of the CLI's set-up
    heavy = ("argparse", "asyncio", "concurrent.futures", "scipy", "uuid")
    code = ("import sys\nbefore = set(sys.modules)\nimport gwalsh\n"
            f"print(sorted(set({heavy!r}) & (set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
