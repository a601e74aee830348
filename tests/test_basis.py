import subprocess
import sys
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_values as rv
from gwalsh import (
    BadRowError,
    DigitOverflowError,
    OutOfDomainError,
    ValidationError,
    cell_average,
    digits,
    dirichlet_kernel,
    generate_random,
    gram_defect,
    grid_matrix,
    kernel_deviation,
    m_eval,
    martingale_check,
    norm_bound_check,
    pairing_check_basis,
    partial_sum,
    random_signal,
    r_map,
    validate,
    walsh_eval,
    walsh_on_grid,
)
from gwalsh.basis import (
    _SAMPLE_CHUNK,
    MAX_GRID,
    MAX_SAMPLES,
    _kernel_product,
    cell_count,
    cell_of,
    digit_length,
    scaled_rows,
)


def dense_gram_defect(a, q):
    """Oracle: deviation from I of the Gram matrix of the dense grid matrix."""
    m = grid_matrix(a, q)
    gram = (m @ m.conj().T) / a.n**q
    return float(np.abs(gram - np.eye(a.n**q)).max())


def kron_grid_matrix(a, q):
    """Oracle: the q-fold Kronecker power of the m_i, rows in n's digit order."""
    width = a.n**q
    # the Kronecker power's row digits run most significant first, n's least
    # significant first: reverse the row axes of the (N,)*q view
    power = reduce(np.kron, [scaled_rows(a)] * q).reshape((a.n,) * q + (width,))
    return power.transpose(*range(q)[::-1], q).reshape(width, width)


def unchunked_kernel_deviation(a, q, samples, seed):
    """Oracle: kernel_deviation's formula on all sampled pairs at once."""
    width = a.n**q
    points = np.random.default_rng(seed).random((samples, 2))
    cells = np.minimum((points * width).astype(np.int64), width - 1)
    jx, jt = cells[:, [0, 1, 0, 0]].reshape(-1, 2).T
    return float(np.abs(_kernel_product(a, q, jx, jt) / width - (jx == jt)).max())


def kron_kernel(a, q, x, t):
    """Oracle: the kernel sum over all n < N^q of Kronecker-product columns."""
    r = scaled_rows(a)

    def column(j):
        kdig = digits(j, a.n, pad_to=q)[::-1]
        return reduce(np.kron, [r[:, kdig[i]] for i in reversed(range(q))])

    col_x = column(cell_of(x, a.n, q).j)
    col_t = column(cell_of(t, a.n, q).j)
    return (col_x * np.conj(col_t)).sum()


def loop_kernel_deviation(a, q, samples, seed, kernel=kron_kernel):
    """Oracle: one scalar draw pair per sample, checked as (x, t) and (x, x).

    The deviation is that of the kernel sum divided by N^q from the
    same-cell indicator.
    """
    rng = np.random.default_rng(seed)
    width = a.n**q
    worst = 0.0
    for _ in range(samples):
        x, t = rng.random(), rng.random()
        same = cell_of(x, a.n, q).j == cell_of(t, a.n, q).j
        worst = max(worst, float(abs(kernel(a, q, x, t) / width - same)),
                    float(abs(kernel(a, q, x, x) / width - 1)))
    return worst


ORACLE_MATRICES = [
    (base, complex_entries)
    for base in (2, 3, 4, 5)
    for complex_entries in (False, True)
]


class TestDigits:
    def test_examples(self):
        assert digits(0, 3, 3) == (0, 0, 0)
        assert digits(5, 3, 3) == (2, 1, 0)
        assert digits(5, 3) == (2, 1)

    def test_overflow(self):
        with pytest.raises(DigitOverflowError):
            digits(27, 3, 3)

    def test_negative(self):
        with pytest.raises(ValidationError, match="n must be nonnegative, got -1"):
            digits(-1, 3)

    @given(st.integers(2, 7), st.integers(0, 10_000))
    def test_round_trip(self, base, n):
        def value(ds):
            return sum(d * base**t for t, d in enumerate(ds))

        assert value(digits(n, base)) == n
        assert value(digits(n, base, pad_to=digit_length(n, base) + 3)) == n

    def test_digit_length(self):
        assert digit_length(0, 3) == 0
        assert digit_length(1, 3) == 1
        assert digit_length(26, 3) == 3
        assert digit_length(27, 3) == 4

    @pytest.mark.parametrize(
        "call",
        ["digit_length(5, 1)", "digit_length(5, 0)", "digits(5, 1, 3)",
         "signal_from_digits('01', base=1)", "Signal.from_values(1, [0.0, 0.0])"],
    )
    def test_base_below_two_rejected(self, call):
        # base 1 never ends the digit loop: run in a child process so a hang fails the test
        code = ("from gwalsh import Signal, ValidationError, digits, signal_from_digits\n"
                "from gwalsh.basis import digit_length\n"
                f"try:\n    {call}\nexcept ValidationError:\n    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=20)
        assert result.returncode == 0, result.stderr

    def test_base_one_rejected_in_process(self):
        # n = 0 never enters the digit loop, so the check runs here without a hang risk
        with pytest.raises(ValidationError, match="base must be at least 2, got 1"):
            digit_length(0, 1)


class TestIntegerArguments:
    """Integer arguments follow matrix.is_integer: an int or numpy integer, not a bool."""

    @pytest.mark.parametrize("call,text", [
        (lambda a: digits(5, 2.5), "base must be an integer, got 2.5"),
        (lambda a: digits(5.0, 3), "n must be an integer, got 5.0"),
        (lambda a: digits(5, 3, pad_to=2.0), "pad_to must be an integer, got 2.0"),
        (lambda a: digit_length(5, 2.5), "base must be an integer, got 2.5"),
        (lambda a: digit_length(True, 3), "n must be an integer, got True"),
        (lambda a: m_eval(a, True, 0.5), "row index must be an integer, got True"),
        (lambda a: m_eval(a, 1.0, 0.5), "row index must be an integer, got 1.0"),
        (lambda a: walsh_eval(a, 2.0, 0.5), "n must be an integer, got 2.0"),
        (lambda a: walsh_eval(a, True, 0.5), "n must be an integer, got True"),
        (lambda a: walsh_on_grid(a, True, 2), "n must be an integer, got True"),
        (lambda a: walsh_on_grid(a, "1", 2), "n must be an integer, got '1'"),
    ], ids=["digits-float-base", "digits-float-n", "digits-float-pad", "length-float-base",
            "length-bool-n", "m-bool-row", "m-float-row", "walsh-float-n", "walsh-bool-n",
            "grid-bool-n", "grid-str-n"])
    def test_rejected(self, matrix_a, call, text):
        # each used to return a value (digits (0.0, 2.0), a 1x3 m_eval array, W_1 on the
        # grid) or raise a bare IndexError or TypeError
        with pytest.raises(ValidationError, match=text):
            call(matrix_a)

    def test_numpy_integers_accepted(self, matrix_a):
        assert digits(np.int64(1000), np.uint8(3), pad_to=np.int32(8)) == digits(1000, 3, 8)
        assert all(type(d) is int for d in digits(np.int64(5), 3))
        assert m_eval(matrix_a, np.int64(1), 0.1) == m_eval(matrix_a, 1, 0.1)
        assert walsh_eval(matrix_a, np.int64(7), 0.3) == walsh_eval(matrix_a, 7, 0.3)
        assert np.array_equal(walsh_on_grid(matrix_a, np.int64(7), 2),
                              walsh_on_grid(matrix_a, 7, 2))

    def test_row_out_of_range_stays_bad_row(self, matrix_a):
        for i in (3, -1, np.int64(3)):
            with pytest.raises(BadRowError):
                m_eval(matrix_a, i, 0.5)


class TestRMap:
    def test_examples(self):
        assert r_map(0.1, 3) == pytest.approx(0.3)
        assert r_map(1.0 / 3.0, 3) == 0.0  # 1/3 belongs to the cell on its right
        assert r_map(0.75, 2) == 0.5

    def test_domain(self):
        with pytest.raises(OutOfDomainError):
            r_map(1.0, 3)
        with pytest.raises(OutOfDomainError):
            r_map(-0.1, 3)

    @pytest.mark.parametrize("base", [1, 0, -2])
    def test_base_below_two_rejected(self, base):
        # r_map(0.3, 0) was 1.0 and r_map(0.3, -2) was 2.4, outside [0, 1)
        with pytest.raises(ValidationError, match="N >= 2"):
            r_map(0.3, base)


class TestCellOf:
    def test_half_open(self):
        assert cell_of(0.0, 3, 2).j == 0
        assert cell_of(1.0 / 9.0, 3, 2).j == 1
        assert cell_of(np.nextafter(1.0, 0.0), 3, 2).j == 8


class TestMEval:
    def test_row_zero_is_exactly_one(self, matrix_a):
        for x in (0.0, 0.17, 0.5, 0.999):
            assert m_eval(matrix_a, 0, x) == 1.0

    def test_example_value(self, matrix_a):
        assert m_eval(matrix_a, 1, 0.1) == pytest.approx(np.sqrt(6) / 2, abs=1e-12)

    def test_classic_signs(self):
        m = validate(rv.CLASSIC_N2, tol=1e-10)
        assert m_eval(m, 1, 0.25) == pytest.approx(1.0, abs=1e-12)
        assert m_eval(m, 1, 0.75) == pytest.approx(-1.0, abs=1e-12)

    def test_errors(self, matrix_a):
        with pytest.raises(BadRowError):
            m_eval(matrix_a, 3, 0.5)
        with pytest.raises(OutOfDomainError):
            m_eval(matrix_a, 1, 1.0)


class TestWalshEval:
    def test_index_zero_identically_one(self, matrix_a):
        for x in (0.0, 0.3, 0.6, 0.95):
            assert walsh_eval(matrix_a, 0, x) == 1.0

    def test_classic_first_function(self):
        m = validate(rv.CLASSIC_N2, tol=1e-10)
        assert walsh_eval(m, 1, 0.2) == pytest.approx(1.0, abs=1e-12)
        assert walsh_eval(m, 1, 0.7) == pytest.approx(-1.0, abs=1e-12)

    def test_single_digit_matches_m(self, matrix_a):
        assert walsh_eval(matrix_a, 1, 0.1) == pytest.approx(np.sqrt(6) / 2, abs=1e-12)

    def test_product_structure(self):
        # digit concatenation: W_n(x) * W_{m * N^p}(x) = W_{n + m * N^p}(x)
        # pointwise whenever n < N^p
        rng = np.random.default_rng(7)
        for seed in range(20):
            base = int(rng.integers(2, 5))
            a = generate_random(base, seed=seed)
            p = int(rng.integers(1, 4))
            n = int(rng.integers(0, base**p))
            m = int(rng.integers(0, base**3))
            x = float(rng.random())
            combined = walsh_eval(a, n + m * base**p, x)
            split = walsh_eval(a, n, x) * walsh_eval(a, m * base**p, x)
            assert abs(combined - split) <= 1e-12

    def test_negative_index_rejected(self, matrix_a):
        # digits owns the n >= 0 check, so a point outside [0, 1) is reported first
        with pytest.raises(ValidationError, match="n must be nonnegative, got -1"):
            walsh_eval(matrix_a, -1, 0.5)
        with pytest.raises(OutOfDomainError):
            walsh_eval(matrix_a, -1, 1.5)


class TestWalshOnGrid:
    def test_index_zero_all_ones(self, matrix_a):
        np.testing.assert_array_equal(walsh_on_grid(matrix_a, 0, 2), np.ones(9))

    def test_level_one_row(self, matrix_a):
        expected = np.array([np.sqrt(6) / 2, 0.0, -np.sqrt(6) / 2])
        np.testing.assert_allclose(walsh_on_grid(matrix_a, 1, 1), expected, atol=1e-12)

    def test_matches_pointwise_eval_at_midpoints(self):
        for base, seed in [(2, 0), (3, 1), (4, 2)]:
            a = generate_random(base, seed=seed)
            for q in (1, 2, 3):
                width = base**q
                for n in range(0, width, max(1, width // 7)):
                    grid = walsh_on_grid(a, n, q)
                    mids = [(2 * j + 1) / (2 * width) for j in range(width)]
                    pointwise = [walsh_eval(a, n, x) for x in mids]
                    np.testing.assert_allclose(grid, pointwise, atol=1e-12)

    def test_overflow(self, matrix_a):
        with pytest.raises(DigitOverflowError):
            walsh_on_grid(matrix_a, 9, 2)

    def test_same_rounding_at_every_resolution(self):
        # W_n for n < N^2 is constant on blocks of N^(q-2) finer cells, and
        # multiplying in the m_0 = 1 factors is exact, so the finer grid must
        # repeat the coarse values bit for bit; 16^4 complex cells are large
        # enough for NumPy to multiply in place into a temporary
        a = generate_random(16, seed=116, complex_entries=True)
        for n in (0, 1, 17, 50, 255):
            coarse = walsh_on_grid(a, n, 2)
            np.testing.assert_array_equal(walsh_on_grid(a, n, 4), np.repeat(coarse, 256))

    def test_classic_walsh_paley_values(self):
        # independent oracle: (-1)^popcount(n & bitreverse(j)) on a 16-cell grid
        m = validate(rv.CLASSIC_N2, tol=1e-10)
        q = 4
        for n in range(16):
            grid = walsh_on_grid(m, n, q)
            rev = [int(format(j, "04b")[::-1], 2) for j in range(16)]
            oracle = [(-1) ** bin(n & rev[j]).count("1") for j in range(16)]
            np.testing.assert_allclose(grid, oracle, atol=1e-12)


class TestGridMatrix:
    def test_rows_match_walsh_on_grid(self, matrix_a):
        m = grid_matrix(matrix_a, 2)
        for n in range(9):
            np.testing.assert_allclose(m[n], walsh_on_grid(matrix_a, n, 2), atol=1e-14)

    @pytest.mark.parametrize("base,q", [(2, 1), (2, 11), (3, 6), (5, 4), (8, 3), (45, 2)])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_bit_identical_to_kronecker_power(self, base, q, complex_entries):
        a = generate_random(base, seed=q, complex_entries=complex_entries)
        m = grid_matrix(a, q)
        assert m.T.flags.c_contiguous  # the (cells, functions) array the pairing check reads
        assert np.array_equal(m, kron_grid_matrix(a, q))

    @pytest.mark.parametrize("base,q", [(3, 6), (5, 4), (2, 11)])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_only_full_size_array_is_the_result(self, base, q, complex_entries):
        # a step laid out in its operands' stride order made the reshape copy:
        # a peak of 2.1-2.25 times the result
        a = generate_random(base, seed=q, complex_entries=complex_entries)
        tracemalloc.start()
        try:
            m = grid_matrix(a, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * m.nbytes

    def test_orthonormality_random_matrices(self):
        for base in (2, 3, 4, 5):
            for q in (1, 2, 3):
                for seed in range(5):
                    a = generate_random(base, seed=seed)
                    assert gram_defect(a, q) <= 1e-10

    def test_orthonormality_complex(self):
        a = generate_random(3, seed=9, complex_entries=True)
        assert gram_defect(a, 2) <= 1e-10

    @pytest.mark.parametrize("base, q, complex_entries", [(3, 8, False), (2, 30, False),
                                                          (4, 12, True)])
    def test_orthonormality_past_the_dense_grid(self, base, q, complex_entries):
        # the closed form never forms the N^q x N^q Gram, so MAX_GRID does not limit it
        assert base**q > MAX_GRID
        a = generate_random(base, seed=q, complex_entries=complex_entries)
        assert gram_defect(a, q) <= 1e-10


class TestDirichletKernel:
    def test_same_cell_value(self, matrix_a):
        assert dirichlet_kernel(matrix_a, 1, 0.1, 0.2) == pytest.approx(3.0, abs=1e-12)

    def test_different_cell_zero(self, matrix_a):
        assert dirichlet_kernel(matrix_a, 1, 0.1, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_random_points(self):
        rng = np.random.default_rng(123)
        for base, seed in [(2, 0), (3, 1), (4, 2)]:
            a = generate_random(base, seed=seed)
            for q in (1, 2, 3):
                width = base**q
                for _ in range(200):
                    x, t = rng.random(), rng.random()
                    expected = width if cell_of(x, base, q).j == cell_of(t, base, q).j else 0.0
                    assert abs(dirichlet_kernel(a, q, x, t) - expected) <= 1e-9

    def test_unit_integral(self, matrix_a):
        q = 3
        width = 3**q
        x = 0.37
        total = sum(
            dirichlet_kernel(matrix_a, q, x, (2 * j + 1) / (2 * width)) for j in range(width)
        )
        assert total / width == pytest.approx(1.0, abs=1e-10)

    def test_kernel_deviation_helper(self, matrix_a):
        assert kernel_deviation(matrix_a, 3, samples=200, seed=1) <= 1e-10

    @pytest.mark.parametrize("q,samples", [(1, 40), (3, 60), (6, 30)])
    def test_kernel_deviation_matches_dirichlet_loop(self, matrix_b, q, samples):
        # matrix_b is unitary only to 1e-8, so every sample carries a deviation
        # to compare; the loop also checks each x against itself
        expected = loop_kernel_deviation(matrix_b, q, samples, seed=q, kernel=dirichlet_kernel)
        assert kernel_deviation(matrix_b, q, samples=samples, seed=q) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_kernel_deviation_chunks_equal_one_pass(self, complex_entries):
        a = generate_random(8, seed=1, complex_entries=complex_entries)
        samples = 3 * _SAMPLE_CHUNK + 1234  # a partial last chunk
        assert kernel_deviation(a, 6, samples=samples, seed=4) == unchunked_kernel_deviation(
            a, 6, samples, seed=4)

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_kernel_deviation_memory_bounded(self, complex_entries):
        # evaluated at once, 10^6 pairs take about 160 B each: a 150-190 MB peak
        a = generate_random(8, seed=1, complex_entries=complex_entries)
        tracemalloc.start()
        try:
            kernel_deviation(a, 6, samples=MAX_SAMPLES, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    @pytest.mark.parametrize("base,q", [(3, 6), (5, 4), (8, 3)])
    def test_kernel_deviation_always_checks_the_same_cell(self, base, q):
        # with one sample the pair (x, t) almost never shares a cell, so a
        # wrong same-cell value shows only through the (x, x) check
        a = generate_random(base, seed=0)
        r = scaled_rows(a).copy()
        # raises the same-cell value by about q * 1e-6 relative; the kernel
        # of two cells that differ in several digits stays near 0
        r[1] *= 1 + 1e-6
        skewed = validate(r / np.sqrt(base), tol=1e-5)
        assert kernel_deviation(skewed, q, samples=1, seed=0) >= 1e-7

    def test_kernel_deviation_relative_at_fine_resolution(self):
        # the same-cell value 3^18 carries rounding of order 3^18 * 18 * eps
        a = generate_random(3, seed=0)
        assert kernel_deviation(a, 18) <= 1e-13


@settings(max_examples=25)
@given(st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1))
def test_kernel_cell_indicator_on_grid(nx, nt):
    # grid-level restatement: the kernel sum over the first N^q functions
    # is N^q exactly when the two cells coincide
    a = validate(rv.MATRIX_A, tol=1e-10)
    q = 3
    width = 3**q
    jx, jt = nx % width, nt % width
    x = (2 * jx + 1) / (2 * width)
    t = (2 * jt + 1) / (2 * width)
    expected = width if jx == jt else 0.0
    assert abs(dirichlet_kernel(a, q, x, t) - expected) <= 1e-9


class TestAgainstDenseOracles:
    @pytest.mark.parametrize("base,complex_entries", ORACLE_MATRICES)
    def test_gram_defect(self, base, complex_entries, matrix_b):
        matrices = [generate_random(base, seed=seed, complex_entries=complex_entries)
                    for seed in range(3)]
        if base == 3 and not complex_entries:
            # each term of the closed form decides one of these: matrix_b is
            # unitary only to 1e-8 with diagonal entries below 1; rows 1 and 2
            # are made eps from orthogonal and row 1 is stretched to norm
            # 1 + 5e-4, which also shows the off-diagonal factor (max |G|)^(q-1)
            u, w = matrices[0].entries[1:]
            for eps, stretch in ((1e-7, 1.0), (0.1, 1 + 5e-4), (0.0, 1 + 5e-4)):
                skew = (w + eps * u) / np.linalg.norm(w + eps * u)
                rows = np.vstack([matrices[0].entries[0], stretch * u, skew])
                matrices.append(validate(rows, tol=0.2))
            matrices.append(matrix_b)
        for a in matrices:
            for q in (q for q in (1, 2, 3, 5) if base**q <= MAX_GRID):
                assert abs(gram_defect(a, q) - dense_gram_defect(a, q)) <= 1e-12

    @pytest.mark.parametrize("base,complex_entries", ORACLE_MATRICES)
    def test_dirichlet_kernel(self, base, complex_entries):
        rng = np.random.default_rng(base)
        a = generate_random(base, seed=base, complex_entries=complex_entries)
        for q in (1, 2, 3):
            for _ in range(30):
                x, t = rng.random(), rng.random()
                if rng.random() < 0.5:  # half the pairs share a cell
                    t = (cell_of(x, base, q).j + t) / base**q
                value = dirichlet_kernel(a, q, x, t)
                assert abs(value - kron_kernel(a, q, x, t)) <= 1e-12

    @pytest.mark.parametrize("base,complex_entries", ORACLE_MATRICES)
    def test_kernel_deviation(self, base, complex_entries):
        a = generate_random(base, seed=base + 10, complex_entries=complex_entries)
        for q in (1, 2, 3):
            fast = kernel_deviation(a, q, samples=150, seed=q)
            assert abs(fast - loop_kernel_deviation(a, q, 150, seed=q)) <= 1e-12


class TestResolutionBounds:
    @pytest.mark.parametrize("q", [0, -1])
    def test_q_below_one_rejected(self, matrix_a, q):
        with pytest.raises(ValidationError):
            grid_matrix(matrix_a, q)
        with pytest.raises(ValidationError):
            gram_defect(matrix_a, q)
        with pytest.raises(ValidationError):
            dirichlet_kernel(matrix_a, q, 0.1, 0.2)
        with pytest.raises(ValidationError):
            kernel_deviation(matrix_a, q)

    def test_no_samples_rejected(self, matrix_a):
        with pytest.raises(ValidationError):
            kernel_deviation(matrix_a, 2, samples=0)

    def test_numpy_int_samples_accepted(self, matrix_a):
        assert kernel_deviation(matrix_a, 2, samples=np.int64(5)) == kernel_deviation(
            matrix_a, 2, samples=5)

    # samples is an integer that is not a boolean: 2.5 and True raised a bare TypeError
    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**18, 2.5, 5.0, True, False, "5",
                                         None],
                             ids=["over-limit", "past-index-range", "fraction", "float", "true",
                                  "false", "str", "none"])
    def test_too_many_samples_rejected_at_once(self, matrix_a, samples):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=f"between 1 and {MAX_SAMPLES}"):
            kernel_deviation(matrix_a, 2, samples=samples)
        assert time.perf_counter() - start < 1

    def test_cells_beyond_two_to_the_53_rejected(self, matrix_a):
        q = 34  # 3^33 < 2^53 < 3^34
        with pytest.raises(ValidationError):
            kernel_deviation(matrix_a, q, samples=10)
        with pytest.raises(ValidationError):
            dirichlet_kernel(matrix_a, q, 0.1, 0.2)
        with pytest.raises(ValidationError):
            gram_defect(matrix_a, q)
        with pytest.raises(ValidationError):
            grid_matrix(matrix_a, q)
        assert np.isfinite(kernel_deviation(matrix_a, q - 1, samples=10))

    @settings(max_examples=300)
    @given(st.integers(2, 16), st.integers(0, 200),
           st.one_of(st.integers(0, 2**80), st.sampled_from([2**53, MAX_GRID, 5_000_000])),
           st.sampled_from([int, np.int64, np.uint64]))
    @example(16, 16, 2**53, np.int64)  # the numpy power 16^16 = 2^64 wraps to 0
    def test_cell_count_is_the_bounded_power(self, base, q, limit, integer):
        if base**q <= limit:
            count = cell_count(integer(base), integer(q), limit)
            assert count == base**q and type(count) is int
        else:
            with pytest.raises(ValidationError):
                cell_count(integer(base), integer(q), limit)

    def test_cell_count_decides_a_huge_q_without_the_power(self):
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            cell_count(3, 10**18)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("base,q", [(1, 3), (0, 2), (3, -1)])
    def test_cell_count_domain(self, base, q):
        with pytest.raises(ValidationError):
            cell_count(base, q)

    @pytest.mark.parametrize("base,q", [
        (2.0, 1), (np.float64(3.0), 2), (True, 1), (np.True_, 1), ("3", 1), (None, 1),
        (2, 1.0), (2, True), (2, np.False_), (2, "1"),
    ])
    def test_cell_count_needs_integers(self, base, q):
        # the rule of seeded_rng: an int or numpy integer, not a bool
        with pytest.raises(ValidationError, match="cell counts need integer N and q"):
            cell_count(base, q)

    @pytest.mark.parametrize(
        "call",
        [
            lambda a, s: cell_of(0.5, 3, 10**5),
            lambda a, s: random_signal(3, 10**5, 0),
            lambda a, s: cell_average(s, 10**5),
            lambda a, s: partial_sum(a, s, 3, 10**5),
            lambda a, s: martingale_check(a, s, 10**5),
            lambda a, s: norm_bound_check(a, s, 10**5),
            lambda a, s: pairing_check_basis(a, a, 10**7),
            lambda a, s: walsh_on_grid(a, 0, 10**5),
        ],
        ids=["cell_of", "random_signal", "cell_average", "partial_sum", "martingale_check",
             "norm_bound_check", "pairing_check_basis", "walsh_on_grid"],
    )
    def test_huge_q_rejected_at_once(self, matrix_a, signal_f, call):
        # each used to form N^q first: a hang, a MemoryError or an int-to-str ValueError
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            call(matrix_a, signal_f)
        assert time.perf_counter() - start < 1.0
