import asyncio
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_values as rv
from gwalsh import (
    BaseMismatchError,
    CoefficientVector,
    InMemoryChannel,
    Signal,
    ValidationError,
    count_multiplies,
    dwt_fast,
    dwt_naive,
    generate_random,
    grid_matrix,
    idwt,
    parseval_residual,
    random_signal,
    signal_from_digits,
)
from gwalsh import transform
from gwalsh.basis import digit_length, scaled_rows
from gwalsh.transform import (
    message_from_text,
    message_to_text,
    read_coefficients,
    read_signal,
    write_coefficients,
    write_signal,
)


class TestSignalTypes:
    def test_from_values_infers_resolution(self):
        s = Signal.from_values(3, np.zeros(27))
        assert (s.base, s.q) == (3, 3)

    def test_bad_length(self):
        with pytest.raises(ValidationError):
            Signal.from_values(3, np.zeros(10))
        with pytest.raises(ValidationError):
            Signal(base=3, q=2, values=np.zeros(8))

    @pytest.mark.parametrize("values,shape", [(5, r"\(\)"), ([[1, 2, 3]], r"\(1, 3\)")],
                             ids=["scalar", "2-d"])
    def test_from_values_not_one_dimensional(self, values, shape):
        with pytest.raises(ValidationError, match=f"one-dimensional, got shape {shape}"):
            Signal.from_values(3, values)

    def test_coefficient_vector_length(self):
        assert len(CoefficientVector(base=2, q=3, coeffs=np.zeros(8))) == 8

    def test_values_read_only(self, signal_f):
        with pytest.raises(ValueError):
            signal_f.values[0] = 5.0

    @pytest.mark.parametrize("dtype,stored", [
        (bool, np.float64), (np.int32, np.float64), (np.float32, np.float64),
        (np.float64, np.float64), (np.complex64, np.complex128),
        (np.complex128, np.complex128), (np.clongdouble, np.complex128),
    ])
    def test_values_are_a_private_copy(self, dtype, stored):
        raw = (np.arange(18) % 3).astype(dtype)[::2]  # strided input
        s = Signal(base=3, q=2, values=raw)
        assert s.values.dtype == stored
        np.testing.assert_array_equal(s.values, raw.astype(stored))
        assert not np.shares_memory(s.values, raw)
        assert not s.values.flags.writeable

    @pytest.mark.parametrize("raw", [np.arange(9.0), (1 + 1j) * np.arange(9)],
                             ids=["float64", "complex128"])
    def test_read_only_owned_array_is_kept(self, raw):
        # a read-only array that owns its memory and has the stored dtype, as a
        # transform's result does, is stored as it is
        raw.flags.writeable = False
        assert Signal(base=3, q=2, values=raw).values is raw
        assert CoefficientVector(base=3, q=2, coeffs=raw).coeffs is raw

    @pytest.mark.parametrize("raw,read_only", [
        (np.arange(9.0), False), (np.arange(18.0)[::2], True),
        (np.arange(9.0).reshape(3, 3).reshape(-1), True), (np.arange(9, dtype=np.float32), True),
        (np.arange(9, dtype=np.complex64), True), (np.arange(9, dtype=np.clongdouble), True),
    ], ids=["writeable", "strided", "view", "float32", "complex64", "clongdouble"])
    def test_other_arrays_are_copied(self, raw, read_only):
        # complex values of every width are stored as complex128, as real ones as float64
        raw.flags.writeable = not read_only
        want = np.complex128 if np.iscomplexobj(raw) else np.float64
        for stored in (Signal(3, 2, raw).values, CoefficientVector(3, 2, raw).coeffs):
            assert stored.dtype == want and stored.flags.owndata
            assert not stored.flags.writeable
            assert not np.shares_memory(stored, raw)
            np.testing.assert_array_equal(stored, raw)

    @pytest.mark.parametrize("base,values", [
        (3, ["1", "2", "3"]), (2, [None, 1]), (3, ["a", "b", "c"]),
        (2, np.array([1.0, "2"], dtype=object)), (2, [b"0", b"1"]),
        (2, np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]")), (2, [1, 10**400]),
        (2, [[1], [1, 2]]),
    ], ids=["numeric-strings", "none", "letters", "object-string", "bytes", "dates", "huge-int",
            "ragged"])
    def test_non_numbers_rejected(self, base, values):
        for cls in (Signal, CoefficientVector):
            with pytest.raises(ValidationError):
                cls(base, 1, values)

    def test_numbers_of_any_type_accepted(self):
        values = [True, 2, 2.5, np.float32(3), Fraction(1, 4), 10**30, np.True_, np.int8(7),
                  Decimal("0.5")]
        want = [1.0, 2.0, 2.5, 3.0, 0.25, 1e30, 1.0, 7.0, 0.5]
        for raw in (values, np.array(values, dtype=object)):
            s = Signal(base=3, q=2, values=raw)
            assert s.values.dtype == np.float64 and s.values.tolist() == want
        c = CoefficientVector(base=2, q=1, coeffs=np.array([1, np.complex64(2j)], dtype=object))
        assert c.coeffs.dtype == np.complex128 and c.coeffs.tolist() == [1, 2j]

    def test_object_array_converted_once(self):
        # the float64 array read from an object array is stored without a second copy
        raw = np.array([float(v) for v in range(3**10)], dtype=object)
        tracemalloc.start()
        try:
            s = Signal.from_values(3, raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.values.tolist() == raw.tolist()
        assert peak <= 1.2 * 8 * 3**10

    def test_inline_digits(self, signal_f):
        assert len(signal_f) == 27
        assert signal_f.values[3] == 1.0
        assert signal_f.values[26] == 2.0
        with pytest.raises(ValidationError):
            signal_from_digits("0a1", base=3)
        with pytest.raises(ValidationError):
            signal_from_digits("0011", base=3)  # 4 cells is not a power of 3

    @pytest.mark.parametrize("complex_values,bound", [(False, 1.05), (True, 1.55)],
                             ids=["real", "complex"])
    def test_random_signal_built_once(self, complex_values, bound):
        # the generator's draws, real parts first, in an array the signal keeps:
        # the peak is that array, and one draw more for a complex signal
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            s = random_signal(2, 16, seed=7, complex_values=complex_values)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        rng = np.random.default_rng(7)
        want = rng.random(2**16)
        if complex_values:
            want = want + 1j * rng.random(2**16)
        assert s.values.dtype == want.dtype
        assert s.values.tobytes() == want.tobytes()
        assert s.values.flags.owndata and not s.values.flags.writeable
        assert peak <= bound * s.values.nbytes

    def test_blank_inline_digits(self):
        with pytest.raises(ValidationError, match="empty inline signal"):
            signal_from_digits("  ", 3)


class TestForwardTransform:
    def test_constant_signal(self, matrix_a):
        s = Signal.from_values(3, np.full(27, 2.5))
        c = dwt_fast(matrix_a, s)
        assert c.coeffs[0] == pytest.approx(2.5, abs=1e-12)
        assert np.abs(c.coeffs[1:]).max() <= 1e-12

    def test_golden_coefficients(self, matrix_a, signal_f):
        for op in (dwt_naive, dwt_fast):
            c = op(matrix_a, signal_f)
            assert c.coeffs[0] == pytest.approx(rv.SIGNAL_MEAN, abs=1e-12)
            assert np.abs(c.coeffs[1:] - rv.ENCODED_TAIL).max() <= 1e-8

    def test_fast_matches_naive_randomized(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            base = int(rng.integers(2, 5))
            q = int(rng.integers(1, 5))
            a = generate_random(base, seed=trial)
            s = Signal(base=base, q=q, values=rng.standard_normal(base**q))
            fast = dwt_fast(a, s).coeffs
            naive = dwt_naive(a, s).coeffs
            assert np.abs(fast - naive).max() <= 1e-10

    def test_fast_matches_naive_complex(self):
        rng = np.random.default_rng(5)
        a = generate_random(3, seed=8, complex_entries=True)
        s = Signal(base=3, q=3, values=rng.standard_normal(27) + 1j * rng.standard_normal(27))
        fast = dwt_fast(a, s).coeffs
        naive = dwt_naive(a, s).coeffs
        assert np.abs(fast - naive).max() <= 1e-10

    def test_single_stage_is_matrix_product(self, matrix_a):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(3)
        c = dwt_fast(matrix_a, Signal(base=3, q=1, values=v))
        expected = (np.conj(matrix_a.entries) / np.sqrt(3)) @ v
        np.testing.assert_allclose(c.coeffs, expected, atol=1e-12)

    def test_base_mismatch(self, matrix_a):
        with pytest.raises(BaseMismatchError):
            dwt_fast(matrix_a, Signal.from_values(2, np.zeros(8)))

    def test_linearity(self, matrix_a):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(27)
        v = rng.standard_normal(27)
        alpha, beta = 1.7, -0.3
        lhs = dwt_fast(matrix_a, Signal(base=3, q=3, values=alpha * u + beta * v)).coeffs
        rhs = (
            alpha * dwt_fast(matrix_a, Signal(base=3, q=3, values=u)).coeffs
            + beta * dwt_fast(matrix_a, Signal(base=3, q=3, values=v)).coeffs
        )
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestInverseTransform:
    def test_round_trip_randomized(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            base = int(rng.integers(2, 5))
            q = int(rng.integers(1, 5))
            a = generate_random(base, seed=100 + trial)
            s = Signal(base=base, q=q, values=rng.standard_normal(base**q))
            back = idwt(a, dwt_fast(a, s))
            assert np.abs(back.values - s.values).max() <= 1e-10
            c = CoefficientVector(base=base, q=q, coeffs=rng.standard_normal(base**q))
            forward = dwt_fast(a, idwt(a, c))
            assert np.abs(forward.coeffs - c.coeffs).max() <= 1e-10

    def test_pure_zeroth_coefficient(self, matrix_a):
        c = CoefficientVector(base=3, q=2, coeffs=[4.0] + [0.0] * 8)
        s = idwt(matrix_a, c)
        np.testing.assert_allclose(s.values, np.full(9, 4.0), atol=1e-12)

    def test_matches_grid_synthesis(self, matrix_a):
        # independent route: v_j = sum_n c_n * W_n(cell j) via the dense grid
        rng = np.random.default_rng(3)
        c = rng.standard_normal(27)
        via_stages = idwt(matrix_a, CoefficientVector(base=3, q=3, coeffs=c)).values
        via_grid = grid_matrix(matrix_a, 3).T @ c
        assert np.abs(via_stages - via_grid).max() <= 1e-11

    def test_relayed_signal_shape(self, matrix_a, matrix_b, signal_f):
        # synthesis under the companion of the coefficients of f: still a
        # 27-cell real signal (its values are checked by the exchange tests)
        relayed = idwt(matrix_b, dwt_fast(matrix_a, signal_f))
        assert len(relayed) == 27
        assert not np.iscomplexobj(relayed.values)
        assert not np.allclose(relayed.values, signal_f.values)


class TestParseval:
    def test_exactly_unitary(self, matrix_a):
        rng = np.random.default_rng(2)
        s = Signal(base=3, q=3, values=rng.standard_normal(27))
        assert parseval_residual(matrix_a, s) <= 1e-10

    def test_approximately_unitary(self, matrix_b, signal_f):
        assert parseval_residual(matrix_b, signal_f) <= 1e-8

    def test_zero_signal(self, matrix_a):
        assert parseval_residual(matrix_a, Signal.from_values(3, np.zeros(27))) == 0.0


class TestMultiplyCount:
    @pytest.mark.parametrize("base,q", [(2, 3), (3, 2), (3, 5), (4, 3)])
    def test_forward_count_exact(self, base, q):
        a = generate_random(base, seed=1)
        s = random_signal(base, q, seed=2)
        with count_multiplies() as counter:
            dwt_fast(a, s)
        assert counter.count == q * base ** (q + 1)

    def test_inverse_count_exact(self):
        a = generate_random(3, seed=1)
        s = random_signal(3, 4, seed=2)
        c = dwt_fast(a, s)
        with count_multiplies() as counter:
            idwt(a, c)
        assert counter.count == 4 * 3**5

    def test_naive_not_counted(self, matrix_a, signal_f):
        with count_multiplies() as counter:
            dwt_naive(matrix_a, signal_f)
        assert counter.count == 0

    def test_direct_driver_call_not_counted(self):
        # the transforms own the tally: a batched pass-driver call on a flat
        # (cells, batch) array, one signal per column, counts nothing
        a = generate_random(3, seed=1)
        signals = [random_signal(3, 6, seed=seed) for seed in range(5)]
        with count_multiplies() as counter:
            out = transform._butterfly(a, np.stack([s.values for s in signals], axis=1), 6,
                                       inverse=False)
        assert counter.count == 0
        want = np.stack([dwt_fast(a, s).coeffs for s in signals], axis=1)
        np.testing.assert_allclose(out.reshape(want.shape), want, rtol=0, atol=1e-14)

    def test_nested_counters_both_count(self, matrix_a, signal_f):
        with count_multiplies() as outer:
            dwt_fast(matrix_a, signal_f)
            with count_multiplies() as inner:
                dwt_fast(matrix_a, signal_f)
        assert (outer.count, inner.count) == (2 * 3 * 3**4, 3 * 3**4)

    def test_counts_follow_the_context(self):
        # an asyncio task created in the block and an asyncio.to_thread call copy
        # its context and count; a plain thread starts in an empty one
        a = generate_random(3, seed=1)
        s = random_signal(3, 4, seed=2)
        seen = []

        async def transform_once():
            dwt_fast(a, s)

        async def main():
            with count_multiplies() as counter:
                await asyncio.create_task(transform_once())
                seen.append(counter.count)
                await asyncio.to_thread(dwt_fast, a, s)
                seen.append(counter.count)
                thread = threading.Thread(target=dwt_fast, args=(a, s))
                thread.start()
                thread.join(timeout=60)
                seen.append(counter.count)

        asyncio.run(main())
        assert seen == [4 * 3**5, 2 * 4 * 3**5, 2 * 4 * 3**5]

    def test_counts_are_per_thread(self):
        # more threads than cores and a short switch interval, so the
        # transforms of different threads interleave
        a = generate_random(3, seed=1)
        s = random_signal(3, 6, seed=2)
        workers, calls = 8, 20
        counts = [None] * workers
        start = threading.Barrier(workers)

        def work(i):
            with count_multiplies() as counter:
                start.wait(timeout=30)
                for _ in range(calls):
                    dwt_fast(a, s)
            counts[i] = counter.count

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with count_multiplies() as spectator:
                threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert counts == [calls * 6 * 3**7] * workers
        assert spectator.count == 0

    def test_threads_match_serial_at_multi_block_size(self):
        # 2^16 cells take two passes of several column blocks each; every
        # buffer is per call, so threads sharing the inputs need no locking
        a = generate_random(2, seed=1)
        s = random_signal(2, 16, seed=2)
        serial_c = dwt_fast(a, s).coeffs
        serial_v = idwt(a, CoefficientVector(base=2, q=16, coeffs=serial_c)).values
        workers, calls = 4, 10
        mismatches = [None] * workers
        start = threading.Barrier(workers)

        def work(i):
            start.wait(timeout=30)
            bad = 0
            for _ in range(calls):
                c = dwt_fast(a, s)
                bad += not np.array_equal(c.coeffs, serial_c)
                bad += not np.array_equal(idwt(a, c).values, serial_v)
            mismatches[i] = bad

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == [0] * workers


def _oracle_stages(kernel, data, base, q):
    """The two-pass stage: the product, then a transposing copy into rotated order."""
    out = data
    for _ in range(q):
        out = (kernel @ out.reshape(base, -1)).T.ravel()
    return out


def _oracle_dwt_fast(a, s):
    kernel = np.conj(scaled_rows(a)) / a.n
    return _oracle_stages(kernel, s.values, s.base, s.q).reshape((s.base,) * s.q).T.ravel()


def _oracle_idwt(a, c):
    reordered = c.coeffs.reshape((c.base,) * c.q).T.ravel()
    return _oracle_stages(scaled_rows(a).T, reordered, c.base, c.q)


class TestStageOracle:
    """Each stage is one product writing rotated order; the two-pass stage is the oracle."""

    @pytest.mark.parametrize("q", range(5))
    @pytest.mark.parametrize("base", [2, 3, 4, 5, 7, 16])
    def test_real_is_bit_identical(self, base, q):
        a = generate_random(base, seed=base + 10 * q)
        s = random_signal(base, q, seed=q)
        c = dwt_fast(a, s)
        back = idwt(a, c)
        for got, want in ((c.coeffs, _oracle_dwt_fast(a, s)), (back.values, _oracle_idwt(a, c))):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("q", range(5))
    @pytest.mark.parametrize("base", [2, 3, 4, 5, 7, 16])
    @pytest.mark.parametrize("complex_matrix,complex_signal",
                             [(True, False), (True, True), (False, True)],
                             ids=["complex-matrix", "both-complex", "complex-signal"])
    def test_complex_within_rounding(self, base, q, complex_matrix, complex_signal):
        # complex products may round differently with the operands swapped
        a = generate_random(base, seed=base + 10 * q, complex_entries=complex_matrix)
        s = random_signal(base, q, seed=q, complex_values=complex_signal)
        c = dwt_fast(a, s)
        back = idwt(a, c)
        bound = 4 * q * np.finfo(float).eps
        for got, want in ((c.coeffs, _oracle_dwt_fast(a, s)), (back.values, _oracle_idwt(a, c))):
            assert got.dtype == want.dtype
            assert np.abs(got - want).max() <= bound * np.abs(want).max()


def _oracle_stages_single_pass(kernel, data, base, q):
    """The unblocked stages: q full-array products, each writing rotated order."""
    out = data
    for _ in range(q):
        out = (out.reshape(base, -1).T @ kernel.T).ravel()
    return out


def _single_pass_dwt_fast(a, s):
    kernel = np.conj(scaled_rows(a)) / a.n
    staged = _oracle_stages_single_pass(kernel, s.values, s.base, s.q)
    return staged.reshape((s.base,) * s.q).T.ravel()


def _single_pass_idwt(a, c):
    reordered = c.coeffs.reshape((c.base,) * c.q).T.ravel()
    return _oracle_stages_single_pass(scaled_rows(a).T, reordered, c.base, c.q)


# larger than one block of 2^15 values and split into unequal passes; (17, 5)
# and (65, 3) were three passes before every transform became one or two
_MULTI_BLOCK = [(2, 16), (2, 17), (3, 10), (5, 7), (7, 6), (16, 4), (16, 5), (17, 5), (65, 3)]


class TestBlockedPasses:
    """The cache-blocked passes against q full-array stages and one final axis reversal."""

    @pytest.mark.parametrize("base,q", _MULTI_BLOCK)
    def test_real_is_bit_identical(self, base, q):
        a = generate_random(base, seed=base + q)
        s = random_signal(base, q, seed=q)
        c = dwt_fast(a, s)
        back = idwt(a, c)
        for got, want in ((c.coeffs, _single_pass_dwt_fast(a, s)),
                          (back.values, _single_pass_idwt(a, c))):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("base,q", _MULTI_BLOCK)
    @pytest.mark.parametrize("complex_matrix,complex_signal",
                             [(True, False), (True, True), (False, True)],
                             ids=["complex-matrix", "both-complex", "complex-signal"])
    def test_complex_within_rounding(self, base, q, complex_matrix, complex_signal):
        a = generate_random(base, seed=base + q, complex_entries=complex_matrix)
        s = random_signal(base, q, seed=q, complex_values=complex_signal)
        c = dwt_fast(a, s)
        back = idwt(a, c)
        bound = 4 * q * np.finfo(float).eps
        for got, want in ((c.coeffs, _single_pass_dwt_fast(a, s)),
                          (back.values, _single_pass_idwt(a, c))):
            assert got.dtype == want.dtype == np.complex128
            assert np.array_equal(got, want) or (
                np.abs(got - want).max() <= bound * np.abs(want).max())

    @pytest.mark.parametrize("base,q", _MULTI_BLOCK)
    def test_multiply_count_exact(self, base, q):
        a = generate_random(base, seed=1)
        s = random_signal(base, q, seed=2)
        with count_multiplies() as forward:
            c = dwt_fast(a, s)
        with count_multiplies() as inverse:
            idwt(a, c)
        assert forward.count == inverse.count == q * base ** (q + 1)

    @pytest.mark.parametrize("complex_matrix", [False, True])
    def test_q0_keeps_signal_dtype(self, complex_matrix):
        a = generate_random(3, seed=1, complex_entries=complex_matrix)
        s = Signal(base=3, q=0, values=np.array([2.5]))
        c = dwt_fast(a, s)
        back = idwt(a, c)
        assert c.coeffs.dtype == back.values.dtype == np.float64
        assert c.coeffs.tolist() == back.values.tolist() == [2.5]

    @pytest.mark.parametrize("base,q,groups", [
        (2, 20, [12, 8]), (2, 53, [12, 41]), (3, 15, [7, 8]), (300, 3, [1, 2]), (3, 9, [9]),
    ])
    def test_digit_groups(self, base, q, groups):
        # at most two passes, the first with N^m <= _LEAD; nothing is allocated
        assert transform._digit_groups(base, q) == groups

    @pytest.mark.parametrize("lead,block", [(4, 16), (9, 27), (16, 64), (2, 1)])
    @pytest.mark.parametrize("base,q", [(2, 9), (3, 5), (4, 4), (5, 3)])
    def test_many_passes(self, monkeypatch, lead, block, base, q):
        # small block constants split small inputs into two passes whose second
        # group is wider than _LEAD (or, at (4, 4) with _LEAD 16, as wide as the first)
        monkeypatch.setattr(transform, "_LEAD", lead)
        monkeypatch.setattr(transform, "_BLOCK", block)
        m = 1
        while base ** (m + 1) <= lead:
            m += 1
        assert transform._digit_groups(base, q) == [m, q - m]
        assert base ** (q - m) > lead or q - m == m
        for complex_values in (False, True):
            a = generate_random(base, seed=3, complex_entries=complex_values)
            s = random_signal(base, q, seed=4, complex_values=complex_values)
            with count_multiplies() as counter:
                c = dwt_fast(a, s)
                back = idwt(a, c)
            assert counter.count == 2 * q * base ** (q + 1)
            bound = 4 * q * np.finfo(float).eps
            for got, want in ((c.coeffs, _single_pass_dwt_fast(a, s)),
                              (back.values, _single_pass_idwt(a, c))):
                assert np.array_equal(got, want) or (
                    complex_values and np.abs(got - want).max() <= bound * np.abs(want).max())

    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_full_size_allocations(self, monkeypatch, inverse):
        # in both directions the first pass writes a fresh array and the
        # last pass writes over it
        a = generate_random(2, seed=1)
        s = random_signal(2, 16, seed=2)
        c = dwt_fast(a, s)
        sizes = []
        allocate = np.empty

        def counting_empty(shape, *args, **kwargs):
            sizes.append(shape)
            return allocate(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", counting_empty)
        if inverse:
            idwt(a, c)
        else:
            dwt_fast(a, s)
        assert transform._digit_groups(2, 16) == [12, 4]
        assert sizes.count(len(s)) == 1

    @pytest.mark.parametrize("lead,block,base,q", [
        (transform._LEAD, transform._BLOCK, 2, 16),
        (4, 16, 2, 9), (9, 27, 3, 5), (16, 64, 4, 4), (2, 1, 5, 3),
    ])
    @pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
    def test_inputs_never_overwritten(self, monkeypatch, lead, block, base, q, complex_values):
        monkeypatch.setattr(transform, "_LEAD", lead)
        monkeypatch.setattr(transform, "_BLOCK", block)
        assert len(transform._digit_groups(base, q)) == 2
        a = generate_random(base, seed=3, complex_entries=complex_values)
        s = random_signal(base, q, seed=4, complex_values=complex_values)
        signal_before = s.values.copy()
        c = dwt_fast(a, s)
        coeffs_before = c.coeffs.copy()
        back = idwt(a, c)
        assert np.array_equal(s.values, signal_before)
        assert np.array_equal(c.coeffs, coeffs_before)
        assert not np.shares_memory(c.coeffs, s.values)
        assert not np.shares_memory(back.values, c.coeffs)

    @pytest.mark.parametrize("base,q", [(3, 5), (2, 16)], ids=["one-pass", "two-pass"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_direct_call_only_reads_data(self, base, q, inverse):
        a = generate_random(base, seed=5, complex_entries=True)
        data = random_signal(base, q, seed=6).values.copy()  # writable
        before = data.copy()
        out = transform._butterfly(a, data, q, inverse=inverse)
        assert np.array_equal(data, before)
        assert not np.shares_memory(out, data)


class TestOwnResults:
    """dwt_fast and idwt store the pass driver's own output, read-only, without a copy."""

    @pytest.mark.parametrize("base,q,complex_values", [
        (2, 20, False), (3, 13, False), (4, 10, False), (16, 5, True),
    ])
    def test_peak_memory(self, base, q, complex_values):
        # in both directions the peak is the result and one pass's blocks; a copy
        # of the result, or a fresh array in each pass, would make it 2.0 arrays
        a = generate_random(base, seed=1, complex_entries=complex_values)
        s = random_signal(base, q, seed=2, complex_values=complex_values)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            c = dwt_fast(a, s)
            forward = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            back = idwt(a, c)
            inverse = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert forward <= 1.3 * c.coeffs.nbytes
        assert inverse <= 1.3 * back.values.nbytes

    @pytest.mark.parametrize("base,q", [(3, 5), (2, 16)], ids=["one-pass", "two-pass"])
    @pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
    def test_results_are_the_drivers_own(self, monkeypatch, base, q, complex_values):
        a = generate_random(base, seed=5, complex_entries=complex_values)
        s = random_signal(base, q, seed=6, complex_values=complex_values)
        outputs = []
        butterfly = transform._butterfly

        def recording(*args, **kwargs):
            outputs.append(butterfly(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(transform, "_butterfly", recording)
        c = dwt_fast(a, s)
        back = idwt(a, c)
        assert len(transform._digit_groups(base, q)) == (1 if q == 5 else 2)
        for got, output, source in ((c.coeffs, outputs[0], s.values),
                                    (back.values, outputs[1], c.coeffs)):
            assert got is output
            assert got.flags.owndata and not got.flags.writeable
            assert not np.shares_memory(got, source)
            with pytest.raises(ValueError):
                got[0] = 0


def _both_directions(a, s):
    c = dwt_fast(a, s)
    return c.coeffs, idwt(a, c).values


def _unsplit_both_directions(a, s):
    """``_both_directions`` with every pass on the calling thread."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "_SPLIT_BLOCKS", sys.maxsize)  # more than any pass has
        return _both_directions(a, s)


class TestCpuShares:
    """A pass of many blocks runs in two halves."""

    # threads started by a forward and an inverse transform: one per pass of at
    # least 32 blocks (the 1M-cell sizes); smaller passes run on the calling thread
    @pytest.mark.parametrize("base,q,threads", [
        (2, 16, 0), (2, 17, 0), (2, 19, 0), (3, 11, 0), (3, 12, 0), (4, 9, 0), (16, 4, 0),
        (2, 20, 4), (3, 13, 4), (4, 10, 4), (16, 5, 4),
    ])
    @pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
    def test_bit_identical_to_one_share(self, started_threads, base, q, threads, complex_values):
        a = generate_random(base, seed=base + q, complex_entries=complex_values)
        s = random_signal(base, q, seed=q, complex_values=complex_values)
        assert len(transform._digit_groups(base, q)) == 2
        serial = _unsplit_both_directions(a, s)
        assert not started_threads
        results = _both_directions(a, s)
        assert len(started_threads) == threads
        assert not any(t.is_alive() for t in started_threads)
        for got, want in zip(results, serial):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lead,block", [(4, 16), (9, 27), (16, 64), (2, 1)])
    @pytest.mark.parametrize("base,q", [(2, 9), (3, 5), (4, 4), (5, 3)])
    def test_small_blocks_bit_identical(self, monkeypatch, started_threads, lead, block, base, q):
        # the block constants of test_many_passes and test_inputs_never_overwritten:
        # many blocks per pass, and a last forward pass that writes over the first's
        # output; every pass of two blocks or more splits in two
        monkeypatch.setattr(transform, "_LEAD", lead)
        monkeypatch.setattr(transform, "_BLOCK", block)
        monkeypatch.setattr(transform, "_SPLIT_BLOCKS", 2)
        for complex_values in (False, True):
            a = generate_random(base, seed=3, complex_entries=complex_values)
            s = random_signal(base, q, seed=4, complex_values=complex_values)
            signal_before = s.values.copy()
            serial = _unsplit_both_directions(a, s)
            results = _both_directions(a, s)
            assert np.array_equal(s.values, signal_before)
            for got, want in zip(results, serial):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        assert not any(t.is_alive() for t in started_threads)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_error_raised_after_every_join(self, monkeypatch, started_threads, failing):
        # 3^11 cells: six blocks per pass, the first and then halves of two and three
        monkeypatch.setattr(transform, "_SPLIT_BLOCKS", 2)
        a = generate_random(3, seed=1)
        s = random_signal(3, 11, seed=2)
        block = transform._block
        caller = threading.current_thread()

        def failing_block(kernel, src, j, *args):
            worker = threading.current_thread() is not caller
            if worker:
                time.sleep(0.05)  # the worker outlasts the caller's half and its raise
            if j > 0 and worker == (failing == "worker"):
                raise RuntimeError("half failed")
            return block(kernel, src, j, *args)

        monkeypatch.setattr(transform, "_block", failing_block)
        with count_multiplies() as counter:
            with pytest.raises(RuntimeError, match="half failed"):
                dwt_fast(a, s)
        assert len(started_threads) == 1
        assert not any(t.is_alive() for t in started_threads)
        assert counter.count == 0

    @pytest.mark.parametrize("starts", [0, 1, 2])
    def test_share_without_a_thread_runs_on_the_caller(self, monkeypatch, starts):
        # three passes split in halves; the threads after the first `starts` cannot
        # start: those passes run every block, in order, on the calling thread, and
        # the threads that did start are joined
        attempts, started = [], []

        class Limited(threading.Thread):
            def start(self):
                attempts.append(self)
                if len(started) == starts:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Limited)
        caller = threading.current_thread()
        for p in range(3):
            lock, ran = threading.Lock(), []

            def run(blocks):
                for j in blocks:
                    with lock:
                        ran.append((j, threading.current_thread() is caller))

            transform._run_halves(run, range(1, 6))
            assert not any(t.is_alive() for t in started)
            if p < starts:
                assert sorted(ran) == [(j, j < 3) for j in range(1, 6)]
            else:
                assert ran == [(j, True) for j in range(1, 6)]
        assert len(attempts) == 3
        assert len(started) == starts

    def test_transform_without_threads_is_bit_identical(self, monkeypatch):
        class Unstartable(threading.Thread):
            def start(self):
                raise RuntimeError("can't start new thread")

        a = generate_random(2, seed=1)
        s = random_signal(2, 20, seed=2)
        want = _unsplit_both_directions(a, s)
        monkeypatch.setattr(threading, "Thread", Unstartable)
        with count_multiplies() as counter:
            got = _both_directions(a, s)
        assert counter.count == 2 * 20 * 2**21
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _transform_in_child(path, base, q, complex_values, pin, blas_threads=None):
    """dwt_fast and idwt of a seeded signal in a fresh process, on one CPU if ``pin``."""
    code = ("import sys, numpy as np\n"
            "from gwalsh import dwt_fast, generate_random, idwt, random_signal\n"
            f"a = generate_random({base}, seed=1, complex_entries={complex_values})\n"
            f"s = random_signal({base}, {q}, seed=2, complex_values={complex_values})\n"
            "c = dwt_fast(a, s)\n"
            "np.savez(sys.argv[1], coeffs=c.coeffs, values=idwt(a, c).values)\n")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    pinned = ["taskset", "-c", str(min(os.sched_getaffinity(0)))] if pin else []
    result = subprocess.run(pinned + [sys.executable, "-c", code, str(path)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    with np.load(path) as saved:
        return saved["coeffs"], saved["values"]


@pytest.mark.skipif(shutil.which("taskset") is None or len(os.sched_getaffinity(0)) < 2,
                    reason="needs taskset and an affinity set of two CPUs or more")
class TestCpuCount:
    """What the README says about results and the CPU count, in fresh processes."""

    # 2^20 and 16^5 split each pass in two halves; 64^3 ends in a
    # one-digit full-array pass, the widest kernel whose passes are not all one digit
    @pytest.mark.parametrize("base,q,complex_values", [
        (2, 20, False), (16, 5, True), (64, 3, False),
    ])
    def test_pass_threads_never_change_a_result(self, tmp_path, base, q, complex_values):
        unpinned = _transform_in_child(tmp_path / "all.npz", base, q, complex_values, pin=False)
        pinned = _transform_in_child(tmp_path / "one.npz", base, q, complex_values, pin=True)
        for got, want in zip(unpinned, pinned):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_one_blas_thread_at_large_n(self, tmp_path):
        # every pass is one digit when N >= 65, and OpenBLAS's own threads can
        # round the product's last bits differently; one BLAS thread does not
        results = [_transform_in_child(tmp_path / f"{pin}.npz", 300, 2, False, pin=pin,
                                       blas_threads=1) for pin in (False, True)]
        for got, want in zip(*results):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestSerialization:
    def test_signal_header(self, signal_f):
        text = message_to_text(signal_f)
        assert text.splitlines()[0] == "# gwalsh signal N=3 q=3"

    def test_coeffs_header(self, matrix_a, signal_f):
        text = message_to_text(dwt_fast(matrix_a, signal_f))
        assert text.splitlines()[0] == "# gwalsh coeffs N=3 q=3"

    def test_signal_round_trip_exact(self, tmp_path):
        s = random_signal(3, 3, seed=4)
        path = tmp_path / "s.csv"
        write_signal(s, path)
        loaded = read_signal(path)
        assert np.array_equal(loaded.values, s.values)
        assert (loaded.base, loaded.q) == (3, 3)

    def test_complex_round_trip(self, tmp_path):
        s = random_signal(2, 3, seed=4, complex_values=True)
        path = tmp_path / "s.csv"
        write_signal(s, path)
        loaded = read_signal(path)
        assert np.array_equal(loaded.values, s.values)

    def test_coefficients_round_trip(self, tmp_path, matrix_a, signal_f):
        c = dwt_fast(matrix_a, signal_f)
        path = tmp_path / "c.csv"
        write_coefficients(c, path)
        assert np.array_equal(read_coefficients(path).coeffs, c.coeffs)

    def test_limited_digits(self):
        s = Signal.from_values(2, [1 / 3, 2 / 3])
        text = message_to_text(s, digits=12)
        assert text.splitlines()[1] == "0.333333333333"

    @pytest.mark.parametrize("digits", ["3", 0, -1, 1.5, True, False],
                             ids=["str", "zero", "negative", "float", "true", "false"])
    def test_digits_must_be_a_positive_int(self, tmp_path, digits):
        s = Signal.from_values(2, [1 / 3, 2 / 3])
        with pytest.raises(ValidationError, match="digits"):
            message_to_text(s, digits)
        with pytest.raises(ValidationError, match="digits"):
            write_signal(s, tmp_path / "s.csv", digits=digits)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("digits", [np.int64(12), np.int32(12), np.uint8(12)],
                             ids=["int64", "int32", "uint8"])
    def test_numpy_integer_digits_write_the_bytes_of_an_int(self, tmp_path, digits):
        # an integer by the package's one rule (matrix.is_integer)
        s = random_signal(3, 2, seed=4, complex_values=True)
        assert message_to_text(s, digits) == message_to_text(s, 12)
        write_signal(s, tmp_path / "n.csv", digits=digits)
        write_signal(s, tmp_path / "i.csv", digits=12)
        assert (tmp_path / "n.csv").read_bytes() == (tmp_path / "i.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["bogus", "", "Signal"])
    def test_unknown_kind(self, signal_f, kind):
        with pytest.raises(ValidationError, match="message kind must be one of 'signal', 'coeffs' or None"):
            message_from_text(message_to_text(signal_f), kind)

    def test_kind_mismatch(self, signal_f):
        with pytest.raises(ValidationError):
            message_from_text(message_to_text(signal_f), "coeffs")

    def test_bad_header(self):
        with pytest.raises(ValidationError):
            message_from_text("# something else\n0\n", "signal")

    def test_wrong_count(self):
        with pytest.raises(ValidationError):
            message_from_text("# gwalsh signal N=3 q=1\n0\n1\n", "signal")

    def test_overflowing_value(self):
        # float() reads 1e999 as inf, in the characters the writers emit
        with pytest.raises(ValidationError, match="non-finite value"):
            message_from_text("# gwalsh signal N=2 q=1\n1e999\n0\n", "signal")

    def test_bad_value(self):
        with pytest.raises(ValidationError):
            message_from_text("# gwalsh signal N=2 q=0\nhello\n", "signal")

    @pytest.mark.parametrize("header", ["N=1 q=0", "N=2 q=-1"])
    def test_body_checked_before_the_message(self, header):
        # the reader parses the whole body; N and q are the message type's checks
        text = f"# gwalsh signal {header}\nhello\n"
        with pytest.raises(ValidationError, match="bad value line"):
            message_from_text(text, "signal")
        with pytest.raises(ValidationError, match="cell counts need N >= 2 and q >= 0"):
            message_from_text(text.replace("hello", "0"), "signal")

    def test_count_checked_before_finiteness(self):
        with pytest.raises(ValidationError, match="expected N\\^q cell values"):
            message_from_text("# gwalsh signal N=2 q=1\n1e999\n", "signal")
        with pytest.raises(ValidationError, match="non-finite value in a gwalsh coeffs message"):
            message_from_text("# gwalsh coeffs N=2 q=1\n1e999\n0\n", "coeffs")

    @pytest.mark.parametrize(
        "text",
        [
            "# gwalsh signal N=x q=1\n0\n1\n",
            "# gwalsh signal N=2 q=y\n0\n1\n",
            "# gwalsh signal N=1 q=0\n0\n",
            "# gwalsh signal N=0 q=0\n0\n",
            "# gwalsh signal N=2 q=-1\n0\n",
            "# gwalsh signal N=2 q=1\nnan\n1\n",
            "# gwalsh signal N=2 q=1\n0\ninf,0\n",
            "# gwalsh signal N=2 q=1\n0\n1_0\n",
            "# gwalsh signal N=2 q=1\n0\n 1 , 2 \n",
            "# gwalsh signal N=2 q=1\n0\n\u0661\n",
            # header integers int() reads but the writers never emit
            "# gwalsh signal N=0_2 q=1\n0\n1\n",
            "# gwalsh signal N=\u0662 q=1\n0\n1\n",
            "# gwalsh signal N=+2 q=1\n0\n1\n",
            # every line a number or every line a re,im pair, as in the JSON formats
            "# gwalsh signal N=2 q=1\n1.0\n2.0,3.0\n",
            "# gwalsh signal N=2 q=1\n2.0,3.0\n1.0\n",
        ],
        ids=["N=x", "q=y", "N=1", "N=0", "q=-1", "nan", "complex-inf", "underscore",
             "spaced-pair", "arabic-digit", "header-underscore", "header-arabic-digit",
             "header-plus", "mixed-real-first", "mixed-pair-first"],
    )
    def test_malformed_header_or_value(self, text):
        with pytest.raises(ValidationError):
            message_from_text(text, "signal")
        with pytest.raises(ValidationError):
            message_from_text(text.replace("signal", "coeffs"), "coeffs")


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _messages(draw):
    """Any message the constructors accept: N from 2 to 17 as an int or a
    numpy integer, q up to N^q <= 300, real or complex values."""
    base = draw(st.integers(2, 17))
    q = draw(st.integers(0, digit_length(300, base) - 1))
    base, q = (draw(st.sampled_from([int, np.int64, np.int32, np.uint8]))(v) for v in (base, q))
    count = int(base) ** int(q)
    values = np.array(draw(st.lists(_finite, min_size=count, max_size=count)))
    if draw(st.booleans()):
        values = values + 1j * np.array(draw(st.lists(_finite, min_size=count, max_size=count)))
    return draw(st.sampled_from([Signal, CoefficientVector]))(base, q, values)


@settings(max_examples=200, deadline=None)
@given(_messages())
def test_every_message_round_trips(message):
    field = "values" if isinstance(message, Signal) else "coeffs"
    channel = InMemoryChannel()
    channel.put("m", message)
    for back in (message_from_text(message_to_text(message)), channel.get("m")):
        assert type(back) is type(message)
        assert (back.base, back.q) == (message.base, message.q)
        assert getattr(back, field).dtype == getattr(message, field).dtype
        assert getattr(back, field).tobytes() == getattr(message, field).tobytes()


@pytest.mark.parametrize("cls", [Signal, CoefficientVector])
@pytest.mark.parametrize("base,q", [(2.0, 1), (np.float64(2.0), 1), (2, True), (True, 1)],
                         ids=["float-N", "numpy-float-N", "bool-q", "bool-N"])
def test_non_integer_base_or_q_rejected(cls, base, q):
    # such a message would write a header its own reader rejects
    with pytest.raises(ValidationError, match="cell counts need integer N and q"):
        cls(base, q, [1.0, 2.0])


@pytest.mark.parametrize("cls", [Signal, CoefficientVector])
@pytest.mark.parametrize("kind", [np.uint8, np.int32, np.int64])
def test_numpy_integer_base_and_q_stored_as_int(cls, kind):
    message = cls(kind(3), kind(2), np.arange(9.0))
    assert (type(message.base), type(message.q)) == (int, int)
    assert (message.base, message.q) == (3, 2)


def test_numpy_integer_q_transforms_as_int():
    # a uint8 q in the butterfly overflows at 3^10 cells
    a = generate_random(3, seed=1)
    values = random_signal(3, 10, seed=2).values
    got = dwt_fast(a, Signal(3, np.uint8(10), values))
    assert (type(got.base), type(got.q)) == (int, int)
    assert got.coeffs.tobytes() == dwt_fast(a, Signal(3, 10, values)).coeffs.tobytes()


def test_numpy_integer_base_counts_every_multiply():
    # a uint8 N wraps in q * N^(q+1): 61 for the 3645 multiplies of 3^5 cells
    a = generate_random(3, seed=1)
    with count_multiplies() as counter:
        dwt_fast(a, Signal(np.uint8(3), 5, np.ones(3**5)))
    assert counter.count == 5 * 3**6


@settings(max_examples=30)
@given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8))
def test_text_round_trip_property(values):
    s = Signal.from_values(2, values)
    assert np.array_equal(message_from_text(message_to_text(s), "signal").values, s.values)


# ---------------------------------------------------------------------------
# The per-value CSV codec that the whole-array one replaced, kept as an oracle:
# the new codec must write the same bytes and parse text to the same arrays.
# ---------------------------------------------------------------------------


def _oracle_format_value(x, digits):
    def one(v):
        return repr(float(v)) if digits is None else f"{float(v):.{digits}g}"

    if np.iscomplexobj(x) or isinstance(x, complex):
        return f"{one(np.real(x))},{one(np.imag(x))}"
    return one(x)


def _oracle_values_to_text(values, kind, base, q, digits=None):
    lines = [f"# gwalsh {kind} N={base} q={q}"]
    lines.extend(_oracle_format_value(x, digits) for x in values)
    return "\n".join(lines) + "\n"


def _oracle_values_from_text(text, kind):
    """(kind, base, q, values) of a CSV text; with kind None, of the kind its header names.

    Only the format is checked here; N, q and the value count are the message
    types' checks, and finiteness is checked on the built message.
    """
    kinds = ["signal", "coeffs"] if kind is None else [kind]
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValidationError("empty signal/coefficient file")
    head = lines[0].split()
    if (
        len(head) != 5
        or head[:2] != ["#", "gwalsh"]
        or head[2] not in kinds
        or not head[3].startswith("N=")
        or not head[4].startswith("q=")
    ):
        raise ValidationError(f"bad header for a gwalsh {' or '.join(kinds)} file: {lines[0]!r}")
    kind = head[2]
    try:
        for field in (head[3][2:], head[4][2:]):
            if not re.fullmatch(r"-?[0-9]+", field):  # only what the writers emit
                raise ValueError(field)
        base = int(head[3][2:])
        q = int(head[4][2:])
    except ValueError:
        raise ValidationError(f"non-integer N or q in header: {lines[0]!r}") from None
    values = []
    for line in lines[1:]:
        parts = line.split(",")
        try:
            if not set(line) <= set("0123456789.e+-,"):  # only what the writers emit
                raise ValueError(line)
            if len(parts) == 1:
                values.append(float(parts[0]))
            elif len(parts) == 2:
                values.append(complex(float(parts[0]), float(parts[1])))
            else:
                raise ValueError(line)
        except ValueError:
            raise ValidationError(f"bad value line: {line!r}") from None
    if len({type(v) for v in values}) > 1:  # every line real, or every line a pair
        raise ValidationError(f"gwalsh {kind} values mix real numbers and re,im pairs")
    return kind, base, q, np.asarray(values)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-5]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64))


@st.composite
def _cell_arrays(draw):
    q = draw(st.integers(0, 4))
    real = np.array(draw(st.lists(_floats, min_size=2**q, max_size=2**q)), dtype=float)
    if draw(st.booleans()):
        imag = np.array(draw(st.lists(_floats, min_size=2**q, max_size=2**q)), dtype=float)
        values = np.empty(2**q, dtype=complex)
        values.real, values.imag = real, imag
        return q, values
    return q, real


@settings(max_examples=300)
@given(_cell_arrays(), st.sampled_from([None, *range(1, 18)]))
def test_formatter_matches_per_value_oracle(cells, digits):
    q, values = cells
    assert message_to_text(Signal(2, q, values), digits) == _oracle_values_to_text(
        values, "signal", 2, q, digits)
    assert message_to_text(CoefficientVector(2, q, values), digits) == (
        _oracle_values_to_text(values, "coeffs", 2, q, digits))


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.clongdouble])
def test_formatter_matches_oracle_for_other_dtypes(dtype):
    values = np.array([0.1, -0.0, 1e-30, 3.0], dtype=dtype)
    for digits in (None, 12):
        assert message_to_text(Signal(2, 2, values), digits) == _oracle_values_to_text(
            Signal(2, 2, values).values, "signal", 2, 2, digits)


_value_lines = st.one_of(
    _floats.map(repr),
    st.tuples(_floats, _floats).map(lambda p: f"{p[0]!r},{p[1]!r}"),
    st.sampled_from(["", "   ", "\t", " 1.5 ", "-0.0", "-0.0,-0.0", " 1 , 2 ", "1,2,3",
                     "1,", ",1", ",", "x", "1_0", "nan", "inf,0", "1e999", "0x1p3",
                     "\u0661", "1E5", "+1", "1\u00a0"]),
    st.text(alphabet="0123456789.,-+e_ \t", max_size=8),
)


@st.composite
def _csv_texts(draw):
    base = draw(st.sampled_from([2, 3]))
    q = draw(st.integers(0, 2))
    count = base**q if draw(st.booleans()) else draw(st.integers(0, 9))
    lines = draw(st.lists(_value_lines, min_size=count, max_size=count))
    kind = draw(st.sampled_from(["signal", "coeffs"]))
    header = draw(st.sampled_from([
        f"# gwalsh {kind} N={base} q={q}",
        f"  #\tgwalsh {kind}  N={base} q={q} ",
        f"# gwalsh {kind} N={base} q={q} extra",
        f"# gwalsh {kind} N=x q={q}",
        f"# gwalsh {kind} N=1 q={q}",
        f"# gwalsh {kind} N={base} q=-1",
        f"#gwalsh {kind} N={base} q={q}",
        f"# gwalsh {kind} N=+{base} q={q}",
        f"# gwalsh {kind} N=0_{base} q={q}",
        f"# gwalsh {kind} N={base} q=\u0660{q}",
        f"# gwalsh {kind} N={base} q=--{q}",
    ]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))


def _parse_outcome(parse, text, kind):
    try:
        message = parse(text, kind)
    except ValidationError as exc:
        return "ValidationError", str(exc)
    cells = message.values if isinstance(message, Signal) else message.coeffs
    return type(message), message.base, message.q, cells.dtype.str, cells.tobytes()


def _oracle_message(text, kind):
    kind, base, q, arr = _oracle_values_from_text(text, kind)
    message = (Signal if kind == "signal" else CoefficientVector)(base, q, arr)
    if not np.isfinite(arr).all():
        raise ValidationError(f"non-finite value in a gwalsh {kind} message")
    return message


@settings(max_examples=500)
@given(st.one_of(_csv_texts(), st.text(max_size=40)),
       st.sampled_from(["signal", "coeffs", None]))
@example("# gwalsh signal N=2 q=1\n1.5,-0.0\n\n  -0.0  \n", "signal")
@example("# gwalsh signal N=2 q=1\n1,2,3\n4\n", "signal")
@example("# gwalsh coeffs N=3 q=1\n-0.0\n5e-324\n-1.7976931348623157e+308\n", "coeffs")
# a body of bare numbers and re,im pairs is neither kind of body
@example("# gwalsh signal N=2 q=1\n1.0\n2.0,3.0\n", "signal")
@example("# gwalsh coeffs N=2 q=1\n2.0,3.0\n1.0\n", None)
# with no kind, the header names it; with a kind, the other kind's header is rejected
@example("# gwalsh coeffs N=2 q=1\n1.0\n-0.0\n", None)
@example("# gwalsh signal N=2 q=1\n1.0,0.5\n-0.0,2\n", None)
@example("# gwalsh coeffs N=2 q=1\n1.0\n-0.0\n", "signal")
def test_parser_matches_per_line_oracle(text, kind):
    assert _parse_outcome(message_from_text, text, kind) == _parse_outcome(
        _oracle_message, text, kind)
