import dataclasses
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_values as rv
from gwalsh import (
    BadDimensionError,
    BadFirstRowError,
    DegenerateDrawError,
    GwalshError,
    NotUnitaryError,
    OutOfRangeError,
    ValidationError,
    generate_n3,
    generate_random,
    load_masked_system,
    load_matrix,
    load_transcript,
    read_coefficients,
    read_signal,
    save_matrix,
    validate,
)
from gwalsh.basis import kernel_deviation
from gwalsh.matrix import (
    MAX_N,
    WalshMatrix,
    constant_row,
    json_values,
    matrix_from_dict,
    seeded_rng,
)
from gwalsh.protocol import mask_constraints, solve_companion, solve_companion_numeric
from gwalsh.transform import random_signal


_H = 1 / np.sqrt(2)


def _matrix_a_with(value, i, j):
    """The rows of the reference matrix A as JSON lists, with [i][j] replaced by ``value``."""
    rows = rv.MATRIX_A.tolist()
    rows[i][j] = value
    return rows


class TestValidate:
    def test_example_matrix_valid(self):
        m = validate(rv.MATRIX_A, tol=1e-10)
        assert m.n == 3
        assert m.is_real
        assert m.unitarity_defect() <= 1e-10

    def test_nan_entries_rejected(self):
        with pytest.raises((NotUnitaryError, BadFirstRowError)):
            validate(np.full((2, 2), np.nan), tol=1e-10)
        entries = np.array(rv.MATRIX_A, dtype=float)
        entries[2, 1] = np.nan
        with pytest.raises(NotUnitaryError):
            validate(entries, tol=1e-10)

    def test_identity_rejected_on_first_row(self):
        with pytest.raises(BadFirstRowError):
            validate(np.eye(2), tol=1e-10)

    def test_reference_companion_tolerances(self, matrix_b):
        entries = matrix_b.entries
        # unitary only to about 1e-10: rejected at 1e-12, accepted at 1e-8
        with pytest.raises(NotUnitaryError):
            validate(entries, tol=1e-12)
        m = validate(entries, tol=1e-8)
        assert 1e-12 < m.unitarity_defect() <= 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(BadDimensionError):
            validate(np.ones((2, 3)))

    def test_too_small_rejected(self):
        with pytest.raises(BadDimensionError):
            validate(np.ones((1, 1)))

    @pytest.mark.parametrize("row", [
        [1e200, -1e200],
        [1.7e308, -1.7e308],
        [complex(1.7e308, 1.7e308), complex(-1.7e308, -1.7e308)],
        [np.nan, 0.5],
        [np.inf, -np.inf],
    ], ids=["1e200", "near-max", "complex-near-max", "nan", "inf"])
    def test_entry_above_one_rejected_without_warning(self, row):
        # no unitary matrix has an entry above 1; rejecting one before the
        # Gram product keeps that product from overflowing with a RuntimeWarning
        entries = np.array([[1 / np.sqrt(2), 1 / np.sqrt(2)], row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotUnitaryError, match="magnitude"):
                validate(entries, tol=1e-8)

    def test_first_row_snapped_exactly(self):
        noisy = rv.MATRIX_A.copy()
        noisy[0] += 1e-11
        m = validate(noisy, tol=1e-9)
        assert np.array_equal(m.entries[0], constant_row(3))

    def test_row_sum_failure_reported(self):
        # orthogonal matrix without the constant-row structure below row 0
        bad = np.array([[1 / np.sqrt(2), 1 / np.sqrt(2)], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
        with pytest.raises(NotUnitaryError):
            validate(bad, tol=1e-8)

    def test_zero_row_sum_rejected(self):
        # unitary within tol, but row 1 sums to 2e, just above tol
        e = 0.6e-8
        with pytest.raises(NotUnitaryError, match=r"row 1 sums to 1\.200e-08"):
            validate([[_H, _H], [_H + e, -_H + e]], tol=1e-8)

    def test_shape_must_match_n(self):
        with pytest.raises(BadDimensionError, match=r"shape \(2, 2\) does not match n=3"):
            WalshMatrix(n=3, entries=np.eye(2), tol=1e-8)

    @pytest.mark.parametrize("entries", [
        [[repr(_H), repr(_H)], [repr(_H), repr(-_H)]],
        [[repr(_H).encode()] * 2, [repr(_H).encode(), repr(-_H).encode()]],
        [[_H, _H], [_H, None]],
        np.array([["2020-01-01"] * 2] * 2, dtype="datetime64[D]"),
        [[_H, _H], [_H]],
        [[_H, _H], [10**400, -_H]],
    ], ids=["numeric-strings", "bytes", "none", "dates", "ragged", "huge-int"])
    def test_non_numbers_rejected(self, entries):
        with pytest.raises(ValidationError, match="must be numbers"):
            validate(entries, tol=1e-8)

    @pytest.mark.parametrize("complex_entries,dtype", [
        *((False, t) for t in (np.float16, np.float32, np.float64, np.longdouble, object)),
        *((True, t) for t in (np.complex64, np.complex128, np.clongdouble, object)),
    ], ids=lambda v: ("real", "complex")[v] if isinstance(v, bool) else np.dtype(v).name)
    def test_numbers_of_any_type_accepted(self, complex_entries, dtype):
        # stored as float64 or complex128, the input's values rounded to that type
        a = generate_random(2, seed=1, complex_entries=complex_entries)
        raw = a.entries.astype(dtype)
        stored = np.complex128 if complex_entries else np.float64
        m = validate(raw, tol=1e-2)
        assert m.entries.dtype == stored
        assert np.array_equal(m.entries[1:], raw[1:].astype(stored))

    def test_complex_with_zero_imag_demoted(self):
        m = validate(rv.MATRIX_A.astype(complex), tol=1e-10)
        assert m.is_real

    def test_entries_read_only(self):
        m = validate(rv.MATRIX_A, tol=1e-10)
        with pytest.raises(ValueError):
            m.entries[1, 1] = 0.0


_MATRIX_CALLS = ("WalshMatrix", "WalshMatrix-wrong-n", "validate", "replace", "generate_random",
                 "generate_n3", "solve_companion", "solve_companion_numeric",
                 "matrix_from_dict", "matrix_from_dict-tol")


def _matrix_call(call, n, seed, complex_entries, noise, tol, x):
    """One public call that returns a WalshMatrix, built from the drawn inputs."""
    good = generate_random(n, seed=seed, complex_entries=complex_entries)
    raw = good.entries + noise * np.random.default_rng(seed).standard_normal((n, n))
    return {
        "WalshMatrix": lambda: WalshMatrix(n, raw, tol),
        "WalshMatrix-wrong-n": lambda: WalshMatrix(n + 1, raw, tol),
        "validate": lambda: validate(raw, tol),
        "replace": lambda: dataclasses.replace(good, entries=raw),
        "generate_random": lambda: good,
        "generate_n3": lambda: generate_n3(x, "second" if seed % 2 else "third"),
        "solve_companion": lambda: solve_companion(generate_n3(0.4), x, "minus"),
        "solve_companion_numeric": lambda: solve_companion_numeric(good, seed=seed + 1),
        "matrix_from_dict": lambda: matrix_from_dict({"tol": tol, "entries": json_values(raw)}),
        "matrix_from_dict-tol": lambda: matrix_from_dict({"entries": json_values(raw)}, tol=tol),
    }[call]()


class TestEveryMatrixIsValid:
    @settings(max_examples=150, deadline=None)
    @given(call=st.sampled_from(_MATRIX_CALLS), n=st.integers(2, 6), seed=st.integers(0, 2**16),
           complex_entries=st.booleans(),
           noise=st.sampled_from([0.0, 1e-13, 1e-9, 1e-6, 1e-2, 1.0, 5.0]),
           tol=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-4, 0.5, 3.0]),
           x=st.floats(-1.0, 1.0))
    @example(call="WalshMatrix", n=2, seed=0, complex_entries=False, noise=5.0, tol=1e-9, x=0.0)
    @example(call="WalshMatrix", n=3, seed=1, complex_entries=True, noise=1e-6, tol=0.5, x=0.0)
    def test_no_public_call_returns_an_invalid_matrix(self, call, n, seed, complex_entries,
                                                      noise, tol, x):
        try:
            m = _matrix_call(call, n, seed, complex_entries, noise, tol, x)
        except GwalshError:
            return
        again = validate(m.entries, m.tol)
        assert np.array_equal(again.entries, m.entries) and again.entries.dtype == m.entries.dtype
        assert type(m.n) is int and m.entries.shape == (m.n, m.n)
        with pytest.raises(ValueError, match="read-only"):
            m.entries[-1, -1] = 0.0

    def test_constructor_rejects_what_validate_rejects(self):
        # unitarity defect 24.5, and its entries were writeable
        entries = np.array([[1.0, 5.0], [3.0, -0.707]])
        for build in (lambda: WalshMatrix(2, entries, 1e-9), lambda: validate(entries, 1e-9)):
            with pytest.raises(BadFirstRowError, match="first row deviates"):
                build()
        rows = np.array([[_H, _H], [1.0, -0.707]])
        for build in (lambda: WalshMatrix(2, rows, 1e-9), lambda: validate(rows, 1e-9)):
            with pytest.raises(NotUnitaryError, match="unitarity defect"):
                build()

    def test_constructor_stores_what_validate_stores(self, matrix_a):
        m = WalshMatrix(3, rv.MATRIX_A, 1e-10)
        assert np.array_equal(m.entries, matrix_a.entries) and m.tol == matrix_a.tol
        assert not m.entries.flags.writeable


class TestGenerateN3:
    def test_recovers_example_matrix(self):
        m = generate_n3(np.sqrt(2) / 2, row_choice="second", branch="plus")
        np.testing.assert_allclose(m.entries, rv.MATRIX_A, atol=1e-12)

    def test_entry_read_back_exactly(self):
        a = 0.437
        m = generate_n3(a, row_choice="second", branch="plus")
        assert m.entries[1, 0] == a
        m = generate_n3(a, row_choice="third", branch="minus")
        assert m.entries[2, 0] == a

    def test_boundary_branches_coincide(self):
        a = np.sqrt(2.0 / 3.0)
        plus = generate_n3(a, branch="plus")
        minus = generate_n3(a, branch="minus")
        np.testing.assert_allclose(plus.entries, minus.entries, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            generate_n3(1.0)

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_is_a_validation_error(self, a):
        with pytest.raises(ValidationError, match="must be finite"):
            generate_n3(a)

    def test_bad_choices(self):
        with pytest.raises(ValidationError):
            generate_n3(0.1, row_choice="fourth")
        with pytest.raises(ValidationError):
            generate_n3(0.1, branch="left")

    @pytest.mark.parametrize("row_choice", ["second", "third"])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_invariants_over_entry_sweep(self, row_choice, branch):
        bound = np.sqrt(2.0 / 3.0)
        for a in np.linspace(-bound, bound, 17):
            m = generate_n3(a, row_choice=row_choice, branch=branch)
            assert np.array_equal(m.entries[0], constant_row(3))
            assert m.unitarity_defect() <= 1e-10
            assert np.abs(m.entries[1:].sum(axis=1)).max() <= 1e-10


class TestGenerateRandom:
    def test_deterministic(self):
        a = generate_random(3, seed=11)
        b = generate_random(3, seed=11)
        assert np.array_equal(a.entries, b.entries)
        c = generate_random(3, seed=12)
        assert not np.array_equal(a.entries, c.entries)

    def test_n2_real_is_classic_up_to_sign(self):
        for seed in range(8):
            m = generate_random(2, seed=seed)
            row = m.entries[1]
            target = np.array([1, -1]) / np.sqrt(2)
            assert (
                np.abs(row - target).max() < 1e-12
                or np.abs(row + target).max() < 1e-12
            )

    def test_validates_at_generated_tol_across_seeds(self):
        for seed in range(100):
            m = generate_random(5, seed=seed)
            assert m.unitarity_defect() <= 1e-10

    def test_complex_entries(self):
        m = generate_random(4, seed=3, complex_entries=True)
        assert not m.is_real
        assert m.unitarity_defect() <= 1e-10

    def test_too_small(self):
        with pytest.raises(BadDimensionError):
            generate_random(1, seed=0)

    def test_draws_in_the_constant_direction_are_degenerate(self, monkeypatch):
        # every draw lies on the constant row, so Gram-Schmidt leaves nothing of it
        class Constant:
            def standard_normal(self, n):
                return np.ones(n)

        monkeypatch.setattr("gwalsh.matrix.seeded_rng", lambda seed: Constant())
        with pytest.raises(DegenerateDrawError, match="after 64 attempts"):
            generate_random(3, seed=0)

    @pytest.mark.parametrize("n", [MAX_N + 1, 10**19], ids=["over-limit", "past-index-range"])
    def test_too_large_rejected_at_once(self, n):
        start = time.perf_counter()
        with pytest.raises(BadDimensionError, match=f"between 2 and {MAX_N}"):
            generate_random(n, seed=0)
        with pytest.raises(BadDimensionError):
            constant_row(n)
        assert time.perf_counter() - start < 1


# every seeded draw in the package, as a function of the seed
_SEEDED = {
    "kernel_deviation": lambda a, seed: kernel_deviation(a, 2, samples=10, seed=seed),
    "generate_random": lambda a, seed: generate_random(3, seed),
    "random_signal": lambda a, seed: random_signal(3, 2, seed),
    "mask_constraints": lambda a, seed: mask_constraints(a, seed),
    "solve_companion_numeric": lambda a, seed: solve_companion_numeric(a, seed=seed),
}


class TestSeededRng:
    @pytest.mark.parametrize("seed", [-1, None, True, 1.5, "3"],
                             ids=["negative", "none", "bool", "float", "str"])
    @pytest.mark.parametrize("site", list(_SEEDED))
    def test_bad_seed_rejected(self, matrix_a, site, seed):
        # None would draw fresh OS entropy, and a run would not repeat
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            _SEEDED[site](matrix_a, seed)

    def test_integer_seeds_draw_as_numpy(self):
        for seed in (0, 7, np.int64(7), 2**70):
            want = np.random.default_rng(seed).random(4)
            assert np.array_equal(seeded_rng(seed).random(4), want)


# every boolean argument of the package, and the array it selects the dtype of
_FLAGS = {
    "generate_random": lambda flag: generate_random(3, 1, complex_entries=flag).entries,
    "random_signal": lambda flag: random_signal(3, 2, 1, complex_values=flag).values,
}


class TestBooleanArguments:
    @pytest.mark.parametrize("value", ["no", "yes", 1, 0, None])
    @pytest.mark.parametrize("site", list(_FLAGS))
    def test_non_bool_rejected(self, site, value):
        # "no" is truthy: it selected complex values
        with pytest.raises(ValidationError, match="must be a bool, got "):
            _FLAGS[site](value)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("site", list(_FLAGS))
    def test_numpy_bool_is_the_bool(self, site, value):
        got, want = _FLAGS[site](np.bool_(value)), _FLAGS[site](value)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, matrix_a):
        path = tmp_path / "a.json"
        save_matrix(matrix_a, path)
        loaded = load_matrix(path)
        assert np.array_equal(loaded.entries, matrix_a.entries)
        assert loaded.tol == matrix_a.tol

    def test_round_trip_complex(self, tmp_path):
        m = generate_random(3, seed=5, complex_entries=True)
        path = tmp_path / "c.json"
        save_matrix(m, path)
        loaded = load_matrix(path)
        assert np.array_equal(loaded.entries, m.entries)

    def test_bare_floats_accepted(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 3, "tol": 1e-8, "entries": rv.MATRIX_A.tolist()}))
        m = load_matrix(path)
        assert m.n == 3

    def test_pair_entries_accepted(self, tmp_path):
        entries = [[[x, 0.0] for x in row] for row in rv.MATRIX_A.tolist()]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 3, "tol": 1e-8, "entries": entries}))
        m = load_matrix(path)
        assert m.is_real  # zero imaginary parts are demoted

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_matrix(path)

    @pytest.mark.parametrize(
        "load",
        [load_matrix, load_masked_system, load_transcript, read_signal, read_coefficients],
        ids=lambda f: f.__name__,
    )
    def test_non_utf8_file_raises_validation_error(self, tmp_path, load):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValidationError, match="not UTF-8"):
            load(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"entries": 3},
            {"entries": [[0.5, "x"], [0.5, -0.5]]},
            {"n": "z", "entries": rv.MATRIX_A.tolist()},
            {"tol": "loose", "entries": rv.MATRIX_A.tolist()},
            {"entries": [[0.5, 0.5], [0.5]]},
            {"entries": [[0.5, None], [0.5, -0.5]]},
            {"n": 3.7, "entries": rv.MATRIX_A.tolist()},
            # each of these loaded before, as a valid matrix
            {"entries": _matrix_a_with(repr(float(rv.MATRIX_A[1, 0])), 1, 0)},
            {"entries": _matrix_a_with(False, 1, 1)},
            {"entries": _matrix_a_with([float(rv.MATRIX_A[1, 0]), 0.0], 1, 0)},
            {"tol": float("inf"), "entries": rv.MATRIX_A.tolist()},
        ],
        ids=["entries-int", "entry-str", "n-str", "tol-str", "ragged", "entry-null",
             "n-fraction", "entry-numeric-str", "entry-bool", "mixed-pair-row", "tol-inf"],
    )
    def test_malformed_fields_raise_validation_error(self, payload):
        with pytest.raises(ValidationError):
            matrix_from_dict(payload)

    def test_integral_float_n_accepted(self):
        assert matrix_from_dict({"n": 3.0, "entries": rv.MATRIX_A.tolist()}).n == 3

    def test_wrong_declared_n(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 4, "entries": rv.MATRIX_A.tolist()}))
        with pytest.raises(ValidationError):
            load_matrix(path)
        # the declared n is the constructor's shape check, run before any numeric one
        entries = rv.MATRIX_A.copy()
        entries[1] *= 2  # not unitary
        with pytest.raises(NotUnitaryError):
            matrix_from_dict({"n": 3, "entries": entries.tolist()})
        with pytest.raises(BadDimensionError, match=r"shape \(3, 3\) does not match n=4"):
            matrix_from_dict({"n": 4, "entries": entries.tolist()})

    def test_tol_override(self, tmp_path, matrix_b):
        path = tmp_path / "b.json"
        save_matrix(matrix_b, path)
        with pytest.raises(NotUnitaryError):
            load_matrix(path, tol=1e-12)


@pytest.mark.parametrize("tol", [True, np.True_, "1e-8", None, 0, -1, math.inf, math.nan],
                         ids=["true", "numpy-true", "str", "none", "zero", "negative", "inf",
                              "nan"])
def test_one_tolerance_rule(tol):
    # a real, positive, finite number that is not a boolean, for every matrix reader
    rows = rv.MATRIX_A.tolist()
    calls = [lambda: WalshMatrix(3, rv.MATRIX_A, tol), lambda: validate(rv.MATRIX_A, tol),
             lambda: matrix_from_dict({"tol": tol, "entries": rows})]
    if tol is not None:  # a caller's tol of None means the file's
        calls.append(lambda: matrix_from_dict({"entries": rows}, tol=tol))
    for call in calls:
        with pytest.raises(ValidationError, match="must be a positive finite number"):
            call()
