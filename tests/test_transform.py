import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_values as rv
from gwalsh import (
    BaseMismatchError,
    CoefficientVector,
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
from gwalsh.basis import scaled_rows
from gwalsh.transform import (
    _values_from_text,
    coefficients_from_text,
    coefficients_to_text,
    read_coefficients,
    read_signal,
    signal_from_text,
    signal_to_text,
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

    def test_values_read_only(self, signal_f):
        with pytest.raises(ValueError):
            signal_f.values[0] = 5.0

    @pytest.mark.parametrize("dtype,stored", [
        (bool, np.float64), (np.int32, np.float64), (np.float32, np.float64),
        (np.float64, np.float64), (np.complex64, np.complex64),
        (np.complex128, np.complex128), (np.clongdouble, np.clongdouble),
    ])
    def test_values_are_a_private_copy(self, dtype, stored):
        raw = (np.arange(18) % 3).astype(dtype)[::2]  # strided input
        s = Signal(base=3, q=2, values=raw)
        assert s.values.dtype == stored
        np.testing.assert_array_equal(s.values, raw.astype(stored))
        assert not np.shares_memory(s.values, raw)
        assert not s.values.flags.writeable

    def test_inline_digits(self, signal_f):
        assert len(signal_f) == 27
        assert signal_f.values[3] == 1.0
        assert signal_f.values[26] == 2.0
        with pytest.raises(ValidationError):
            signal_from_digits("0a1", base=3)
        with pytest.raises(ValidationError):
            signal_from_digits("0011", base=3)  # 4 cells is not a power of 3


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

    def test_nested_counters_both_count(self, matrix_a, signal_f):
        with count_multiplies() as outer:
            dwt_fast(matrix_a, signal_f)
            with count_multiplies() as inner:
                dwt_fast(matrix_a, signal_f)
        assert (outer.count, inner.count) == (2 * 3 * 3**4, 3 * 3**4)

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


class TestSerialization:
    def test_signal_header(self, signal_f):
        text = signal_to_text(signal_f)
        assert text.splitlines()[0] == "# gwalsh signal N=3 q=3"

    def test_coeffs_header(self, matrix_a, signal_f):
        text = coefficients_to_text(dwt_fast(matrix_a, signal_f))
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
        text = signal_to_text(s, digits=12)
        assert text.splitlines()[1] == "0.333333333333"

    def test_kind_mismatch(self, signal_f):
        with pytest.raises(ValidationError):
            coefficients_from_text(signal_to_text(signal_f))

    def test_bad_header(self):
        with pytest.raises(ValidationError):
            signal_from_text("# something else\n0\n")

    def test_wrong_count(self):
        with pytest.raises(ValidationError):
            signal_from_text("# gwalsh signal N=3 q=1\n0\n1\n")

    def test_bad_value(self):
        with pytest.raises(ValidationError):
            signal_from_text("# gwalsh signal N=2 q=0\nhello\n")

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
        ],
        ids=["N=x", "q=y", "N=1", "N=0", "q=-1", "nan", "complex-inf", "underscore",
             "spaced-pair", "arabic-digit"],
    )
    def test_malformed_header_or_value(self, text):
        with pytest.raises(ValidationError):
            signal_from_text(text)
        with pytest.raises(ValidationError):
            coefficients_from_text(text.replace("signal", "coeffs"))


@settings(max_examples=30)
@given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8))
def test_text_round_trip_property(values):
    s = Signal.from_values(2, values)
    assert np.array_equal(signal_from_text(signal_to_text(s)).values, s.values)


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
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValidationError("empty signal/coefficient file")
    head = lines[0].split()
    if (
        len(head) != 5
        or head[:2] != ["#", "gwalsh"]
        or head[2] != kind
        or not head[3].startswith("N=")
        or not head[4].startswith("q=")
    ):
        raise ValidationError(f"bad header for a gwalsh {kind} file: {lines[0]!r}")
    try:
        base = int(head[3][2:])
        q = int(head[4][2:])
    except ValueError:
        raise ValidationError(f"non-integer N or q in header: {lines[0]!r}") from None
    if base < 2 or q < 0:
        raise ValidationError(f"header needs N >= 2 and q >= 0: {lines[0]!r}")
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
    arr = np.asarray(values)
    if arr.shape[0] != base**q:
        raise ValidationError(
            f"header declares N^q = {base}^{q} values, file contains {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError(f"non-finite value in a gwalsh {kind} file")
    return base, q, arr


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
    assert signal_to_text(Signal(2, q, values), digits) == _oracle_values_to_text(
        values, "signal", 2, q, digits)
    assert coefficients_to_text(CoefficientVector(2, q, values), digits) == (
        _oracle_values_to_text(values, "coeffs", 2, q, digits))


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.clongdouble])
def test_formatter_matches_oracle_for_other_dtypes(dtype):
    values = np.array([0.1, -0.0, 1e-30, 3.0], dtype=dtype)
    for digits in (None, 12):
        assert signal_to_text(Signal(2, 2, values), digits) == _oracle_values_to_text(
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
    ]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))


def _parse_outcome(parse, text, kind):
    try:
        base, q, arr = parse(text, kind)
    except ValidationError as exc:
        return "ValidationError", str(exc)
    return base, q, arr.dtype.str, arr.tobytes()


@settings(max_examples=500)
@given(st.one_of(_csv_texts(), st.text(max_size=40)), st.sampled_from(["signal", "coeffs"]))
@example("# gwalsh signal N=2 q=1\n1.5,-0.0\n\n  -0.0  \n", "signal")
@example("# gwalsh signal N=2 q=1\n1,2,3\n4\n", "signal")
@example("# gwalsh coeffs N=3 q=1\n-0.0\n5e-324\n-1.7976931348623157e+308\n", "coeffs")
def test_parser_matches_per_line_oracle(text, kind):
    assert _parse_outcome(_values_from_text, text, kind) == _parse_outcome(
        _oracle_values_from_text, text, kind)
