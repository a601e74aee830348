"""Discrete generalized Walsh transform over N^q samples.

A signal is a piecewise-constant function on [0, 1) stored as its N^q
cell values.  The forward transform returns the exact L2[0,1] inner
products of the signal against the Walsh functions of a generating
matrix A, in natural index order:

    c_n = (1/N^q) * sum_j v_j * conj(W_n(cell j))

Two implementations are provided: a naive quadratic reference summing
the definition row by row, and a radix-N butterfly (``dwt_fast``) doing
q stages of N x N kernel applications, q * N^(q+1) scalar multiplies in
all.  Each stage is one product that contracts the leading digit and
writes it last (the self-sorting form), so the stages never copy data
into a new order.  The coefficient index uses least-significant-first
digits while the cell index uses most-significant-first digits; in the
(N,)*q array view this digit reversal is axis reversal, one strided
transpose (after the forward stages, before the inverse ones) and the
only reorder.

The inverse transform synthesizes v_j = sum_n c_n * W_n(cell j) with the
transposed stage structure.  For a unitary matrix this is the exact
inverse of the forward transform; for an approximately unitary matrix it
is still the synthesis operator (no numerical matrix inversion).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import digit_length, scaled_rows, walsh_on_grid
from .errors import BaseMismatchError, ValidationError
from .matrix import WalshMatrix, read_text


def _is_cell_count(count: int, base: int, q: int) -> bool:
    """count == base**q, deciding a q too large for count before forming the power."""
    return (base < 2 or q <= count.bit_length()) and count == base**q  # N >= 2: N^q >= 2^q


def _as_cells(values, base: int, q: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or not _is_cell_count(arr.shape[0], base, q):
        raise ValidationError(
            f"expected N^q cell values for base {base}, q {q}, got shape {arr.shape}"
        )
    arr = np.array(arr, dtype=None if np.iscomplexobj(arr) else np.float64)
    arr.flags.writeable = False
    return arr


def _infer_q(base: int, length: int) -> int:
    q = digit_length(length - 1, base)
    if base**q != length:
        raise ValidationError(f"length {length} is not a power of base {base}")
    return q


@dataclass(frozen=True, eq=False)
class Signal:
    """Piecewise-constant function on [0, 1): value j on [j/N^q, (j+1)/N^q)."""

    base: int
    q: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_cells(self.values, self.base, self.q))

    @classmethod
    def from_values(cls, base: int, values) -> "Signal":
        arr = np.asarray(values)
        return cls(base=base, q=_infer_q(base, arr.shape[0]), values=arr)

    def __len__(self) -> int:
        return self.base**self.q


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Walsh coefficients c_0..c_{N^q-1} in natural index order."""

    base: int
    q: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_cells(self.coeffs, self.base, self.q))

    @classmethod
    def from_values(cls, base: int, coeffs) -> "CoefficientVector":
        arr = np.asarray(coeffs)
        return cls(base=base, q=_infer_q(base, arr.shape[0]), coeffs=arr)

    def __len__(self) -> int:
        return self.base**self.q


class MultiplyCounter:
    """Tally of scalar multiplies performed by the butterfly transforms."""

    def __init__(self):
        self.count = 0


_active_counters: ContextVar[tuple] = ContextVar("gwalsh_active_counters", default=())


@contextmanager
def count_multiplies():
    """Yield a :class:`MultiplyCounter` of the transforms this thread or task runs in the block."""
    counter = MultiplyCounter()
    token = _active_counters.set(_active_counters.get() + (counter,))
    try:
        yield counter
    finally:
        _active_counters.reset(token)


def _tally(count: int) -> None:
    for counter in _active_counters.get():
        counter.count += count


def _check_base(a: WalshMatrix, base: int) -> None:
    if a.n != base:
        raise BaseMismatchError(f"matrix base {a.n} does not match data base {base}")


def dwt_naive(a: WalshMatrix, s: Signal) -> CoefficientVector:
    """Quadratic reference transform, summed directly from the definition."""
    _check_base(a, s.base)
    width = s.base**s.q
    out = None
    for n in range(width):
        row = np.conj(walsh_on_grid(a, n, s.q))
        value = (s.values * row).sum() / width
        if out is None:
            out = np.zeros(width, dtype=np.result_type(value))
        out[n] = value
    return CoefficientVector(base=s.base, q=s.q, coeffs=out)


def _stages(kernel: np.ndarray, data: np.ndarray, base: int, q: int) -> np.ndarray:
    """Apply the N x N kernel along each of the q digit axes in turn."""
    out = data
    for _ in range(q):
        out = (out.reshape(base, -1).T @ kernel.T).ravel()
        _tally(base ** (q + 1))
    return out


def dwt_fast(a: WalshMatrix, s: Signal) -> CoefficientVector:
    """Radix-N butterfly transform; same contract as :func:`dwt_naive`."""
    _check_base(a, s.base)
    kernel = np.conj(scaled_rows(a)) / a.n  # row 0 is exactly 1/N
    staged = _stages(kernel, s.values, s.base, s.q)
    coeffs = staged.reshape((s.base,) * s.q).T.ravel()
    return CoefficientVector(base=s.base, q=s.q, coeffs=coeffs)


def idwt(a: WalshMatrix, c: CoefficientVector) -> Signal:
    """Synthesize the signal with cell values sum_n c_n * W_n(cell j)."""
    _check_base(a, c.base)
    kernel = scaled_rows(a).T  # column 0 is exactly 1
    reordered = c.coeffs.reshape((c.base,) * c.q).T.ravel()
    values = _stages(kernel, reordered, c.base, c.q)
    return Signal(base=c.base, q=c.q, values=values)


def parseval_residual(a: WalshMatrix, s: Signal) -> float:
    """|sum |c_n|^2 - (1/N^q) sum |v_j|^2|, the Parseval defect."""
    c = dwt_fast(a, s)
    coeff_energy = float((np.abs(c.coeffs) ** 2).sum())
    signal_energy = float((np.abs(s.values) ** 2).mean())
    return abs(coeff_energy - signal_energy)


# ---------------------------------------------------------------------------
# CSV wire format: header "# gwalsh <kind> N=<n> q=<q>", one value per line,
# complex values as a "re,im" pair.  Values are read only in the ASCII
# spellings that repr() and the "g" format write.
# ---------------------------------------------------------------------------

_HEADER = "# gwalsh {kind} N={base} q={q}"


def _values_to_text(values: np.ndarray, kind: str, base: int, q: int,
                    digits: int | None = None) -> str:
    field = "{!r}" if digits is None else f"{{:.{digits}g}}"
    if np.iscomplexobj(values):
        values = values.astype(complex, copy=False)  # so tolist() gives Python floats
        lines = map(f"{field},{field}".format, values.real.tolist(), values.imag.tolist())
    else:
        lines = map(field.format, values.tolist())
    return "\n".join([_HEADER.format(kind=kind, base=base, q=q), *lines]) + "\n"


def _number_text(text: str) -> bool:
    """True when text uses only the characters the writers emit (and newlines).

    This rejects what ``float()`` would also read: spaces, ``_``,
    non-ASCII digits, ``inf`` and ``nan``.
    """
    return text.isascii() and not text.encode().translate(None, b"0123456789.e+-,\n")


def _parse_value(line: str):
    """One value line: a real number or a ``re,im`` pair."""
    real, comma, imag = line.partition(",")
    try:
        if not _number_text(line):
            raise ValueError
        return complex(float(real), float(imag)) if comma else float(real)
    except ValueError:
        raise ValidationError(f"bad value line: {line!r}") from None


def _values_from_text(text: str, kind: str) -> tuple[int, int, np.ndarray]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValidationError("empty signal/coefficient file")
    head = lines[0].split()
    if len(head) != 5 or head[:3] != ["#", "gwalsh", kind] or (
            head[3][:2], head[4][:2]) != ("N=", "q="):
        raise ValidationError(f"bad header for a gwalsh {kind} file: {lines[0]!r}")
    try:
        base = int(head[3][2:])
        q = int(head[4][2:])
    except ValueError:
        raise ValidationError(f"non-integer N or q in header: {lines[0]!r}") from None
    if base < 2 or q < 0:
        raise ValidationError(f"header needs N >= 2 and q >= 0: {lines[0]!r}")
    body = lines[1:]
    try:
        if not _number_text("\n".join(body)):
            raise ValueError
        arr = np.fromiter(map(float, body), dtype=float, count=len(body))
    except ValueError:  # complex pairs, or a bad line to report
        arr = np.asarray([_parse_value(line) for line in body])
    if not _is_cell_count(arr.shape[0], base, q):
        raise ValidationError(
            f"header declares N^q = {base}^{q} values, file contains {arr.shape[0]}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError(f"non-finite value in a gwalsh {kind} file")
    return base, q, arr


def signal_to_text(s: Signal, digits: int | None = None) -> str:
    return _values_to_text(s.values, "signal", s.base, s.q, digits)


def signal_from_text(text: str) -> Signal:
    base, q, values = _values_from_text(text, "signal")
    return Signal(base=base, q=q, values=values)


def coefficients_to_text(c: CoefficientVector, digits: int | None = None) -> str:
    return _values_to_text(c.coeffs, "coeffs", c.base, c.q, digits)


def coefficients_from_text(text: str) -> CoefficientVector:
    base, q, values = _values_from_text(text, "coeffs")
    return CoefficientVector(base=base, q=q, coeffs=values)


def write_signal(s: Signal, path, digits: int | None = None) -> None:
    Path(path).write_text(signal_to_text(s, digits))


def read_signal(path) -> Signal:
    return signal_from_text(read_text(path, "signal"))


def write_coefficients(c: CoefficientVector, path, digits: int | None = None) -> None:
    Path(path).write_text(coefficients_to_text(c, digits))


def read_coefficients(path) -> CoefficientVector:
    return coefficients_from_text(read_text(path, "coefficient"))


def random_signal(base: int, q: int, seed: int, complex_values: bool = False) -> Signal:
    """Seeded random signal with cell values uniform in [0, 1)."""
    rng = np.random.default_rng(seed)
    values = rng.random(base**q)
    if complex_values:
        values = values + 1j * rng.random(base**q)
    return Signal(base=base, q=q, values=values)


def signal_from_digits(text: str, base: int) -> Signal:
    """Signal whose cell j takes the numeric value of the j-th character."""
    text = text.strip()
    if not text:
        raise ValidationError("empty inline signal")
    if not text.isdecimal():  # the digits float() reads; isdigit() also passes '²'
        bad = next(ch for ch in text if not ch.isdecimal())
        raise ValidationError(f"inline signal character {bad!r} is not a digit")
    return Signal.from_values(base=base, values=list(map(float, text)))
