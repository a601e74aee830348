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
writes it last (the self-sorting form).  The coefficient index uses
least-significant-first digits while the cell index uses
most-significant-first digits, so the transform also reverses the digit
order.  Both are done in one or two cache-blocked passes by
``_butterfly``, whose docstring states the one rule of both directions;
a transform allocates one full-size array.

The inverse transform synthesizes v_j = sum_n c_n * W_n(cell j) with the
transposed stage structure.  For a unitary matrix this is the exact
inverse of the forward transform; for an approximately unitary matrix it
is still the synthesis operator (no numerical matrix inversion).

The one message format of :class:`Signal` and :class:`CoefficientVector`
lives here too: the CSV (:func:`message_to_text`, :func:`message_from_text`),
with the one float rule of every CSV file.  The reader checks only its
format, and ends in ``_message``, as the in-memory channel's ``get`` does.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import cell_count, digit_length, scaled_rows, walsh_on_grid
from .errors import BaseMismatchError, ValidationError
from .matrix import WalshMatrix, as_bool, ascii_int, is_integer, number_array, read_text, seeded_rng


def _flat_array(values) -> tuple[np.ndarray, np.dtype]:
    """values as a 1-D array, without a copy where numpy needs none, and their stored dtype."""
    arr, stored = number_array(values, "cell values")
    if arr.ndim != 1:
        raise ValidationError(f"cell values must be one-dimensional, got shape {arr.shape}")
    return arr, stored


def _store_cells(message, field: str) -> None:
    """Store a message's N^q cell values in ``field``, and its N and q as ``int``.

    The values become a read-only 1-D array of the stored dtype: an array
    that owns its memory, is not writeable and has the stored dtype (a
    transform's result) is kept as it is, and anything else (a list, a
    writeable array, a view, another dtype) is copied.  N and q are checked
    by ``cell_count`` first; a numpy-integer N or q would wrap in the
    transform's arithmetic.
    """
    arr, stored = _flat_array(getattr(message, field))
    if arr.shape[0] != cell_count(message.base, message.q):
        raise ValidationError(f"expected N^q cell values for base {message.base}, "
                              f"q {message.q}, got shape {arr.shape}")
    if not (arr.flags.owndata and not arr.flags.writeable and arr.dtype == stored):
        arr = np.array(arr, dtype=stored)
        arr.flags.writeable = False
    object.__setattr__(message, field, arr)
    object.__setattr__(message, "base", int(message.base))
    object.__setattr__(message, "q", int(message.q))


def _infer_q(base: int, length: int) -> int:
    q = digit_length(length - 1, base)
    if cell_count(base, q) != length:
        raise ValidationError(f"length {length} is not a power of base {base}")
    return q


@dataclass(frozen=True, eq=False)
class Signal:
    """Piecewise-constant function on [0, 1): value j on [j/N^q, (j+1)/N^q).

    The N^q numbers in ``values`` are stored read-only (a plain write raises
    ValueError): copied, unless they are a read-only array that owns its
    memory and has the stored dtype.  numpy lets any holder of the stored
    array, copied or kept, set ``writeable`` back to True and change the signal.
    ``base`` and ``q`` are stored as ``int``, also when given as numpy integers.
    """

    base: int
    q: int
    values: np.ndarray

    def __post_init__(self):
        _store_cells(self, "values")

    @classmethod
    def from_values(cls, base: int, values) -> "Signal":
        """The signal of ``values``, q read off their count, which must be a power of ``base``."""
        arr = _flat_array(values)[0]
        return cls(base=base, q=_infer_q(base, arr.shape[0]), values=arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Walsh coefficients c_0..c_{N^q-1} in natural index order.

    ``coeffs``, ``base`` and ``q`` are stored as ``Signal`` stores its fields.
    """

    base: int
    q: int
    coeffs: np.ndarray

    def __post_init__(self):
        _store_cells(self, "coeffs")

    def __len__(self) -> int:
        return len(self.coeffs)


class MultiplyCounter:
    """Tally of scalar multiplies performed by the butterfly transforms."""

    def __init__(self):
        self.count = 0


_active_counters: ContextVar[tuple] = ContextVar("gwalsh_active_counters", default=())


@contextmanager
def count_multiplies():
    """Yield a :class:`MultiplyCounter` of the transforms run in the block's context.

    It counts q * N^(q+1) per :func:`dwt_fast` or :func:`idwt` call on N^q
    cells; a direct call of the pass driver ``_butterfly`` counts nothing.
    An asyncio task created in the block and an ``asyncio.to_thread`` call made
    there copy its context and count too; a plain ``threading.Thread`` does not.
    """
    counter = MultiplyCounter()
    token = _active_counters.set(_active_counters.get() + (counter,))
    try:
        yield counter
    finally:
        _active_counters.reset(token)


def _tally(base: int, q: int) -> None:
    """Count one transform on N^q cells: q stages of N x N products, q * N^(q+1) multiplies."""
    count = q * base ** (q + 1)
    for counter in _active_counters.get():
        counter.count += count


def _check_base(a: WalshMatrix, base: int) -> None:
    if a.n != base:
        raise BaseMismatchError(f"matrix base {a.n} does not match data base {base}")


def dwt_naive(a: WalshMatrix, s: Signal) -> CoefficientVector:
    """Quadratic reference transform, summed directly from the definition."""
    _check_base(a, s.base)
    width = len(s)
    out = None
    for n in range(width):
        row = np.conj(walsh_on_grid(a, n, s.q))
        value = (s.values * row).sum() / width
        if out is None:
            out = np.zeros(width, dtype=np.result_type(value))
        out[n] = value
    return CoefficientVector(base=s.base, q=s.q, coeffs=out)


# Pass 1 contracts the m leading digits, N^m <= _LEAD, and pass 2 the other
# q - m, one column block of about _BLOCK values at a time: a pass's stages
# and the reversal of its new digits run while the block is in cache.
_LEAD = 4096
_BLOCK = 2**15
# A pass splits its blocks into two halves only when it has at least
# _SPLIT_BLOCKS of them: below that, two halves were not measurably faster.
_SPLIT_BLOCKS = 32


def _digit_groups(base: int, q: int) -> list[int]:
    """Digits contracted by each pass, in order: [q] when N^q fits in a block, else [m, q - m]."""
    if base**q <= _BLOCK:
        return [q]
    m = max(1, digit_length(_LEAD, base) - 1)  # the largest m with N^m <= _LEAD
    return [m, q - m]


def _block(kernel: np.ndarray, src: np.ndarray, j: int, cols: int, base: int, m: int,
           inverse: bool) -> np.ndarray:
    """Columns j to j + cols of src through a pass's m stages, shaped as rows of its output."""
    blk = src[:, j:j + cols].reshape((base,) * m + (-1,))
    if inverse:
        blk = blk.transpose(*range(m - 1, -1, -1), m)
    for _ in range(m):
        blk = blk.reshape(base, -1).T @ kernel.T
    blk = blk.reshape((-1,) + (base,) * m)
    return blk if inverse else blk.transpose(0, *range(m, 0, -1))


def _run_halves(run, starts) -> None:
    """Call ``run`` on the first half of ``starts`` here, and on the second on a new thread.

    If the thread cannot start (no threads left, or the interpreter shutting
    down), this thread runs both halves.  The thread is joined before this
    returns or raises; its exception is raised here after the join.
    """
    half = len(starts) // 2
    errors = []

    def work():
        try:
            run(starts[half:])
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=work)
    try:
        thread.start()
    except RuntimeError:
        return run(starts)
    try:
        run(starts[:half])
    finally:
        thread.join()
    if errors:
        raise errors[0]


def _butterfly(a: WalshMatrix, data: np.ndarray, q: int, inverse: bool,
               overwrite: bool = False) -> np.ndarray:
    """Apply A's N x N kernel along each of the q digit axes and reverse the digit order.

    Forward runs the stages, then reverses; inverse reverses, then runs the
    stages.  Every value goes through the same products, in the same order,
    as in q full-array stages ``x = x.reshape(N, -1).T @ kernel.T``.

    The stages run as one or two passes, over the digit groups of
    ``_digit_groups``; the inverse runs the forward's passes backwards.  A
    pass reads column blocks of the (N^m, rest) view forward, and row
    blocks of the (rest, N^m) view inverse.  It runs its m stages on each
    block and reverses the block's m new digits.  A first pass of two
    writes each block in the other orientation into a fresh array, which
    puts the two groups in reversed order, so no pass reorders them.

    The last pass writes each block where it read it: back over its input
    when that input belongs to the driver and has the result's dtype (the
    first pass's output in a two-pass transform, or a C-contiguous ``data``
    when ``overwrite`` is true), else into a fresh array.  ``data`` is only
    read otherwise, and the result is a flat array that the driver
    allocated, not a view of one.

    A block reads and writes only its own columns or rows.  The calling
    thread runs the first block alone, because its product fixes the output
    dtype and the output is allocated after it.  A pass of at least
    ``_SPLIT_BLOCKS`` blocks splits the others into two halves
    (``_run_halves``); any other pass, and so every one-pass transform, runs
    them all on the calling thread.  The halves run the same products, so
    they never change the result; BLAS's own threads can change the last
    bits of a large one-digit pass.
    """
    base = a.n
    # analysis by conj(sqrt(N) A) / N, row 0 exactly 1/N; synthesis by (sqrt(N) A)^T
    kernel = scaled_rows(a).T if inverse else np.conj(scaled_rows(a)) / base
    groups = _digit_groups(base, q)
    for i, m in enumerate(groups):
        lead = base**m
        rest = data.size // lead
        src = data.reshape(rest, lead).T if inverse else data.reshape(lead, rest)
        # a one-digit pass stays one full-array product, as unblocked: BLAS rounds
        # its blocks differently (at N = 65, 504 columns against 4225), not bit-identical
        cols = max(1, _BLOCK // lead) if m > 1 else rest
        last = i == len(groups) - 1
        blk = _block(kernel, src, 0, cols, base, m, inverse)
        # allocated after the first block's products: allocating first slowed exchanges
        if last and (overwrite or i > 0) and blk.dtype == data.dtype:
            # each block is read in full before it is written back; the first
            # pass's output is flat already, and is returned itself, not a view
            out = data if i > 0 else data.reshape(-1)
        else:
            out = np.empty(data.size, dtype=blk.dtype)
        dst = out.reshape(lead, rest).T if last != inverse else out.reshape(rest, lead)
        dst = dst.reshape((rest,) + (base,) * m)
        dst[:cols] = blk

        def run(blocks):
            for j in blocks:
                dst[j:j + cols] = _block(kernel, src, j, cols, base, m, inverse)

        starts = range(cols, rest, cols)  # the blocks after the first
        if 1 + len(starts) >= _SPLIT_BLOCKS:
            _run_halves(run, starts)
        else:
            run(starts)
        data = out
    return data


def dwt_fast(a: WalshMatrix, s: Signal) -> CoefficientVector:
    """Radix-N butterfly transform; same contract as :func:`dwt_naive`."""
    _check_base(a, s.base)
    coeffs = _butterfly(a, s.values, s.q, inverse=False)
    _tally(s.base, s.q)
    coeffs.flags.writeable = False  # the driver's own array, kept without a copy
    return CoefficientVector(base=s.base, q=s.q, coeffs=coeffs)


def idwt(a: WalshMatrix, c: CoefficientVector) -> Signal:
    """Synthesize the signal with cell values sum_n c_n * W_n(cell j)."""
    _check_base(a, c.base)
    values = _butterfly(a, c.coeffs, c.q, inverse=True)
    _tally(c.base, c.q)
    values.flags.writeable = False
    return Signal(base=c.base, q=c.q, values=values)


def parseval_residual(a: WalshMatrix, s: Signal) -> float:
    """|sum |c_n|^2 - (1/N^q) sum |v_j|^2|, the Parseval defect."""
    c = dwt_fast(a, s)
    coeff_energy = float((np.abs(c.coeffs) ** 2).sum())
    signal_energy = float((np.abs(s.values) ** 2).mean())
    return abs(coeff_energy - signal_energy)


# ---------------------------------------------------------------------------
# The message format.  One kind table names the two message types.
# CSV: header "# gwalsh <kind> N=<n> q=<q>", then one value per line, every
# line a real number or every line a complex "re,im" pair.  Values are read
# only in the ASCII spellings that repr() and the "g" format write.
# ---------------------------------------------------------------------------

#: significant digits for floats in every CSV file the CLI writes, the sweep CSV too
CSV_DIGITS = 12

# kind name -> message type and the field holding its N^q values
_KINDS = {"signal": (Signal, "values"), "coeffs": (CoefficientVector, "coeffs")}
_HEADER = "# gwalsh {kind} N={base} q={q}"


def _message_kind(message) -> tuple[str, np.ndarray]:
    """A message's kind name and its N^q values; anything but a message raises TypeError."""
    for kind, (cls, field) in _KINDS.items():
        if isinstance(message, cls):
            return kind, getattr(message, field)
    raise TypeError(f"a message is a Signal or a CoefficientVector, not {type(message).__name__}")


def _message(kind: str, base: int, q: int, values: np.ndarray):
    """Build the parsed message (its type checks N, q and the count), then check finiteness."""
    cls, field = _KINDS[kind]
    message = cls(base, q, values)
    if not np.isfinite(getattr(message, field)).all():
        raise ValidationError(f"non-finite value in a gwalsh {kind} message")
    return message


def _float_format(digits: int | None) -> str:
    """The format of one float: its shortest round-trip repr, or ``digits`` significant digits."""
    if digits is None:
        return "{!r}"
    if not is_integer(digits) or digits < 1:
        raise ValidationError(f"digits must be an integer >= 1 or None, got {digits!r}")
    return f"{{:.{int(digits)}g}}"


def message_to_text(message, digits: int | None = None) -> str:
    """The CSV of a Signal or CoefficientVector, values as ``_float_format(digits)`` writes them."""
    kind, values = _message_kind(message)
    field = _float_format(digits)
    if np.iscomplexobj(values):
        lines = map(f"{field},{field}".format, values.real.tolist(), values.imag.tolist())
    else:
        lines = map(field.format, values.tolist())
    return "\n".join([_HEADER.format(kind=kind, base=message.base, q=message.q), *lines]) + "\n"


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


def message_from_text(text: str, kind: str | None = None):
    """The message a CSV text holds: of ``kind``, or of the kind its header names."""
    if kind not in (None, *_KINDS):
        raise ValidationError(
            f"message kind must be one of {', '.join(map(repr, _KINDS))} or None, got {kind!r}")
    kinds = _KINDS if kind is None else {kind: _KINDS[kind]}
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValidationError("empty signal/coefficient file")
    head = lines[0].split()
    if len(head) != 5 or head[:2] != ["#", "gwalsh"] or head[2] not in kinds or (
            head[3][:2], head[4][:2]) != ("N=", "q="):
        raise ValidationError(
            f"bad header for a gwalsh {' or '.join(kinds)} file: {lines[0]!r}")
    try:
        base, q = ascii_int(head[3][2:]), ascii_int(head[4][2:])
    except ValueError:
        raise ValidationError(f"non-integer N or q in header: {lines[0]!r}") from None
    body = lines[1:]
    try:
        if not _number_text("\n".join(body)):
            raise ValueError
        arr = np.fromiter(map(float, body), dtype=float, count=len(body))
    except ValueError:  # complex pairs, or a bad line to report
        values = [_parse_value(line) for line in body]
        if len(set(map(type, values))) > 1:
            raise ValidationError(f"gwalsh {head[2]} values mix real numbers and re,im pairs")
        arr = np.asarray(values)
    return _message(head[2], base, q, arr)


def write_signal(s: Signal, path, digits: int | None = None) -> None:
    """Write ``s`` as signal CSV (:func:`message_to_text`), bit-exact if ``digits`` is None."""
    Path(path).write_text(message_to_text(s, digits))


def read_signal(path) -> Signal:
    """The signal of a signal CSV file; any other text raises ValidationError."""
    return message_from_text(read_text(path, "signal"), "signal")


def write_coefficients(c: CoefficientVector, path, digits: int | None = None) -> None:
    """Write ``c`` as coefficient CSV (:func:`message_to_text`), bit-exact if ``digits`` is None."""
    Path(path).write_text(message_to_text(c, digits))


def read_coefficients(path) -> CoefficientVector:
    """The coefficients of a coefficient CSV file; any other text raises ValidationError."""
    return message_from_text(read_text(path, "coefficient"), "coeffs")


def random_signal(base: int, q: int, seed: int, complex_values: bool = False) -> Signal:
    """Seeded random signal with cell values uniform in [0, 1)."""
    width = cell_count(base, q)
    complex_values = as_bool(complex_values, "complex_values")
    rng = seeded_rng(seed)
    if complex_values:
        values = np.empty(width, dtype=np.complex128)
        values.real = rng.random(width)
        values.imag = rng.random(width)
    else:
        values = rng.random(width)
    values.flags.writeable = False  # its own array, kept without a copy
    return Signal(base=base, q=q, values=values)


def signal_from_digits(text: str, base: int) -> Signal:
    """Signal whose cell j takes the value of the j-th character, an ASCII digit.

    Any other character is rejected, a space too, as :func:`matrix.ascii_int`
    rejects it; ``float()`` alone would also read digits such as ``٢`` and
    ``２``.  An empty or blank text raises "empty inline signal".
    """
    if not text.strip():
        raise ValidationError("empty inline signal")
    if not (text.isascii() and text.isdigit()):
        bad = next(ch for ch in text if ch not in "0123456789")
        raise ValidationError(f"inline signal character {bad!r} is not a digit")
    return Signal.from_values(base=base, values=list(map(float, text)))
