"""Generalized Walsh step functions and the reproducing kernel.

Given a Walsh-generating matrix A of size N, the level-0 building blocks
are the step functions

    m_i(x) = sqrt(N) * A[i, j]   for x in [j/N, (j+1)/N),

and the n-th Walsh function is the product m_{i_0}(x) m_{i_1}(r x) ...
over the base-N digits i_t of n (least significant first), where
r(x) = (N x) mod 1.  Since m_0 is identically 1, W_0 is identically 1.

Everything here evaluates through integer digit arithmetic on the cell
containing x: with n's digits i_t and the cell's leading base-N digits
k_0, k_1, ... (most significant first), the value is the product over t
of sqrt(N) * A[i_t, k_t].  Iterating r in floating point is never used,
so points are never misclassified across cell boundaries mid-product.

All cells are half-open [j/N^q, (j+1)/N^q); evaluation at x = 1 is
rejected rather than extended.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BadRowError, DigitOverflowError, OutOfDomainError, ValidationError
from .matrix import WalshMatrix, as_integer, as_real, is_integer, seeded_rng

#: largest grid size for which dense N^q x N^q matrices may be formed
MAX_GRID = 2048
#: most point pairs kernel_deviation samples: bounds its 16 MB point array and its time
MAX_SAMPLES = 10**6
#: point pairs kernel_deviation evaluates at once, about 5 MB of temporaries
_SAMPLE_CHUNK = 2**15


@dataclass(frozen=True)
class CellIndex:
    """The j-th half-open cell [j/N^q, (j+1)/N^q) at resolution q."""

    q: int
    j: int


def digit_length(n: int, base: int) -> int:
    """Number of base-N digits of n (0 for n = 0), for integers n and N >= 2."""
    n, base = as_integer(n, "n"), as_integer(base, "base")
    if base < 2:  # base 1 would never end the loop
        raise ValidationError(f"base must be at least 2, got {base}")
    length = 0
    while n > 0:
        n //= base
        length += 1
    return length


def _resolution(n: int, base: int) -> int:
    """Resolution of W_n: it is constant on the cells of max(1, base-N digits of n)."""
    return max(1, digit_length(n, base))


def digits(n: int, base: int, pad_to: int | None = None) -> tuple[int, ...]:
    """Base-N digits of n, least significant first, zero-padded to ``pad_to``; all integers."""
    n, base = as_integer(n, "n"), as_integer(base, "base")
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    length = digit_length(n, base)
    width = length if pad_to is None else as_integer(pad_to, "pad_to")
    if length > width:  # n >= N^pad_to, never formed
        raise DigitOverflowError(f"{n} does not fit in {pad_to} base-{base} digits")
    out = []
    for _ in range(width):
        out.append(n % base)
        n //= base
    return tuple(out)


def r_map(x: float, base: int) -> float:
    """One step of the base-N shift, r(x) = (N x) mod 1, on [0, 1), for N >= 2."""
    base, x = as_integer(base, "base"), as_real(x, "x")
    return base * x - cell_of(x, base, 1).j


def cell_count(base: int, q: int, limit: int = 2**53) -> int:
    """N^q, the number of resolution-q cells, for integers N >= 2, q >= 0 and N^q <= limit.

    An integer is an ``int`` or numpy integer, not a ``bool``.  N^q >= 2^q,
    so a q longer than ``limit.bit_length()`` is rejected before the power
    is formed, which is taken in Python ints: a numpy power would wrap.  The
    default limit keeps every cell index exact in a double; dense
    N^q x N^q matrices are limited to MAX_GRID.
    """
    if not (is_integer(base) and is_integer(q)):
        raise ValidationError(f"cell counts need integer N and q, got N={base!r}, q={q!r}")
    if base < 2 or q < 0:
        raise ValidationError(f"cell counts need N >= 2 and q >= 0, got N={base}, q={q}")
    base, q = int(base), int(q)
    if q > limit.bit_length() or base**q > limit:
        raise ValidationError(f"N^q = {base}^{q} exceeds the limit of {limit} cells")
    return base**q


def cell_of(x: float, base: int, q: int) -> CellIndex:
    """Resolution-q cell containing x in [0, 1); x is a real number (:func:`matrix.as_real`)."""
    x = as_real(x, "x")
    if not 0.0 <= x < 1.0:
        raise OutOfDomainError(f"x must lie in [0, 1), got {x!r}")
    width = cell_count(base, q)
    j = min(int(x * width), width - 1)
    return CellIndex(q=q, j=j)


def scaled_rows(a: WalshMatrix) -> np.ndarray:
    """sqrt(N) times the entries, with the first row regenerated as exactly 1.

    Row i of the result is the step-function value table of m_i; the
    constant row is rebuilt analytically so that m_0 is exactly 1.
    """
    r = np.sqrt(a.n) * a.entries
    r[0, :] = 1.0
    r.flags.writeable = False
    return r


def _check_row(a: WalshMatrix, i: int) -> None:
    if not 0 <= as_integer(i, "row index") < a.n:
        raise BadRowError(f"row index {i} out of range for n={a.n}")


def m_eval(a: WalshMatrix, i: int, x: float):
    """Value of the step function m_i at x: sqrt(N) * A[i, floor(N x)]."""
    _check_row(a, i)
    cell = cell_of(x, a.n, 1)
    return scaled_rows(a)[i, cell.j]


def walsh_eval(a: WalshMatrix, n: int, x: float):
    """Value of the n-th Walsh function at x.

    Uses the cell of x at the resolution given by n's digit count; the
    result is the digit product described in the module docstring.
    """
    q = _resolution(n, a.n)
    cell = cell_of(x, a.n, q)
    ndig = digits(n, a.n, pad_to=q)
    kdig = digits(cell.j, a.n, pad_to=q)[::-1]
    r = scaled_rows(a)
    value = r.dtype.type(1)
    for i_t, k_t in zip(ndig, kdig):
        if i_t:
            value = value * r[i_t, k_t]
    return value


def walsh_on_grid(a: WalshMatrix, n: int, q: int) -> np.ndarray:
    """Constant value of the n-th Walsh function on each resolution-q cell.

    Entry j equals ``walsh_eval(a, n, (2 j + 1) / (2 N^q))``.
    """
    width = cell_count(a.n, q)
    if not 0 <= as_integer(n, "n") < width:
        raise DigitOverflowError(f"need n < N^q = {width}, got n={n}")
    r = scaled_rows(a)
    # axis t of the outer product is the t-th most significant cell digit
    factors = [r[i_t] for i_t in digits(n, a.n, pad_to=q)]
    return reduce(np.multiply.outer, factors, np.ones((), r.dtype)).ravel()


def _width(base: int, q: int, limit: int = 2**53) -> int:
    """:func:`cell_count` for a resolution q >= 1."""
    if q < 1:
        raise ValidationError(f"resolution q must be at least 1, got {q}")
    return cell_count(base, q, limit)


def _kernel_product(a: WalshMatrix, q: int, jx, jt):
    """Kernel sum for cell indices jx, jt (ints or integer arrays).

    It is the product over their q base-N digits of one entry of the
    N x N table ``R^T conj(R)``, where row i of R holds the values of m_i.
    """
    r = scaled_rows(a)
    table = r.T @ np.conj(r)
    value = 1
    for _ in range(q):
        value = value * table[jx % a.n, jt % a.n]
        jx, jt = jx // a.n, jt // a.n
    return value


def dirichlet_kernel(a: WalshMatrix, q: int, x: float, t: float):
    """Sum over n < N^q of W_n(x) * conj(W_n(t)), computed directly.

    The sum factors over the base-N digits of n (see ``_kernel_product``).
    (The closed form is N^q when t lies in x's resolution-q cell and 0
    otherwise; tests compare against it, this function does not assume it.)
    """
    q = as_integer(q, "q")
    _width(a.n, q)
    return _kernel_product(a, q, cell_of(x, a.n, q).j, cell_of(t, a.n, q).j)


def grid_matrix(a: WalshMatrix, q: int, *, _out: np.ndarray | None = None) -> np.ndarray:
    """Dense (N^q, N^q) matrix with entry [n, j] = W_n on cell j.

    It is the transposed view of a C-contiguous (cells, functions) running
    outer product; each entry is the left-to-right digit product of a
    Kronecker power of the m_i, bit for bit.  Each step writes its product
    in C order, so the reshape after it is a view: the only full-size array
    is the result, and the step before it holds 1/N^2 as many values.

    ``_out`` is the pairing check's scratch array (:mod:`gwalsh.protocol`):
    a flat array of at least N^(2q) values, real or complex, that the last
    step writes into, so the result views its prefix and has its dtype.
    """
    q = as_integer(q, "q")
    width = _width(a.n, q, MAX_GRID)
    factor = scaled_rows(a).T  # [cell digit, digit of n]
    cells = factor
    for _ in range(q - 2):  # each step's cell digit is less significant, its digit of n more
        # numpy would lay the broadcast product out in its operands' stride order
        step = np.multiply(cells[:, None, None, :], factor[None, :, :, None], order="C")
        cells = step.reshape(len(cells) * a.n, -1)
    # allocated after the steps, the grid shares the peak only with the last of them
    grid = np.empty(width * width, factor.dtype) if _out is None else _out[:width * width]
    grid = grid.reshape(width, width)
    if q == 1:
        grid[...] = factor
    else:  # the last step, written straight into the grid
        np.multiply(cells[:, None, None, :], factor[None, :, :, None],
                    out=grid.reshape(len(cells), a.n, a.n, -1))
    return grid.T


def gram_defect(a: WalshMatrix, q: int) -> float:
    """Max deviation from identity of the Walsh Gram matrix at resolution q.

    The Gram matrix is the q-fold Kronecker power of the N x N Gram
    ``G = R conj(R)^T / N`` of the m_i, up to the digit-reversal order of its
    rows and columns, which moves no entry on or off the diagonal.  Its
    diagonal entries are the q-fold products of diag(G), which span
    [d_min^q, d_max^q] for d = |diag(G)|; its largest off-diagonal entry is
    the largest off-diagonal |G| times (max |G|)^(q-1).
    """
    q = as_integer(q, "q")
    _width(a.n, q)
    r = scaled_rows(a)
    gram = np.abs((r @ r.conj().T) / a.n)
    d = gram.diagonal()
    off = (gram - np.diag(d)).max()
    return float(max(d.max() ** q - 1, 1 - d.min() ** q, off * gram.max() ** (q - 1)))


def kernel_deviation(a: WalshMatrix, q: int, samples: int = 1000, seed: int = 0) -> float:
    """Max of ``|D(x, t) / N^q - [x and t share a cell]|`` over sampled points.

    D is :func:`dirichlet_kernel`; (x, t) runs over the rows of
    ``default_rng(seed).random((samples, 2))``, and so does (x, x).  The same-cell
    value N^q carries rounding of order N^q q eps, hence the division by N^q.
    """
    q = as_integer(q, "q")
    width = _width(a.n, q)
    if not (is_integer(samples) and 1 <= samples <= MAX_SAMPLES):
        raise ValidationError(
            f"samples must be between 1 and {MAX_SAMPLES} and an integer, got {samples!r}")
    points = seeded_rng(seed).random((samples, 2))
    worst = []
    for start in range(0, samples, _SAMPLE_CHUNK):  # chunks bound the memory, not the max
        chunk = points[start:start + _SAMPLE_CHUNK]
        cells = np.minimum((chunk * width).astype(np.int64), width - 1)
        jx, jt = cells[:, [0, 1, 0, 0]].reshape(-1, 2).T  # each pair (x, t), then (x, x)
        worst.append(np.abs(_kernel_product(a, q, jx, jt) / width - (jx == jt)).max())
    return float(np.max(worst))
