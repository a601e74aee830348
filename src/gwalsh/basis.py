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
from .matrix import WalshMatrix

#: largest grid size for which dense N^q x N^q matrices may be formed
MAX_GRID = 2048


@dataclass(frozen=True)
class CellIndex:
    """The j-th half-open cell [j/N^q, (j+1)/N^q) at resolution q."""

    q: int
    j: int


def digit_length(n: int, base: int) -> int:
    """Number of base-N digits of n (0 for n = 0)."""
    length = 0
    while n > 0:
        n //= base
        length += 1
    return length


def digits(n: int, base: int, pad_to: int | None = None) -> tuple[int, ...]:
    """Base-N digits of n, least significant first, zero-padded to ``pad_to``."""
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    if base < 2:
        raise ValidationError(f"base must be at least 2, got {base}")
    width = digit_length(n, base) if pad_to is None else pad_to
    if pad_to is not None and n >= base**pad_to:
        raise DigitOverflowError(f"{n} does not fit in {pad_to} base-{base} digits")
    out = []
    for _ in range(width):
        out.append(n % base)
        n //= base
    return tuple(out)


def r_map(x: float, base: int) -> float:
    """One step of the base-N shift, r(x) = (N x) mod 1, on [0, 1)."""
    if not 0.0 <= x < 1.0:
        raise OutOfDomainError(f"x must lie in [0, 1), got {x!r}")
    scaled = base * x
    l = min(int(scaled), base - 1)
    return scaled - l


def cell_of(x: float, base: int, q: int) -> CellIndex:
    """Resolution-q cell containing x in [0, 1)."""
    if not 0.0 <= x < 1.0:
        raise OutOfDomainError(f"x must lie in [0, 1), got {x!r}")
    width = base**q
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


def digit_reversal_permutation(base: int, q: int) -> np.ndarray:
    """Permutation sending each index to the one with reversed base-N digits."""
    return np.arange(base**q).reshape((base,) * q).T.ravel()


def _check_row(a: WalshMatrix, i: int) -> None:
    if not 0 <= i < a.n:
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
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    q = max(1, digit_length(n, a.n))
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
    width = a.n**q
    if not 0 <= n < width:
        raise DigitOverflowError(f"need n < N^q = {width}, got n={n}")
    r = scaled_rows(a)
    # axis t of the outer product is the t-th most significant cell digit
    factors = [r[i_t] for i_t in digits(n, a.n, pad_to=q)]
    return reduce(np.multiply.outer, factors, np.ones((), r.dtype)).ravel()


def _width(base: int, q: int, limit: int = 2**53) -> int:
    """N^q, checking q >= 1 and N^q <= limit.

    The default limit keeps every cell index exact in a double; dense
    N^q x N^q matrices are limited to MAX_GRID.
    """
    if q < 1:
        raise ValidationError(f"resolution q must be at least 1, got {q}")
    if base**q > limit:
        raise ValidationError(f"N^q = {base}^{q} exceeds the limit of {limit} cells")
    return base**q


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
    _width(a.n, q)
    return _kernel_product(a, q, cell_of(x, a.n, q).j, cell_of(t, a.n, q).j)


def grid_matrix(a: WalshMatrix, q: int) -> np.ndarray:
    """Dense (N^q, N^q) matrix with entry [n, j] = W_n on cell j."""
    _width(a.n, q, MAX_GRID)
    r = scaled_rows(a)
    power = reduce(np.kron, [r] * q)
    return power[digit_reversal_permutation(a.n, q), :]


def gram_defect(a: WalshMatrix, q: int) -> float:
    """Max deviation from identity of the Walsh Gram matrix at resolution q.

    The Gram matrix is the q-fold Kronecker power of the N x N Gram
    ``G = R conj(R)^T / N`` of the m_i, up to the digit-reversal order of its
    rows and columns, which moves no entry on or off the diagonal.  Its
    diagonal entries are the q-fold products of diag(G), which span
    [d_min^q, d_max^q] for d = |diag(G)|; its largest off-diagonal entry is
    the largest off-diagonal |G| times (max |G|)^(q-1).  N^q stays limited
    to MAX_GRID.
    """
    _width(a.n, q, MAX_GRID)
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
    width = _width(a.n, q)
    if samples < 1:
        raise ValidationError(f"samples must be at least 1, got {samples}")
    points = np.random.default_rng(seed).random((samples, 2))
    cells = np.minimum((points * width).astype(np.int64), width - 1)
    jx, jt = cells[:, [0, 1, 0, 0]].reshape(-1, 2).T  # each pair (x, t), then (x, x)
    return float(np.abs(_kernel_product(a, q, jx, jt) / width - (jx == jt)).max())
