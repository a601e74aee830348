"""Walsh-generating unitary matrices.

A Walsh-generating matrix is an N x N unitary matrix (N >= 2) whose first
row is constantly 1/sqrt(N).  Every such matrix induces an orthonormal
system of step functions on [0, 1), built in :mod:`gwalsh.basis`.  This
module constructs, validates, serializes and randomly generates these
matrices.  :func:`read_json` and :func:`write_json` read and write every
JSON file of the package.  The matrix reader checks only its format;
:class:`WalshMatrix` checks the tolerance, then a declared n before any number.

Conventions fixed project-wide:

* rows are 0-indexed and row 0 is the constant row;
* inner products are linear in the first slot and conjugate the second;
* the constant row is stored as the exact double closest to 1/sqrt(N)
  (never trusted from parsed input).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from numbers import Number, Real
from pathlib import Path

import numpy as np

from .errors import (
    BadDimensionError,
    BadFirstRowError,
    DegenerateDrawError,
    NotUnitaryError,
    OutOfRangeError,
    ValidationError,
)

#: unitarity tolerance for matrices supplied from the outside (files)
DEFAULT_EXTERNAL_TOL = 1e-8
#: unitarity tolerance for matrices this package constructs itself
DEFAULT_GENERATED_TOL = 1e-10

ROW_CHOICES = ("second", "third")
BRANCHES = ("plus", "minus")

_MAX_DRAWS = 64

#: largest matrix size: the widest lead the blocked butterfly passes are built for
MAX_N = 4096


def constant_row(n: int) -> np.ndarray:
    """Exact constant first row (1/sqrt(n), ..., 1/sqrt(n)), for 2 <= n <= MAX_N."""
    if not 2 <= n <= MAX_N:
        raise BadDimensionError(f"base must be between 2 and {MAX_N}, got {n}")
    return np.full(n, 1.0 / math.sqrt(n))


def number_array(values, what: str) -> tuple[np.ndarray, np.dtype]:
    """values as an array of numbers, and the dtype that stores them; else ValidationError.

    Booleans, integers and real floats of any width are stored as float64,
    complex numbers of any width as complex128.  An object array is converted
    here, read-only, so each element must be a number within the float range.
    Strings, bytes, None, datetimes and ragged lists are not numbers.
    """
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "O" and all(isinstance(v, (Number, np.bool_)) for v in arr.flat):
            complex_values = any(isinstance(v, (complex, np.complexfloating)) for v in arr.flat)
            arr = arr.astype(np.complex128 if complex_values else np.float64)
            arr.flags.writeable = False  # stored as it is: no second copy
    except (ValueError, OverflowError):  # ragged nested lists; an int past the float range
        raise ValidationError(f"{what} must be numbers in float range, not ragged lists") from None
    if arr.dtype.kind not in "biufc":
        raise ValidationError(f"{what} must be numbers, got dtype {arr.dtype}")
    return arr, np.dtype(np.complex128 if arr.dtype.kind == "c" else np.float64)


def _tolerance(tol, what: str) -> float:
    """tol as a float: a real (:func:`as_real`), positive and finite; else ValidationError."""
    if is_real(tol) and 0 < as_real(tol, what) < math.inf:
        return float(tol)
    raise ValidationError(f"{what} must be a positive finite number, got {tol!r}")


@dataclass(frozen=True, eq=False)
class WalshMatrix:
    """Validated N x N unitary matrix with constant first row.

    Construction runs every check of :func:`validate` on ``entries`` at the
    unitarity tolerance ``tol`` and stores them read-only: a plain write
    raises ValueError, but numpy lets any holder set ``writeable`` back to
    True.  ``WalshMatrix(n, entries, tol)`` and ``validate(entries, tol)``
    build the same matrix, or raise the same error; a shape other than
    (n, n) raises :class:`BadDimensionError`.
    """

    n: int
    entries: np.ndarray
    tol: float

    def __post_init__(self):
        tol = _tolerance(self.tol, "tolerance")
        arr, stored = number_array(self.entries, "matrix entries")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise BadDimensionError(f"entries must be square, got shape {arr.shape}")
        n = as_integer(self.n, "matrix n")
        if arr.shape != (n, n):
            raise BadDimensionError(f"entries shape {arr.shape} does not match n={n}")
        first = constant_row(n)
        arr = arr.astype(stored)
        if stored.kind == "c" and not arr.imag.any():
            arr = arr.real.copy()

        first_dev = float(np.abs(arr[0] - first).max())
        if not first_dev <= tol:
            raise BadFirstRowError(
                f"first row deviates from 1/sqrt({n}) by {first_dev:.3e} (tol {tol:.3e})"
            )
        arr[0] = first
        # no unitary matrix has an entry above 1, and bounded entries keep the Gram finite
        peak = float(np.abs(arr).max())
        if not peak <= 1 + tol:
            raise NotUnitaryError(f"an entry has magnitude {peak:.3e}, above 1 + tol ({tol:.3e})")
        arr.flags.writeable = False
        for name, value in (("n", n), ("entries", arr), ("tol", tol)):
            object.__setattr__(self, name, value)

        defect = self.unitarity_defect()
        if not defect <= tol:
            raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds tol {tol:.3e}")
        row_sums = np.abs(arr[1:].sum(axis=1))
        if row_sums.size and not float(row_sums.max()) <= tol:
            raise NotUnitaryError(
                f"row {1 + int(row_sums.argmax())} sums to {row_sums.max():.3e}, "
                f"not 0 within tol {tol:.3e}"
            )

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.entries)

    def unitarity_defect(self) -> float:
        """Entrywise max deviation of the conjugate-transpose product from I."""
        gram = self.entries.conj().T @ self.entries
        return float(np.abs(gram - np.eye(self.n)).max())


def validate(entries, tol: float = DEFAULT_EXTERNAL_TOL) -> WalshMatrix:
    """Check the three defining invariants and return a :class:`WalshMatrix`.

    The first row is snapped to the exact 1/sqrt(N) values when it is
    within ``tol`` of them.  Entries that are not numbers raise
    :class:`ValidationError`; the others are stored as :func:`number_array`
    says, complex ones as float64 when every imaginary part is zero.  Raises
    :class:`BadDimensionError`, :class:`BadFirstRowError` or :class:`NotUnitaryError` otherwise.
    The checks are the constructor's, with N read off the entries.
    """
    arr = number_array(entries, "matrix entries")[0]
    return WalshMatrix(n=arr.shape[0] if arr.ndim else 0, entries=arr, tol=tol)


def generate_n3(a: float, row_choice: str = "second", branch: str = "plus") -> WalshMatrix:
    """Real 3x3 Walsh-generating matrix whose chosen row starts with ``a``.

    The remaining two entries of the chosen row solve the unit-norm and
    zero-sum constraints (a quadratic; ``branch`` picks the root).  The
    other non-constant row is the right-handed cross-product completion,
    which is the unique unit completion up to sign.  Requires a real
    (:func:`as_real`), finite |a| <= sqrt(2/3) (:class:`ValidationError`
    otherwise); outside that the quadratic has no real root (:class:`OutOfRangeError`).
    """
    if row_choice not in ROW_CHOICES:
        raise ValidationError(f"row_choice must be one of {ROW_CHOICES}, got {row_choice!r}")
    if branch not in BRANCHES:
        raise ValidationError(f"branch must be one of {BRANCHES}, got {branch!r}")
    a = as_real(a, "the leading entry")
    if not math.isfinite(a):
        raise ValidationError(f"the leading entry must be finite, got a={a!r}")
    disc = 2.0 - 3.0 * a * a
    if disc < -1e-12:
        raise OutOfRangeError(
            f"|a| <= sqrt(2/3) required for a real completion, got a={a!r}"
        )
    if abs(disc) < 1e-14:
        disc = 0.0  # boundary |a| = sqrt(2/3): the branches coincide
    d = math.sqrt(max(disc, 0.0))
    y = (-a + d) / 2.0 if branch == "plus" else (-a - d) / 2.0
    z = -a - y
    chosen = np.array([a, y, z])

    r0 = constant_row(3)
    if row_choice == "second":
        r1 = chosen
        r2 = np.cross(r0, r1)
        r2 /= np.linalg.norm(r2)
    else:
        r2 = chosen
        r1 = np.cross(r2, r0)
        r1 /= np.linalg.norm(r1)
    return validate(np.vstack([r0, r1, r2]), tol=DEFAULT_GENERATED_TOL)


def is_integer(value) -> bool:
    """True for an ``int`` or numpy integer that is not a ``bool``: gwalsh's integer arguments."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_integer(value, what: str) -> int:
    """value as an ``int`` when :func:`is_integer` holds for it; else ValidationError."""
    if not is_integer(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """True for a ``numbers.Real`` that is not a ``bool``: gwalsh's real arguments."""
    return isinstance(value, Real) and not isinstance(value, bool)


def as_real(value, what: str) -> float:
    """``float(value)`` when :func:`is_real` holds for it; else ValidationError.

    An int past the float range, which ``float()`` cannot read, raises it too.
    """
    if not is_real(value):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # named by size: the repr of a long int can pass Python's digit limit
        raise ValidationError(
            f"{what} must be in float range, got an int of {value.bit_length()} bits") from None


def as_bool(value, what: str) -> bool:
    """value as a ``bool`` when it is a ``bool`` or ``numpy.bool_``; else ValidationError."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{what} must be a bool, got {value!r}")
    return bool(value)


def ascii_int(text: str) -> int:
    """The int that ``text`` spells as an optional ``-`` and ASCII digits; else ValueError.

    The integer rule of CSV headers and CLI flags: ``int()`` alone also reads
    ``+5``, ``1_0``, `` 5`` and non-ASCII digits such as ``٣``.
    """
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an optional '-' and ASCII digits: {text!r}")
    return int(text)


def ascii_float(text: str) -> float:
    """``float(text)`` when ``text`` is ASCII without whitespace or ``_``; else ValueError.

    The float rule of CLI flags: ``float()`` alone also reads `` 0.2``,
    ``1_0e-9`` and non-ASCII digits such as ``٠.٥``.  ``inf`` and ``nan``
    still read, so that each caller's own check rejects them as values.
    """
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not an ASCII float without whitespace or '_': {text!r}")
    return float(text)


def seeded_rng(seed: int) -> np.random.Generator:
    """``numpy.random.default_rng(seed)`` for a non-negative integer seed.

    Every random draw in gwalsh starts here.  ``None`` would draw fresh OS
    entropy, so it is rejected with booleans, negative and non-integer seeds.
    """
    if not is_integer(seed) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def generate_random(n: int, seed: int, complex_entries: bool = False) -> WalshMatrix:
    """Seeded random Walsh-generating matrix of size n.

    Draws standard-normal vectors with ``numpy.random.default_rng(seed)``
    (PCG64) and orthonormalizes them inside the orthogonal complement of
    the all-ones direction by modified Gram-Schmidt, so the output is a
    pure function of ``(n, seed, complex_entries)``.
    """
    n = as_integer(n, "n")
    complex_entries = as_bool(complex_entries, "complex_entries")
    rows = [constant_row(n).astype(np.complex128 if complex_entries else np.float64)]
    rng = seeded_rng(seed)
    for _ in range(1, n):
        for _ in range(_MAX_DRAWS):
            v = rng.standard_normal(n)
            if complex_entries:
                v = v + 1j * rng.standard_normal(n)
            for _ in range(2):  # two Gram-Schmidt passes for stability
                for r in rows:
                    v = v - np.vdot(r, v) * r
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                rows.append(v / norm)
                break
        else:
            raise DegenerateDrawError(
                f"could not draw an independent vector after {_MAX_DRAWS} attempts"
            )
    return validate(np.vstack(rows), tol=DEFAULT_GENERATED_TOL)


def json_values(values: np.ndarray) -> list:
    """``values.tolist()`` with each complex value as a [re, im] pair."""
    if np.iscomplexobj(values):
        return np.stack((values.real, values.imag), axis=-1).tolist()
    return values.tolist()


def json_numbers(raw, name: str, ndim: int) -> np.ndarray:
    """JSON numbers as a float64 array of ``ndim`` axes, or complex128 from [re, im] pairs.

    Pairs form one more trailing axis (never at ndim 0) and are viewed, not
    summed, so a -0.0 part keeps its sign.  Every leaf must be an int or a
    float, finite and within float range; anything else raises ValidationError.
    """
    tree = np.array(raw, dtype=object)
    pairs = ndim > 0 and tree.shape[ndim:] == (2,)
    try:
        if tree.ndim != ndim + pairs or not set(map(type, tree.flat)) <= {int, float}:
            raise ValueError  # a string, boolean, null, ragged list or wrong depth
        values = tree.astype(np.float64)  # an int past 1e308 raises OverflowError
        if not np.isfinite(values).all():
            raise ValueError
    except (ValueError, OverflowError):
        what = "a finite JSON number" if ndim == 0 else (
            f"finite JSON numbers or [re, im] pairs, nested {ndim} deep")
        raise ValidationError(f"{name} must be {what}") from None
    return values.view(np.complex128)[..., 0] if pairs else values


def json_int(value, name: str) -> int:
    """An integer read from JSON: an int, or a float with no fractional part."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def matrix_to_dict(m: WalshMatrix) -> dict:
    return {
        "n": m.n,
        "tol": m.tol,
        "entries": json_values(m.entries),
    }


def matrix_from_dict(d: dict, tol: float | None = None) -> WalshMatrix:
    if not isinstance(d, dict) or "entries" not in d:
        raise ValidationError("matrix JSON must be an object with an 'entries' field")
    entries = json_numbers(d["entries"], "matrix entries", 2)
    declared = json_int(d["n"], "declared n") if "n" in d else None
    # checked also when the caller's tol replaces it, so every reader rejects the same files
    file_tol = _tolerance(d.get("tol", DEFAULT_EXTERNAL_TOL), "matrix tol")
    tol = file_tol if tol is None else tol
    # a declared n is the constructor's shape check, made before any numeric one
    return validate(entries, tol) if declared is None else WalshMatrix(declared, entries, tol)


def save_matrix(m: WalshMatrix, path) -> None:
    """Write ``m`` as matrix JSON (``n``, ``tol``, ``entries``) that re-parses bit-exactly."""
    write_json(matrix_to_dict(m), path)


def read_text(path, kind: str) -> str:
    """The text of a ``kind`` input file; bytes that are not UTF-8 raise ValidationError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ValidationError(f"{kind} file {path} is not UTF-8 text: {e}") from None


def read_json(path, kind: str):
    """The parsed JSON of a ``kind`` input file; malformed text raises ValidationError."""
    try:
        return json.loads(read_text(path, kind))
    except (json.JSONDecodeError, RecursionError) as e:  # deep nesting exhausts the decoder
        raise ValidationError(f"malformed {kind} JSON in {path}: {e}") from e


def write_json(payload, path=None) -> None:
    """Write ``payload`` as JSON indented by 2, with a final newline, to ``path`` or to stdout."""
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def load_matrix(path, tol: float | None = None) -> WalshMatrix:
    """The matrix of a matrix JSON file, validated at ``tol``, or at the file's ``tol`` if None."""
    return matrix_from_dict(read_json(path, "matrix"), tol=tol)
