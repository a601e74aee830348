"""Walsh-generating unitary matrices.

A Walsh-generating matrix is an N x N unitary matrix (N >= 2) whose first
row is constantly 1/sqrt(N).  Every such matrix induces an orthonormal
system of step functions on [0, 1), built in :mod:`gwalsh.basis`.  This
module constructs, validates, serializes and randomly generates these
matrices.

Conventions fixed project-wide:

* rows are 0-indexed and row 0 is the constant row;
* inner products are linear in the first slot and conjugate the second;
* the constant row is stored as the exact double closest to 1/sqrt(N)
  (never trusted from parsed input).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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


def constant_row(n: int) -> np.ndarray:
    """Exact constant first row (1/sqrt(n), ..., 1/sqrt(n))."""
    return np.full(n, 1.0 / math.sqrt(n))


@dataclass(frozen=True, eq=False)
class WalshMatrix:
    """Validated N x N unitary matrix with constant first row.

    Immutable: the entry array is marked read-only on construction.
    ``tol`` records the unitarity tolerance the matrix was validated
    against.  Use :func:`validate` to build one from raw entries.
    """

    n: int
    entries: np.ndarray
    tol: float

    def __post_init__(self):
        if self.entries.shape != (self.n, self.n):
            raise BadDimensionError(
                f"entries shape {self.entries.shape} does not match n={self.n}"
            )

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.entries)

    def row(self, i: int) -> np.ndarray:
        return self.entries[i]

    def unitarity_defect(self) -> float:
        """Entrywise max deviation of the conjugate-transpose product from I."""
        gram = self.entries.conj().T @ self.entries
        return float(np.abs(gram - np.eye(self.n)).max())


@dataclass(frozen=True)
class RowPair:
    """Pair of non-constant row indices, l <= k, both in 1..N-1."""

    l: int
    k: int

    def __post_init__(self):
        if not (1 <= self.l <= self.k):
            raise ValidationError(f"row pair must satisfy 1 <= l <= k, got ({self.l}, {self.k})")


def validate(entries, tol: float = DEFAULT_EXTERNAL_TOL) -> WalshMatrix:
    """Check the three defining invariants and return a :class:`WalshMatrix`.

    The first row is snapped to the exact 1/sqrt(N) values when it is
    within ``tol`` of them.  Raises :class:`BadDimensionError`,
    :class:`BadFirstRowError` or :class:`NotUnitaryError` otherwise.
    """
    if not tol > 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    arr = np.asarray(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise BadDimensionError(f"entries must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n < 2:
        raise BadDimensionError(f"base must be at least 2, got {n}")
    if np.iscomplexobj(arr) and not arr.imag.any():
        arr = arr.real
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    arr = arr.astype(dtype)

    first = constant_row(n)
    first_dev = float(np.abs(arr[0] - first).max())
    if not first_dev <= tol:
        raise BadFirstRowError(
            f"first row deviates from 1/sqrt({n}) by {first_dev:.3e} (tol {tol:.3e})"
        )
    arr[0] = first

    gram = arr.conj().T @ arr
    defect = float(np.abs(gram - np.eye(n)).max())
    if not defect <= tol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds tol {tol:.3e}")
    row_sums = np.abs(arr[1:].sum(axis=1))
    if row_sums.size and not float(row_sums.max()) <= tol:
        raise NotUnitaryError(
            f"row {1 + int(row_sums.argmax())} sums to {row_sums.max():.3e}, "
            f"not 0 within tol {tol:.3e}"
        )
    arr.flags.writeable = False
    return WalshMatrix(n=n, entries=arr, tol=float(tol))


def generate_n3(a: float, row_choice: str = "second", branch: str = "plus") -> WalshMatrix:
    """Real 3x3 Walsh-generating matrix whose chosen row starts with ``a``.

    The remaining two entries of the chosen row solve the unit-norm and
    zero-sum constraints (a quadratic; ``branch`` picks the root).  The
    other non-constant row is the right-handed cross-product completion,
    which is the unique unit completion up to sign.  Requires
    |a| <= sqrt(2/3); outside that the quadratic has no real root.
    """
    if row_choice not in ROW_CHOICES:
        raise ValidationError(f"row_choice must be one of {ROW_CHOICES}, got {row_choice!r}")
    if branch not in BRANCHES:
        raise ValidationError(f"branch must be one of {BRANCHES}, got {branch!r}")
    a = float(a)
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


def generate_random(n: int, seed: int, complex_entries: bool = False) -> WalshMatrix:
    """Seeded random Walsh-generating matrix of size n.

    Draws standard-normal vectors with ``numpy.random.default_rng(seed)``
    (PCG64) and orthonormalizes them inside the orthogonal complement of
    the all-ones direction by modified Gram-Schmidt, so the output is a
    pure function of ``(n, seed, complex_entries)``.
    """
    if n < 2:
        raise BadDimensionError(f"base must be at least 2, got {n}")
    rng = np.random.default_rng(seed)
    rows = [constant_row(n).astype(np.complex128 if complex_entries else np.float64)]
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


def json_int(value, name: str) -> int:
    """An integer read from JSON: an int, or a float with no fractional part."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _entry_from_json(x):
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise ValidationError(f"complex entry must be a [re, im] pair, got {x!r}")
        return complex(float(x[0]), float(x[1]))
    return float(x)


def matrix_to_dict(m: WalshMatrix) -> dict:
    return {
        "n": m.n,
        "tol": m.tol,
        "entries": json_values(m.entries),
    }


def matrix_from_dict(d: dict, tol: float | None = None) -> WalshMatrix:
    try:
        raw = d["entries"]
    except (KeyError, TypeError):
        raise ValidationError("matrix JSON must contain an 'entries' field") from None
    try:
        entries = np.array([[_entry_from_json(x) for x in row] for row in raw])
        declared = json_int(d["n"], "declared n") if "n" in d else None
        tol = float(d.get("tol", DEFAULT_EXTERNAL_TOL)) if tol is None else tol
    except (TypeError, ValueError, OverflowError):  # float() of an int past 1e308 overflows
        raise ValidationError("matrix JSON entries, n and tol must be numbers") from None
    m = validate(entries, tol=tol)
    if declared is not None and declared != m.n:
        raise ValidationError(f"declared n={d['n']} does not match entries of size {m.n}")
    return m


def save_matrix(m: WalshMatrix, path) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(m), indent=2) + "\n")


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


def load_matrix(path, tol: float | None = None) -> WalshMatrix:
    return matrix_from_dict(read_json(path, "matrix"), tol=tol)
