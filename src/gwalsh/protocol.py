"""Two-party encoding exchange and companion-matrix solving.

Two Walsh-generating matrices A and B are *companions* when every pair
of non-constant rows satisfies

    <row_l of B, row_k of A> = <row_l of A, row_k of B>,

that is, when the cross-Gram ``B[1:] A[1:]^H`` is Hermitian; the row
check includes l = k, which binds only complex matrices.  This is
equivalent to the same identity between their Walsh functions in L2[0,1],
which :func:`pairing_check_basis` checks brute force.  Both checks return
a :class:`PairingReport`.
For a companion pair, analysis by A and synthesis by B compose to the
identity after two rounds, which carries a four-message exchange:

    w1 = analysis_A(f)    (Alice to Bob)
    w2 = synthesis_B(w1)  (Bob to Alice)
    w3 = analysis_A(w2)   (Alice to Bob)
    f' = synthesis_B(w3)  (Bob recovers the signal)

The non-constant rows of a companion are exactly ``C A[1:]`` with C a
Hermitian unitary matrix.  For a real 3x3 matrix this leaves a
one-parameter family, solved in closed form by :func:`solve_companion`;
for any size (or complex entries) :func:`solve_companion_numeric` builds
a seeded reflection C and certifies the result.  :func:`mask_constraints`
scales each pairing equation by a random nonzero factor, which leaves
the solution set unchanged.  The masking hides nothing: every equation
carries two rows of A, each up to that factor, so ``A[1:]`` can be read
back from the published system up to sign.

Exchange messages pass through a channel, which stores each message on
``put`` and rebuilds and checks it on ``get``, so no party ever holds the
sender's array; both channels round-trip every message bit-exactly.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateEliminationError,
    DimensionMismatchError,
    NoConvergenceError,
    NoRealSolutionError,
    ValidationError,
)
from .matrix import (
    BRANCHES,
    DEFAULT_EXTERNAL_TOL,
    WalshMatrix,
    as_integer,
    constant_row,
    json_int,
    json_numbers,
    json_values,
    read_json,
    read_text,
    seeded_rng,
    validate,
    write_json,
)
from .transform import (
    _BLOCK,
    CoefficientVector,
    Signal,
    _butterfly,
    _message,
    _message_kind,
    dwt_fast,
    idwt,
    message_from_text,
    message_to_text,
)
from .basis import MAX_GRID, _width, grid_matrix

#: row pairing residual above which run_exchange flags the pairing as violated
PAIRING_TOL = 1e-7


@dataclass(frozen=True)
class PairingReport:
    """Result of a companion check: its largest residual and where it lies."""

    holds: bool
    worst_indices: tuple[int, int]
    worst_residual: float


@dataclass(frozen=True)
class MaskedEquation:
    """One published linear constraint on the unknown entries b_i_j."""

    coeffs: dict
    rhs: float = 0.0


@dataclass(frozen=True)
class MaskedConstraintSystem:
    """Companion constraints with each equation scaled by a random factor.

    The scalars are nonzero, so the solution set coincides with the
    unmasked system's.
    """

    n: int
    equations: tuple[MaskedEquation, ...]


@dataclass(frozen=True, eq=False)
class ExchangeTranscript:
    """The three exchanged messages plus the recovered signal."""

    w1: CoefficientVector
    w2: Signal
    w3: CoefficientVector
    recovered: Signal
    max_error: float
    pairing_violated: bool


def _hermitian_defect(x: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Largest ``|x[i, j] - conj(x[j, i])|`` of a square array, and its (i, j).

    The defect is exactly symmetric: swapping i and j negates the real part
    of the difference and keeps its imaginary part, the same sum.  So the
    first row-major maximum (or the first NaN) lies on or above the diagonal,
    and the scan reads the upper triangle in row blocks of about _BLOCK
    values, one temporary each; it names the (i, j) a whole-array argmax would.
    """
    width = len(x)
    rows = max(1, _BLOCK // width)
    worst, worst_indices = -1.0, (0, 0)
    for i in range(0, width, rows):
        # one temporary per block: .conj() of a real array is a view, np.conj a copy
        block = np.subtract(x[i:i + rows, i:], x[i:, i:i + rows].T.conj())
        block = np.abs(block, out=block if block.dtype.kind == "f" else None)
        flat = int(block.argmax())
        value = float(block.flat[flat])
        if not value <= worst:  # strictly larger, or the first NaN
            row, col = divmod(flat, width - i)
            worst, worst_indices = value, (i + row, i + col)
            if value != value:
                break
    return worst, worst_indices


def pairing_check_rows(a: WalshMatrix, b: WalshMatrix, tol: float = 1e-8) -> PairingReport:
    """Check the row-level companion condition over all pairs 1 <= l <= k.

    The residual of (l, k) is ``|<b_l, a_k> - <a_l, b_k>|``, the Hermitian
    defect of ``B[1:] A[1:]^H``; ``worst_indices`` is the first row-major
    pair (l, k) of row numbers, 1 <= l <= k <= N-1, with the largest
    residual (or NaN).
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"matrix sizes differ: {a.n} vs {b.n}")
    worst, (l, k) = _hermitian_defect(b.entries[1:] @ a.entries[1:].conj().T)
    return PairingReport(holds=worst <= tol, worst_indices=(l + 1, k + 1), worst_residual=worst)


def _walsh_cross(a: WalshMatrix, b: WalshMatrix, q: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """[l, k] = <W_l of B, W_k of A> for all l, k < N^q, by one butterfly pass.

    The columns of the C-contiguous (cells, N^q) array ``grid_matrix(b, q).T``
    are B's Walsh functions, and A's forward kernel analyses them all at once,
    in one pass: the grid has at most MAX_GRID cells.  The pass writes its
    result over the grid.  With ``out``, a flat array of at least N^(2q)
    values of the result's dtype, the grid is built in ``out`` (complex when
    A is, for a real B too), and the result views its prefix: the call
    allocates no full-size array.  Without it the grid is a fresh array, and
    the check holds one N^(2q) array, or two when a complex A analyses a
    real B.
    """
    cells = grid_matrix(b, q, _out=out).T
    # the pass writes coefficient k of column l at [k, l]
    cross = _butterfly(a, cells, q, inverse=False, overwrite=True)
    return cross.reshape(cells.shape).T


# pairing_check_basis's scratch array, one per thread: see its docstring
_scratch = threading.local()


def pairing_check_basis(
    a: WalshMatrix, b: WalshMatrix, q: int, tol: float = 1e-8
) -> PairingReport:
    """Brute-force L2 check of the companion condition on all Walsh pairs < N^q.

    All N^(2q) inner products come from one batched butterfly pass
    (:func:`_walsh_cross`): q N^(2q+1) multiplies, against N^(3q) for the
    product of two grid matrices.  ``count_multiplies`` does not count them.
    The residual ``|<W_l of B, W_k of A> - <W_l of A, W_k of B>|`` is the
    Hermitian defect of the cross matrix (:func:`_hermitian_defect`), and the
    report names its first row-major maximum (or NaN).

    The cross matrix is built, analysed and scanned in one scratch array per
    thread, of N^(2q) float64 values (complex128 when A or B is complex).  It
    is kept between calls, sized to the largest check its thread has run (at
    most MAX_GRID^2 complex values, 64 MiB), and freed when the thread ends.
    A later check of that size or smaller views a prefix of it, so it
    allocates only its grid's next-to-last step (1/N^2 of the array) and the
    pass's and the scan's blocks of about 2^15 values.  That saves time only
    where one process runs repeated checks; a one-shot check gains nothing.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"matrix sizes differ: {a.n} vs {b.n}")
    q = as_integer(q, "q")
    dtype = np.result_type(a.entries, b.entries)
    nbytes = _width(a.n, q, MAX_GRID) ** 2 * dtype.itemsize
    scratch = getattr(_scratch, "array", None)
    _scratch.array = None  # a nested check on this thread finds the slot empty: its own array
    if scratch is None or scratch.nbytes < nbytes:
        del scratch  # free the smaller array before the larger one is allocated
        scratch = np.empty(nbytes, dtype=np.uint8)
    try:
        # x[k, l] = <W_l of B, W_k of A>, C-contiguous; its defect is the residual
        x = _walsh_cross(a, b, q, out=scratch[:nbytes].view(dtype)).T
        worst, worst_indices = _hermitian_defect(x)
    finally:
        _scratch.array = scratch
    return PairingReport(holds=worst <= tol, worst_indices=worst_indices, worst_residual=worst)


def _real_rows(a: WalshMatrix):
    if not a.is_real:
        raise ValidationError("operation requires a real matrix")
    return a.entries


def solve_companion(a: WalshMatrix, r: float, branch: str = "plus") -> WalshMatrix:
    """Closed-form companion of a real 3x3 matrix with last entry r.

    The companions of a real 3x3 matrix form a one-parameter family,
    indexed by r, the last entry of the last row; this function is that
    family.  The two non-constant rows of any companion are an orthonormal
    pair inside the zero-sum plane, for which A's own non-constant rows
    (u, w) are an orthonormal basis.  Writing the companion rows as
    (c u + s w, s u - c w), the pairing condition holds identically and
    the remaining freedom is the point (s, c) on the unit circle with
    s u[2] - c w[2] = r.  That line meets the circle twice (``branch``
    picks the intersection) exactly when r^2 <= u[2]^2 + w[2]^2, which is
    2/3 for every valid A (A's last column is a unit vector starting with
    1/sqrt(3)).  Outside |r| <= sqrt(2/3) it raises
    :class:`NoRealSolutionError`, whose message states the bound; a NaN or
    infinite r raises :class:`ValidationError`.
    """
    if a.n != 3:
        raise ValidationError(f"closed-form companion solve requires n=3, got n={a.n}")
    if branch not in BRANCHES:
        raise ValidationError(f"branch must be one of {BRANCHES}, got {branch!r}")
    entries = _real_rows(a)
    r = float(r)
    if not math.isfinite(r):
        raise ValidationError(f"r must be finite, got r={r!r}")
    u, w = entries[1], entries[2]
    u2, w2 = float(u[2]), float(w[2])
    radius_sq = u2 * u2 + w2 * w2
    if radius_sq < 1e-12:
        raise DegenerateEliminationError(
            "last column carries no weight in the non-constant rows"
        )
    disc = radius_sq - r * r
    if disc < -1e-13:
        raise NoRealSolutionError(
            f"|r| <= {math.sqrt(radius_sq):.12g} required for a real companion, got r={r!r}"
        )
    if abs(disc) < 1e-14:
        disc = 0.0  # boundary |r|: the branches coincide
    radius = math.sqrt(radius_sq)
    t = math.sqrt(max(disc, 0.0)) / radius
    if branch == "minus":
        t = -t
    s = r * u2 / radius_sq + t * w2 / radius
    c = -r * w2 / radius_sq + t * u2 / radius
    row1 = c * u + s * w
    row2 = s * u - c * w
    row2[2] = r  # the family is indexed by r; pin the entry exactly
    return validate(
        np.vstack([constant_row(3), row1, row2]),
        tol=max(DEFAULT_EXTERNAL_TOL, a.tol),
    )


def mask_constraints(a: WalshMatrix, mask_seed: int) -> MaskedConstraintSystem:
    """Publishable companion constraints, each scaled by a seeded random factor.

    Emits one equation per pair 1 <= l < k <= N-1:

        sum_j A[k, j] b_l_j - sum_j A[l, j] b_k_j = 0

    multiplied by a scalar with magnitude in [0.5, 2.0] and random sign.
    """
    entries = _real_rows(a)
    rng = seeded_rng(mask_seed)
    equations = []
    for l in range(1, a.n):
        for k in range(l + 1, a.n):
            scale = float(rng.uniform(0.5, 2.0))
            if rng.random() < 0.5:
                scale = -scale
            coeffs = {}
            for j in range(a.n):
                coeffs[f"b_{l}_{j}"] = scale * float(entries[k, j])
                coeffs[f"b_{k}_{j}"] = -scale * float(entries[l, j])
            equations.append(MaskedEquation(coeffs=coeffs, rhs=0.0))
    return MaskedConstraintSystem(n=a.n, equations=tuple(equations))


def _unknown_index(name) -> tuple[int, int]:
    """Row and column of an unknown named exactly ``b_<i>_<j>``, with i >= 1 and j >= 0."""
    try:
        _, i, j = name.split("_")
        i, j = int(i), int(j)
        if name != f"b_{i}_{j}" or i < 1 or j < 0:  # int() also reads " 2", "01" and "١"
            raise ValueError
    except (AttributeError, ValueError):
        raise ValidationError(f"bad unknown name {name!r}") from None
    return i, j


def solve_companion_numeric(
    a: WalshMatrix,
    masked: MaskedConstraintSystem | None = None,
    seed: int = 0,
    tol: float = 1e-10,
) -> WalshMatrix:
    """Seeded companion of ``a`` of any size, built and then certified.

    Every companion has non-constant rows ``C A[1:]`` with C Hermitian
    and unitary.  This takes the reflection ``C = I - 2 v v^H`` for one
    unit vector v from ``default_rng(seed)`` (complex when ``a`` is), so
    B is at Frobenius distance 2 from ``a``.  B is certified against
    ``tol``: orthonormal zero-sum rows, ``B A^H`` Hermitian outside row
    and column 0, and the equations of ``masked`` when given.  A failed
    certification raises :class:`NoConvergenceError` with the worst
    residual.
    """
    n = a.n
    if masked is not None and masked.n != n:
        raise DimensionMismatchError(f"masked system has n={masked.n}, matrix has n={n}")
    if masked is not None and not a.is_real:
        raise ValidationError("masked systems carry real coefficients; "
                              "complex matrices derive pairing equations directly")
    rng = seeded_rng(seed)
    v = rng.standard_normal(n - 1)
    if not a.is_real:
        v = v + 1j * rng.standard_normal(n - 1)
    v /= np.linalg.norm(v)
    rows = a.entries[1:]
    b_rows = rows - 2 * np.outer(v, v.conj() @ rows)
    residuals = [
        np.abs(b_rows @ b_rows.conj().T - np.eye(n - 1)).max(),
        np.abs(b_rows.sum(axis=1)).max(),
        _hermitian_defect(b_rows @ rows.conj().T)[0],
    ]
    if masked is not None:
        for eq in masked.equations:
            total = 0.0  # the equation summed over the entries of B it names
            for name, value in eq.coeffs.items():
                i, j = _unknown_index(name)
                if not (i < n and j < n):
                    raise ValidationError(f"unknown {name!r} out of range for n={n}")
                total += value * b_rows[i - 1, j]
            residuals.append(abs(total - eq.rhs))
    residual = float(np.max(residuals))
    if not residual <= tol:
        raise NoConvergenceError(
            f"companion residual {residual:.3e} exceeds tol {tol:.3e}", best_residual=residual
        )
    full = np.vstack([constant_row(n).astype(b_rows.dtype), b_rows])
    return validate(full, tol=max(DEFAULT_EXTERNAL_TOL, 10 * n * tol))


# ---------------------------------------------------------------------------
# Exchange channels and the four-step run
# ---------------------------------------------------------------------------


class InMemoryChannel:
    """Message channel that keeps each message's kind, N, q, dtype and value bytes in memory.

    Every ``get`` rebuilds the message in a fresh read-only array and checks
    it as the CSV reader does: the message type checks N, q and the count,
    then a non-finite value is rejected.
    """

    def __init__(self):
        self._store: dict[str, tuple] = {}

    def put(self, name: str, message) -> None:
        kind, values = _message_kind(message)
        self._store[name] = (kind, message.base, message.q, values.dtype, values.tobytes())

    def get(self, name: str):
        kind, base, q, dtype, payload = self._store[name]
        return _message(kind, base, q, np.frombuffer(payload, dtype))


class DirectoryChannel:
    """Message channel backed by files in a directory (one file per message).

    Each file holds a message's CSV at ``repr`` precision, so it re-parses
    bit-exactly; ``get`` reads the kind its header names.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, message) -> None:
        text = message_to_text(message)
        # write a unique temp file, then rename: a reader sees the old or new message whole
        tmp = self.directory / f".{name}.{os.urandom(8).hex()}.tmp"
        try:
            tmp.write_text(text)
            tmp.replace(self.directory / name)
        finally:
            tmp.unlink(missing_ok=True)

    def get(self, name: str):
        return message_from_text(read_text(self.directory / name, "message"))


def run_exchange(
    a: WalshMatrix,
    b: WalshMatrix,
    s: Signal,
    channel=None,
) -> ExchangeTranscript:
    """Run the four-step exchange and record the transcript.

    A row pairing residual above ``PAIRING_TOL`` is flagged, not fatal:
    the exchange proceeds and the transcript carries the (then typically
    large) recovery error; matrices of different sizes raise the row check's
    :class:`DimensionMismatchError`.  Every message crosses ``channel``
    through its ``put`` and ``get``, and a caller's channel keeps all three.
    Without one, each message crosses a fresh :class:`InMemoryChannel`,
    dropped once the message is received, so the exchange holds its four
    returned arrays and one message in flight (sent, stored and received),
    not the three stored messages too.
    """
    pairing = pairing_check_rows(a, b, tol=PAIRING_TOL)

    def relay(name: str, message):
        route = channel if channel is not None else InMemoryChannel()
        route.put(name, message)
        received = route.get(name)
        if type(received) is not type(message):
            raise ValidationError(f"message {name} arrived as a {type(received).__name__}")
        return received

    w1 = relay("w1.csv", dwt_fast(a, s))
    w2 = relay("w2.csv", idwt(b, w1))
    w3 = relay("w3.csv", dwt_fast(a, w2))
    recovered = idwt(b, w3)

    diff = np.subtract(recovered.values, s.values)
    max_error = float(np.abs(diff, out=diff if diff.dtype.kind == "f" else None).max())
    return ExchangeTranscript(
        w1=w1,
        w2=w2,
        w3=w3,
        recovered=recovered,
        max_error=max_error,
        pairing_violated=not pairing.holds,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def transcript_to_dict(t: ExchangeTranscript) -> dict:
    return {
        "n": t.w1.base,
        "q": t.w1.q,
        "w1": json_values(t.w1.coeffs),
        "w2": json_values(t.w2.values),
        "w3": json_values(t.w3.coeffs),
        "recovered": json_values(t.recovered.values),
        "max_error": t.max_error,
        "pairing_violated": t.pairing_violated,
    }


def transcript_from_dict(d: dict) -> ExchangeTranscript:
    fields = ("n", "q", "w1", "w2", "w3", "recovered", "max_error", "pairing_violated")
    if not isinstance(d, dict) or not d.keys() >= set(fields):
        raise ValidationError(f"transcript JSON must be an object with the fields {fields}")
    n, q = json_int(d["n"], "transcript n"), json_int(d["q"], "transcript q")
    w1, w2, w3, recovered = (json_numbers(d[key], f"transcript {key}", 1) for key in fields[2:6])
    max_error = json_numbers(d["max_error"], "transcript max_error", 0).item()
    violated = d["pairing_violated"]
    if type(violated) is not bool:  # bool("false") is True
        raise ValidationError("transcript pairing_violated must be a JSON boolean")
    return ExchangeTranscript(  # the message constructors check n >= 2, q >= 0 and N^q values
        w1=CoefficientVector(base=n, q=q, coeffs=w1),
        w2=Signal(base=n, q=q, values=w2),
        w3=CoefficientVector(base=n, q=q, coeffs=w3),
        recovered=Signal(base=n, q=q, values=recovered),
        max_error=max_error,
        pairing_violated=violated,
    )


def save_transcript(t: ExchangeTranscript, path) -> None:
    """Write ``t`` as transcript JSON, which :func:`load_transcript` reads back bit-exactly."""
    write_json(transcript_to_dict(t), path)


def load_transcript(path) -> ExchangeTranscript:
    """The transcript of a transcript JSON file; any other content raises ValidationError."""
    return transcript_from_dict(read_json(path, "transcript"))


def masked_system_to_list(m: MaskedConstraintSystem) -> list:
    return [{"coeffs": dict(eq.coeffs), "rhs": eq.rhs} for eq in m.equations]


def masked_system_from_list(raw) -> MaskedConstraintSystem:
    if not isinstance(raw, list):
        raise ValidationError("masked system JSON must be a list of equations")
    equations = []
    n = 0
    for item in raw:
        coeffs = item.get("coeffs") if isinstance(item, dict) else None
        if not isinstance(coeffs, dict):
            raise ValidationError(f"masked equation needs a 'coeffs' object, got {item!r}")
        for i, j in map(_unknown_index, coeffs):
            n = max(n, i + 1, j + 1)
        coeffs = {name: json_numbers(v, f"masked coefficient {name}", 0).item()
                  for name, v in coeffs.items()}
        rhs = json_numbers(item.get("rhs", 0.0), "masked rhs", 0).item()
        equations.append(MaskedEquation(coeffs=coeffs, rhs=rhs))
    if n < 2:
        raise ValidationError("masked system names no unknowns")
    return MaskedConstraintSystem(n=n, equations=tuple(equations))


def save_masked_system(m: MaskedConstraintSystem, path) -> None:
    """Write ``m`` as masked-system JSON: a list of ``{"coeffs": {...}, "rhs": ...}``."""
    write_json(masked_system_to_list(m), path)


def load_masked_system(path) -> MaskedConstraintSystem:
    """The masked system of a JSON file; its n is 1 + the largest index its unknowns name."""
    return masked_system_from_list(read_json(path, "masked-system"))
