"""Two-party encoding exchange and companion-matrix solving.

Two Walsh-generating matrices A and B are *companions* when every pair
of non-constant rows satisfies

    <row_l of B, row_k of A> = <row_l of A, row_k of B>,

that is, when the cross-Gram ``B[1:] A[1:]^H`` is Hermitian; the row
check includes l = k, which binds only complex matrices.  This is
equivalent to the same identity between their Walsh functions in L2[0,1]
(checked brute force by :func:`pairing_check_basis`).  For a
companion pair, analysis by A and synthesis by B compose to the identity
after two rounds, which carries a four-message exchange:

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

Exchange messages pass through a channel, which serializes each
message on ``put`` and decodes and checks it on ``get``, so each step
crosses a real serialization boundary.  Each channel owns its encoding:
:class:`InMemoryChannel` keeps a small binary header and the raw values,
:class:`DirectoryChannel` writes the CSV wire formats of
:mod:`gwalsh.transform`.  Both round-trip every message bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BaseMismatchError,
    DegenerateEliminationError,
    DimensionMismatchError,
    NoConvergenceError,
    NoRealSolutionError,
    ValidationError,
)
from .matrix import (
    BRANCHES,
    DEFAULT_EXTERNAL_TOL,
    RowPair,
    WalshMatrix,
    constant_row,
    json_int,
    json_values,
    read_json,
    read_text,
    validate,
)
from .transform import (
    CoefficientVector,
    Signal,
    coefficients_from_text,
    coefficients_to_text,
    dwt_fast,
    idwt,
    signal_from_text,
    signal_to_text,
)
from .basis import grid_matrix


@dataclass(frozen=True)
class PairingReport:
    """Result of the row-level companion check."""

    holds: bool
    worst_pair: RowPair | None
    worst_residual: float


@dataclass(frozen=True)
class BasisPairingReport:
    """Result of the brute-force L2 companion check."""

    holds: bool
    worst_indices: tuple[int, int]
    worst_residual: float


@dataclass(frozen=True, eq=False)
class CompanionFamily:
    """One-parameter family of companions of a fixed real 3x3 matrix.

    Members are indexed by the free parameter r, the last entry of the
    last row; real members exist for |r| <= admissible_bound (which is
    sqrt(2/3) for any valid base matrix).
    """

    base_matrix: WalshMatrix
    admissible_bound: float
    branch: str
    free_param_name: str = "r"

    @property
    def admissible_range(self) -> tuple[float, float]:
        return (-self.admissible_bound, self.admissible_bound)

    def member(self, r: float) -> WalshMatrix:
        return solve_companion(self.base_matrix, r, branch=self.branch)


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
    mask_seed: int | None = None


@dataclass(frozen=True, eq=False)
class ExchangeTranscript:
    """The three exchanged messages plus the recovered signal."""

    w1: CoefficientVector
    w2: Signal
    w3: CoefficientVector
    recovered: Signal
    max_error: float
    pairing_violated: bool


def _pairing_residual(b_rows: np.ndarray, a_rows: np.ndarray) -> np.ndarray:
    """``|X - X^H|`` for ``X = b_rows a_rows^H``: [l, k] is ``|<b_l, a_k> - <a_l, b_k>|``."""
    cross = b_rows @ a_rows.conj().T
    return np.abs(cross - cross.conj().T)


def pairing_check_rows(a: WalshMatrix, b: WalshMatrix, tol: float = 1e-8) -> PairingReport:
    """Check the row-level companion condition over all pairs 1 <= l <= k.

    ``worst_pair`` is the last maximal pair l < k in row-major order, or
    (l, l) when its residual is strictly the largest.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"matrix sizes differ: {a.n} vs {b.n}")
    residual = _pairing_residual(b.entries[1:], a.entries[1:])
    diagonal = residual.diagonal()
    rows, cols = np.triu_indices(a.n - 1, 1)
    off = residual[rows, cols]
    if off.size and off.max() >= diagonal.max():
        last = off.size - 1 - int(off[::-1].argmax())
        worst_pair = RowPair(l=int(rows[last]) + 1, k=int(cols[last]) + 1)
    elif diagonal.max() > 0:
        l = int(diagonal.argmax()) + 1
        worst_pair = RowPair(l=l, k=l)
    else:
        worst_pair = None
    worst = float(residual.max())
    return PairingReport(holds=worst <= tol, worst_pair=worst_pair, worst_residual=worst)


def pairing_check_basis(
    a: WalshMatrix, b: WalshMatrix, q: int, tol: float = 1e-8
) -> BasisPairingReport:
    """Brute-force L2 check of the companion condition on all Walsh pairs < N^q."""
    if a.n != b.n:
        raise DimensionMismatchError(f"matrix sizes differ: {a.n} vs {b.n}")
    width = a.n**q
    ga = grid_matrix(a, q)
    gb = grid_matrix(b, q)
    lhs = (gb @ ga.conj().T) / width  # [l, k] = <W_l of B, W_k of A>
    # <W_l of A, W_k of B> = conj(<W_k of B, W_l of A>) = conj(lhs[k, l])
    residuals = np.abs(lhs - lhs.conj().T)
    flat = int(residuals.argmax())
    worst_indices = (flat // width, flat % width)
    worst = float(residuals.max())
    return BasisPairingReport(holds=worst <= tol, worst_indices=worst_indices, worst_residual=worst)


def _real_rows(a: WalshMatrix):
    if not a.is_real:
        raise ValidationError("operation requires a real matrix")
    return a.entries


def solve_companion(a: WalshMatrix, r: float, branch: str = "plus") -> WalshMatrix:
    """Closed-form companion of a real 3x3 matrix with last entry r.

    The two non-constant rows of any companion are an orthonormal pair
    inside the zero-sum plane, for which A's own non-constant rows (u, w)
    are an orthonormal basis.  Writing the companion rows as
    (c u + s w, s u - c w), the pairing condition holds identically and
    the remaining freedom is the point (s, c) on the unit circle with
    s u[2] - c w[2] = r.  That line meets the circle twice (``branch``
    picks the intersection) exactly when r^2 <= u[2]^2 + w[2]^2 = 2/3.
    """
    if a.n != 3:
        raise ValidationError(f"closed-form companion solve requires n=3, got n={a.n}")
    if branch not in BRANCHES:
        raise ValidationError(f"branch must be one of {BRANCHES}, got {branch!r}")
    entries = _real_rows(a)
    r = float(r)
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
    row2 = row2.copy()
    row2[2] = r  # the family is indexed by r; pin the entry exactly
    return validate(
        np.vstack([constant_row(3), row1, row2]),
        tol=max(DEFAULT_EXTERNAL_TOL, a.tol),
    )


def companion_family(a: WalshMatrix, branch: str = "plus") -> CompanionFamily:
    """The one-parameter companion family of a real 3x3 matrix."""
    if a.n != 3:
        raise ValidationError(f"companion families are closed-form only for n=3, got {a.n}")
    entries = _real_rows(a)
    bound = math.sqrt(float(entries[1, 2] ** 2 + entries[2, 2] ** 2))
    return CompanionFamily(base_matrix=a, admissible_bound=bound, branch=branch)


def mask_constraints(a: WalshMatrix, mask_seed: int) -> MaskedConstraintSystem:
    """Publishable companion constraints, each scaled by a seeded random factor.

    Emits one equation per pair 1 <= l < k <= N-1:

        sum_j A[k, j] b_l_j - sum_j A[l, j] b_k_j = 0

    multiplied by a scalar with magnitude in [0.5, 2.0] and random sign.
    """
    entries = _real_rows(a)
    rng = np.random.default_rng(mask_seed)
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
    return MaskedConstraintSystem(n=a.n, equations=tuple(equations), mask_seed=mask_seed)


def _masked_rows(masked: MaskedConstraintSystem, n: int) -> list[tuple[np.ndarray, float]]:
    """Masked equations as ((n-1) x n) coefficient arrays over rows 1..n-1."""
    rows = []
    for eq in masked.equations:
        coeff = np.zeros((n - 1, n))
        for name, value in eq.coeffs.items():
            try:
                _, i, j = name.split("_")
                i, j = int(i), int(j)
            except ValueError:
                raise ValidationError(f"bad unknown name {name!r}") from None
            if not (1 <= i < n and 0 <= j < n):
                raise ValidationError(f"unknown {name!r} out of range for n={n}")
            coeff[i - 1, j] = float(value)
        rows.append((coeff, float(eq.rhs)))
    return rows


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
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n - 1)
    if not a.is_real:
        v = v + 1j * rng.standard_normal(n - 1)
    v /= np.linalg.norm(v)
    rows = a.entries[1:]
    b_rows = rows - 2 * np.outer(v, v.conj() @ rows)
    residuals = [
        np.abs(b_rows @ b_rows.conj().T - np.eye(n - 1)).max(),
        np.abs(b_rows.sum(axis=1)).max(),
        _pairing_residual(b_rows, rows).max(),
    ]
    if masked is not None:
        residuals += [abs((coeff * b_rows).sum() - rhs) for coeff, rhs in _masked_rows(masked, n)]
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


def _message_kind(message) -> str:
    if isinstance(message, Signal):
        return "signal"
    if isinstance(message, CoefficientVector):
        return "coeffs"
    raise TypeError(f"a channel carries Signal and CoefficientVector messages, "
                    f"not {type(message).__name__}")


# binary wire: kind code, dtype code, N and q as little-endian int64, then the values
_WIRE_HEADER = struct.Struct("<ccqq")
_WIRE_KINDS = {b"s": Signal, b"c": CoefficientVector}
_WIRE_DTYPES = {b"f": np.dtype("<f8"), b"c": np.dtype("<c16")}


def _message_to_bytes(message) -> bytes:
    is_signal = _message_kind(message) == "signal"
    values = message.values if is_signal else message.coeffs
    code = b"c" if np.iscomplexobj(values) else b"f"
    header = _WIRE_HEADER.pack(b"s" if is_signal else b"c", code, message.base, message.q)
    return header + values.astype(_WIRE_DTYPES[code], copy=False).tobytes()


def _message_from_bytes(payload: bytes):
    if len(payload) < _WIRE_HEADER.size:
        raise ValidationError(f"message of {len(payload)} bytes is shorter than its header")
    kind_code, code, base, q = _WIRE_HEADER.unpack_from(payload)
    if kind_code not in _WIRE_KINDS or code not in _WIRE_DTYPES:
        raise ValidationError(f"unknown message kind {kind_code!r} or dtype code {code!r}")
    if base < 2 or q < 0:
        raise ValidationError(f"message header needs N >= 2 and q >= 0, got N={base}, q={q}")
    dtype = _WIRE_DTYPES[code]
    if (len(payload) - _WIRE_HEADER.size) % dtype.itemsize:
        raise ValidationError(f"message body is not a whole number of {dtype} values")
    values = np.frombuffer(payload, dtype=dtype, offset=_WIRE_HEADER.size)
    if not np.isfinite(values).all():
        raise ValidationError("non-finite value in a message")
    return _WIRE_KINDS[kind_code](base, q, values)  # checks that there are N^q values


class InMemoryChannel:
    """Message channel that keeps each message as bytes in process memory.

    A message is stored as an 18-byte header (kind, dtype code, N, q)
    followed by its values as little-endian float64 or complex128, and is
    decoded and checked again on every ``get``: a malformed payload (a
    bad header, a value count other than N^q, a non-finite value) raises
    :class:`ValidationError`.  The bytes never reach the disk.
    """

    def __init__(self):
        self._store: dict[str, bytes] = {}

    def put(self, name: str, message) -> None:
        self._store[name] = _message_to_bytes(message)

    def get(self, name: str):
        return _message_from_bytes(self._store[name])


class DirectoryChannel:
    """Message channel backed by files in a directory (one file per message).

    Each file holds the library CSV of :mod:`gwalsh.transform` at ``repr``
    precision, so it re-parses bit-exactly; ``get`` decodes by the kind
    named in its header.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, message) -> None:
        text = (signal_to_text(message) if _message_kind(message) == "signal"
                else coefficients_to_text(message))
        # write a unique temp file, then rename: a reader sees the old or new message whole
        tmp = self.directory / f".{name}.{os.urandom(8).hex()}.tmp"
        try:
            tmp.write_text(text)
            tmp.replace(self.directory / name)
        finally:
            tmp.unlink(missing_ok=True)

    def get(self, name: str):
        text = read_text(self.directory / name, "message")
        head = text.split(maxsplit=3)
        if head[2:3] == ["signal"]:
            return signal_from_text(text)
        return coefficients_from_text(text)  # raises on any other header


def run_exchange(
    a: WalshMatrix,
    b: WalshMatrix,
    s: Signal,
    channel=None,
    pairing_tol: float = 1e-7,
) -> ExchangeTranscript:
    """Run the four-step exchange and record the transcript.

    A violated pairing condition is flagged, not fatal: the exchange
    proceeds and the transcript carries the (then typically large)
    recovery error.  Every message crosses ``channel`` (by default an
    :class:`InMemoryChannel`) through its ``put`` and ``get``.
    """
    if a.n != b.n:
        raise BaseMismatchError(f"matrix sizes differ: {a.n} vs {b.n}")
    if s.base != a.n:
        raise BaseMismatchError(f"signal base {s.base} does not match matrix base {a.n}")
    channel = channel if channel is not None else InMemoryChannel()
    pairing = pairing_check_rows(a, b, tol=pairing_tol)

    def relay(name: str, message):
        channel.put(name, message)
        received = channel.get(name)
        if type(received) is not type(message):
            raise ValidationError(f"message {name} arrived as a {_message_kind(received)} message")
        return received

    w1 = relay("w1.csv", dwt_fast(a, s))
    w2 = relay("w2.csv", idwt(b, w1))
    w3 = relay("w3.csv", dwt_fast(a, w2))
    recovered = idwt(b, w3)

    max_error = float(np.abs(recovered.values - s.values).max())
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


def _seq_from_json(raw, name: str) -> np.ndarray:
    try:
        values = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"transcript {name} must be a list of numbers") from None
    if values.shape[1:] not in ((), (2,)) or not np.isfinite(values).all():  # null reads as NaN
        raise ValidationError(f"transcript {name} needs finite numbers or [re, im] pairs")
    # [re, im] pairs are viewed as complex, not summed, so -0.0 parts keep their sign
    return values.view(complex)[:, 0] if values.ndim == 2 else values


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
    if n < 2 or q < 0:
        raise ValidationError(f"transcript needs n >= 2 and q >= 0, got n={n}, q={q}")
    w1, w2, w3, recovered = (_seq_from_json(d[key], key) for key in fields[2:6])
    max_error, violated = d["max_error"], d["pairing_violated"]
    if type(max_error) not in (int, float) or type(violated) is not bool:  # bool("false") is True
        raise ValidationError("transcript needs a number max_error and a boolean pairing_violated")
    try:
        max_error = float(max_error)
    except OverflowError:  # an int past 1e308
        raise ValidationError("transcript max_error does not fit a float") from None
    return ExchangeTranscript(
        w1=CoefficientVector(base=n, q=q, coeffs=w1),
        w2=Signal(base=n, q=q, values=w2),
        w3=CoefficientVector(base=n, q=q, coeffs=w3),
        recovered=Signal(base=n, q=q, values=recovered),
        max_error=max_error,
        pairing_violated=violated,
    )


def save_transcript(t: ExchangeTranscript, path) -> None:
    Path(path).write_text(json.dumps(transcript_to_dict(t), indent=2) + "\n")


def load_transcript(path) -> ExchangeTranscript:
    return transcript_from_dict(read_json(path, "transcript"))


def masked_system_to_list(m: MaskedConstraintSystem) -> list:
    return [{"coeffs": dict(eq.coeffs), "rhs": eq.rhs} for eq in m.equations]


def masked_system_from_list(raw, mask_seed: int | None = None) -> MaskedConstraintSystem:
    if not isinstance(raw, list):
        raise ValidationError("masked system JSON must be a list of equations")
    equations = []
    n = 0
    for item in raw:
        try:
            coeffs = {str(k): float(v) for k, v in item["coeffs"].items()}
            rhs = float(item.get("rhs", 0.0))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
            raise ValidationError(f"bad masked equation {item!r}") from None
        if not np.isfinite([*coeffs.values(), rhs]).all():
            raise ValidationError(f"non-finite value in masked equation {item!r}")
        for name in coeffs:
            try:
                _, i, j = name.split("_")
                n = max(n, int(i) + 1, int(j) + 1)
            except ValueError:
                raise ValidationError(f"bad unknown name {name!r}") from None
        equations.append(MaskedEquation(coeffs=coeffs, rhs=rhs))
    if n < 2:
        raise ValidationError("masked system names no unknowns")
    return MaskedConstraintSystem(n=n, equations=tuple(equations), mask_seed=mask_seed)


def save_masked_system(m: MaskedConstraintSystem, path) -> None:
    Path(path).write_text(json.dumps(masked_system_to_list(m), indent=2) + "\n")


def load_masked_system(path) -> MaskedConstraintSystem:
    return masked_system_from_list(read_json(path, "masked-system"))
