"""Partial-sum reconstruction, conditional-expectation identities, norm bounds.

The truncated Walsh expansion S_k(f) = sum_{n<k} <f, W_n> W_n is computed
cellwise on a resolution-q_eval grid.  When k = N^q the partial sum is
the conditional expectation of f onto the level-q cell algebra: constant
on each cell, equal to the average of f there.  That identity, its tower
property under coarsening, and the L1/Linf contraction bounds are exact
finite statements checked by :func:`martingale_check` and
:func:`norm_bound_check`.

Signals living on a grid in a different base (for example a dyadic step
function analyzed in a triadic system) are handled by exact refinement to
the common grid of lcm-many cells; breakpoints are never sampled in
floating point.  All norms are exact piecewise-constant norms (sums of
cell values times cell lengths), not quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import _resolution, cell_count
from .errors import (
    IncompatibleGridsError,
    ResolutionTooCoarseError,
    ValidationError,
    ZeroSignalError,
)
from .matrix import WalshMatrix, as_integer
from .transform import CSV_DIGITS, CoefficientVector, Signal, _float_format, dwt_fast, idwt

#: refuse common-refinement grids larger than this many cells
MAX_COMMON_CELLS = 5_000_000


@dataclass(frozen=True, eq=False)
class PartialSumReport:
    """S_k(f) on the resolution-q_eval grid, with exact errors vs the input."""

    k: int
    base: int
    q_eval: int
    values: np.ndarray
    sup_error: float
    l1_error: float
    l2_error: float


@dataclass(frozen=True)
class MartingaleReport:
    """Residuals of E[f | F_q] = S_{N^q}(f) and of the tower identity (:func:`martingale_check`)."""

    exp_residual: float
    tower_residual: float


@dataclass(frozen=True)
class NormBoundReport:
    """Norms of S_{N^q}(f) over those of f, in L1 and Linf, both at most 1 (norm_bound_check)."""

    l1_ratio: float
    linf_ratio: float


def _common_cells(len_a: int, len_b: int) -> int:
    cells = math.lcm(len_a, len_b)
    if cells > MAX_COMMON_CELLS:
        raise IncompatibleGridsError(
            f"common refinement of grids with {len_a} and {len_b} cells "
            f"needs {cells} cells (limit {MAX_COMMON_CELLS})"
        )
    return cells


def _refine(u: np.ndarray, cells: int) -> np.ndarray:
    """u's values on a grid of ``cells`` cells, a multiple of len(u): u itself when it has as many."""
    return u if len(u) == cells else np.repeat(u, cells // len(u))


def _difference_norms(u: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """(sup, L1, L2) norms of u - v after refining both to the common grid."""
    cells = _common_cells(len(u), len(v))
    diff = np.abs(_refine(u, cells) - _refine(v, cells))
    return (
        float(diff.max()),
        float(diff.mean()),
        float(np.sqrt((diff**2).mean())),
    )


def cell_average(s: Signal, q_target: int, base: int | None = None) -> Signal:
    """Exact cell averages of s on the grid with base**q_target cells.

    This is the conditional expectation of the signal onto the target
    cell algebra.  The target base defaults to the signal's own; a
    different base triggers exact refinement to the common grid.
    """
    return _average_and_refine(s, q_target, s.base if base is None else base)[0]


def _average_and_refine(s: Signal, q_target: int, base: int) -> tuple[Signal, np.ndarray]:
    """:func:`cell_average`, and s's values on the common grid it averaged over."""
    target_len = cell_count(base, q_target, MAX_COMMON_CELLS)
    cells = _common_cells(len(s), target_len)
    refined = _refine(s.values, cells)
    averaged = refined.reshape(target_len, cells // target_len).mean(axis=1)
    return Signal(base=base, q=q_target, values=averaged), refined


def partial_sum(a: WalshMatrix, s: Signal, k: int, q_eval: int) -> PartialSumReport:
    """Truncated expansion S_k(f) evaluated cellwise at resolution q_eval.

    Requires every W_n with n < k to be constant on q_eval-cells, and
    (for a signal in the matrix base) q_eval at least the signal
    resolution.  When k = N^q_eval the result is the exact cell average
    of the signal, bypassing the transform.  It is :func:`convergence_sweep`
    at the one truncation k.
    """
    return convergence_sweep(a, s, [k], q_eval)[0]


def _eval_resolution(a: WalshMatrix, s: Signal, q: int) -> int:
    # same base: evaluate at the signal's own resolution (exact at q = s.q);
    # cross base: one level finer than the truncation so the transform runs.
    if s.base == a.n:
        return max(q, s.q)
    return q + 1


def martingale_check(a: WalshMatrix, s: Signal, q: int) -> MartingaleReport:
    """Residuals of the conditional-expectation and tower identities.

    ``exp_residual``: max cell deviation between S_{N^q}(f) and the
    direct cell average of f at level q.  ``tower_residual``: max
    deviation between S_{N^{q+1}}(f) averaged down to level q and
    S_{N^q}(f).
    """
    cells = cell_count(a.n, q)
    s_q = partial_sum(a, s, cells, _eval_resolution(a, s, q))
    averaged = cell_average(s, q, base=a.n)
    exp_residual = _difference_norms(s_q.values, averaged.values)[0]

    s_q1 = partial_sum(a, s, a.n * cells, _eval_resolution(a, s, q + 1))
    down = cell_average(
        Signal(base=a.n, q=s_q1.q_eval, values=s_q1.values), q
    )
    tower_residual = _difference_norms(down.values, s_q.values)[0]
    return MartingaleReport(exp_residual=exp_residual, tower_residual=tower_residual)


def norm_bound_check(a: WalshMatrix, s: Signal, q: int) -> NormBoundReport:
    """L1 and Linf norm ratios of S_{N^q}(f) against f (both at most 1)."""
    f_l1 = float(np.abs(s.values).mean())
    f_linf = float(np.abs(s.values).max())
    if f_linf == 0.0:
        raise ZeroSignalError("norm ratios are undefined for the zero signal")
    s_q = partial_sum(a, s, cell_count(a.n, q), _eval_resolution(a, s, q))
    return NormBoundReport(
        l1_ratio=float(np.abs(s_q.values).mean()) / f_l1,
        linf_ratio=float(np.abs(s_q.values).max()) / f_linf,
    )


def convergence_sweep(
    a: WalshMatrix, s: Signal, k_list, q_eval: int | None = None
) -> list[PartialSumReport]:
    """One :class:`PartialSumReport` per truncation, ordered by k ascending.

    Purely observational for truncations that are not powers of N.  The
    signal is averaged and refined to the common grid once, at the first k,
    and analysed once, at the first k below N^q_eval; each such k is
    synthesized from a copy of the coefficients with the tail zeroed.  The
    checks run per k in ascending order, so a bad k raises as a call of
    :func:`partial_sum` per k would.  ``q_eval=None`` is the least
    resolution they pass: that of W_n for n below the largest k, and at
    least the signal's own q when the signal is in the matrix base.
    """
    ks = sorted({as_integer(k, "truncation k") for k in k_list})
    if q_eval is None:
        q_eval = max(_resolution(max(ks, default=1) - 1, a.n), s.q if s.base == a.n else 0)
    q_eval = as_integer(q_eval, "q_eval")
    reports, averaged, refined, coeffs = [], None, None, None
    for k in ks:
        if k < 1:
            raise ValidationError(f"truncation k must be at least 1, got {k}")
        needed = _resolution(k - 1, a.n)
        if q_eval < needed:
            raise ResolutionTooCoarseError(
                f"q_eval={q_eval} too coarse: W_n with n < {k} need resolution {needed}"
            )
        if s.base == a.n and q_eval < s.q:
            raise ResolutionTooCoarseError(
                f"q_eval={q_eval} below the signal resolution {s.q}"
            )
        if averaged is None:
            averaged, refined = _average_and_refine(s, q_eval, a.n)
        if k == len(averaged):
            values = averaged.values
        else:
            if coeffs is None:
                coeffs = dwt_fast(a, averaged).coeffs
            truncated = coeffs.copy()
            truncated[k:] = 0
            values = idwt(a, CoefficientVector(base=a.n, q=q_eval, coeffs=truncated)).values
        sup, l1, l2 = _difference_norms(values, refined)
        reports.append(PartialSumReport(
            k=k, base=a.n, q_eval=q_eval, values=values,
            sup_error=sup, l1_error=l1, l2_error=l2,
        ))
    return reports


def sweep_to_csv(reports: list[PartialSumReport]) -> str:
    """Header ``k,sup_error,l1_error,l2_error``, then one row per report, CSV_DIGITS digits."""
    lines = ["k,sup_error,l1_error,l2_error"]
    field = _float_format(CSV_DIGITS)
    for r in reports:
        errors = (r.sup_error, r.l1_error, r.l2_error)
        lines.append(",".join([str(r.k), *map(field.format, errors)]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(reports: list[PartialSumReport], path) -> None:
    """Write the sweep CSV of ``reports`` (:func:`sweep_to_csv`) to ``path``."""
    Path(path).write_text(sweep_to_csv(reports))
