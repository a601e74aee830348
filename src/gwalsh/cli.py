"""Command-line front end.

Every subcommand is a thin shell over one library operation; all I/O
goes through the declared file formats (matrix JSON, signal/coefficient
CSV, transcript and masked-system JSON, sweep CSV).  Exit codes: 0 on
success, 1 on numeric failures (no solution, no convergence, not
unitary), 2 on validation errors, with a single-line diagnostic on
stderr.  Runs are deterministic given their flags; all randomness is
seeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import basis, protocol
from .errors import NumericError, ValidationError
from .matrix import generate_n3, generate_random, load_matrix, save_matrix
from .protocol import (
    mask_constraints,
    pairing_check_basis,
    pairing_check_rows,
    run_exchange,
    save_transcript,
    solve_companion,
    solve_companion_numeric,
)
from .series import convergence_sweep, martingale_check, write_sweep_csv
from .transform import (
    dwt_fast,
    idwt,
    random_signal,
    read_coefficients,
    read_signal,
    signal_from_digits,
    write_coefficients,
    write_signal,
)

#: significant digits for floats in CLI-written CSV files
CSV_DIGITS = 12


def _add_matrix_arg(p, required=True):
    p.add_argument("--matrix", required=required, help="matrix JSON file")
    # also accepted after the subcommand; SUPPRESS keeps the top-level default
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help="validation/check tolerance (default 1e-8)")


def _add_signal_args(p):
    p.add_argument("--signal", help="signal CSV file")
    p.add_argument("--signal-inline", dest="signal_inline",
                   help="signal as a digit string, one character per cell")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gwalsh", description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="validation/check tolerance (default 1e-8)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-matrix", help="generate a Walsh-generating matrix")
    p.add_argument("--n", type=int, help="base N (random generation)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--complex", action="store_true", help="complex entries (random generation)")
    p.add_argument("--entry", type=float, help="prescribed leading entry (3x3 closed form)")
    p.add_argument("--row", type=int, choices=(2, 3), default=2,
                   help="1-based row receiving --entry")
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_matrix)

    p = sub.add_parser("solve-b", help="solve for a companion matrix")
    _add_matrix_arg(p)
    p.add_argument("--r", type=float, help="free parameter (closed form, N=3)")
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")
    p.add_argument("--numeric", action="store_true",
                   help="build a seeded reflection companion (any N)")
    p.add_argument("--mask-seed", dest="mask_seed", type=int,
                   help="certify against the masked system with this seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--masked-out", dest="masked_out",
                   help="also write the masked system JSON here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve_b)

    p = sub.add_parser("encode", help="forward Walsh transform of a signal")
    _add_matrix_arg(p)
    _add_signal_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="inverse Walsh transform of coefficients")
    _add_matrix_arg(p)
    p.add_argument("--in", dest="in_path", required=True, help="coefficient CSV file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("series", help="partial-sum convergence sweep")
    _add_matrix_arg(p)
    _add_signal_args(p)
    p.add_argument("--k-list", dest="k_list", required=True,
                   help="comma-separated truncation indices")
    p.add_argument("--q", type=int, help="evaluation resolution (default: minimal)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("kernel-check", help="max |D(x,t)/N^q - [same cell]| over samples")
    _add_matrix_arg(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000, help="(x, t) pairs, plus each (x, x)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_kernel_check)

    p = sub.add_parser("verify", help="aggregate consistency report for a matrix (pair)")
    _add_matrix_arg(p)
    p.add_argument("--matrix-b", dest="matrix_b", help="companion matrix JSON file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exchange", help="run the four-step exchange")
    _add_matrix_arg(p)
    p.add_argument("--matrix-b", dest="matrix_b", help="companion matrix JSON file")
    p.add_argument("--r", type=float, help="derive the companion in closed form")
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")
    p.add_argument("--mask-seed", dest="mask_seed", type=int,
                   help="derive the companion numerically, certified against the "
                        "masked system with this seed")
    p.add_argument("--seed", type=int, default=0)
    _add_signal_args(p)
    p.add_argument("--msg-dir", dest="msg_dir", help="stage messages as files here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_exchange)

    return parser


def _load_signal(args, base: int):
    if args.signal_inline is not None:
        return signal_from_digits(args.signal_inline, base=base)
    if args.signal is not None:
        return read_signal(args.signal)
    raise ValidationError("provide --signal or --signal-inline")


def _write_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def cmd_gen_matrix(args) -> int:
    if args.entry is not None:
        row_choice = "second" if args.row == 2 else "third"
        m = generate_n3(args.entry, row_choice=row_choice, branch=args.branch)
    elif args.n is not None:
        m = generate_random(args.n, seed=args.seed, complex_entries=args.complex)
    else:
        raise ValidationError("provide --entry (closed form) or --n (random)")
    save_matrix(m, args.out)
    return 0


def cmd_solve_b(args) -> int:
    a = load_matrix(args.matrix, tol=args.tol)
    if args.numeric or args.r is None:
        masked = None
        if args.mask_seed is not None:
            masked = mask_constraints(a, args.mask_seed)
            if args.masked_out:
                protocol.save_masked_system(masked, args.masked_out)
        b = solve_companion_numeric(a, masked, seed=args.seed, tol=min(args.tol, 1e-10))
    else:
        b = solve_companion(a, args.r, branch=args.branch)
    save_matrix(b, args.out)
    return 0


def cmd_encode(args) -> int:
    a = load_matrix(args.matrix, tol=args.tol)
    s = _load_signal(args, a.n)
    write_coefficients(dwt_fast(a, s), args.out, digits=CSV_DIGITS)
    return 0


def cmd_decode(args) -> int:
    a = load_matrix(args.matrix, tol=args.tol)
    c = read_coefficients(args.in_path)
    write_signal(idwt(a, c), args.out, digits=CSV_DIGITS)
    return 0


def cmd_series(args) -> int:
    a = load_matrix(args.matrix, tol=args.tol)
    s = _load_signal(args, a.n)
    try:
        k_list = [int(k) for k in args.k_list.split(",") if k.strip()]
    except ValueError:
        raise ValidationError(f"bad --k-list {args.k_list!r}") from None
    if not k_list:
        raise ValidationError("--k-list names no truncations")
    q_eval = args.q
    if q_eval is None:
        q_eval = max(1, basis.digit_length(max(k_list) - 1, a.n))
        if s.base == a.n:
            q_eval = max(q_eval, s.q)
    write_sweep_csv(convergence_sweep(a, s, k_list, q_eval), args.out)
    return 0


def cmd_kernel_check(args) -> int:
    a = load_matrix(args.matrix, tol=args.tol)
    deviation = basis.kernel_deviation(a, args.q, samples=args.samples, seed=args.seed)
    passed = deviation <= args.tol
    _write_json(
        {
            "n": a.n,
            "q": args.q,
            "samples": args.samples,
            "seed": args.seed,
            "max_deviation": deviation,
            "tol": args.tol,
            "pass": passed,
        },
        args.out,
    )
    if not passed:
        print(f"kernel-check failed: max_deviation={deviation:.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    a = load_matrix(args.matrix, tol=args.tol)
    # the dense checks and the N^q-cell martingale signal below share one limit
    basis._width(a.n, args.q, basis.MAX_GRID)
    report = {
        "n": a.n,
        "q": args.q,
        "tol": args.tol,
        "unitarity_defect": a.unitarity_defect(),
        "gram_defect": basis.gram_defect(a, args.q),
        "kernel_max_deviation": basis.kernel_deviation(
            a, args.q, samples=args.samples, seed=args.seed
        ),
    }
    q_sig = max(args.q, 2)
    mart = martingale_check(a, random_signal(a.n, q_sig, seed=args.seed), q_sig - 1)
    report["martingale_exp_residual"] = mart.exp_residual
    report["martingale_tower_residual"] = mart.tower_residual
    if args.matrix_b:
        b = load_matrix(args.matrix_b, tol=args.tol)
        report["pairing_row_residual"] = pairing_check_rows(a, b, tol=args.tol).worst_residual
        report["pairing_basis_residual"] = pairing_check_basis(
            a, b, args.q, tol=args.tol
        ).worst_residual
    checks = {k: v for k, v in report.items() if k.endswith(("_defect", "_residual", "_deviation"))}
    failing = sorted(name for name, value in checks.items() if value > args.tol)
    report["pass"] = not failing
    report["failing"] = failing
    _write_json(report, args.out)
    if failing:
        print("verify failed: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def cmd_exchange(args) -> int:
    a = load_matrix(args.matrix, tol=args.tol)
    if args.matrix_b:
        b = load_matrix(args.matrix_b, tol=args.tol)
    elif args.r is not None:
        b = solve_companion(a, args.r, branch=args.branch)
    elif args.mask_seed is not None:
        masked = mask_constraints(a, args.mask_seed)
        b = solve_companion_numeric(a, masked, seed=args.seed, tol=min(args.tol, 1e-10))
    else:
        raise ValidationError("provide --matrix-b, --r, or --mask-seed")
    s = _load_signal(args, a.n)
    channel = protocol.DirectoryChannel(args.msg_dir) if args.msg_dir else None
    transcript = run_exchange(a, b, s, channel=channel)
    save_transcript(transcript, args.out)
    if transcript.pairing_violated:
        print("warning: pairing condition violated; recovery error "
              f"{transcript.max_error:.3e}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return int(args.func(args) or 0)
    except NumericError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValidationError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
