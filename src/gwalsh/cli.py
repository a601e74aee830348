"""Command-line front end.

Every subcommand is a thin shell over one library operation; all I/O
goes through the declared file formats (matrix JSON, signal/coefficient
CSV, transcript and masked-system JSON, sweep CSV).  Exit codes: 0 on
success, 1 on numeric failures (no solution, no convergence, not
unitary), 2 on validation errors and on sizes that cannot be allocated,
with a single-line diagnostic on stderr, where a newline is written
``\\n``.  A flag the parser rejects (unknown, missing, malformed, or in
conflict with another) is one such ``ValidationError`` line, with no
usage text.  The spelling rules of flag values are the library's:
``matrix.ascii_int`` for integers, ``matrix.ascii_float`` for floats,
``transform.signal_from_digits`` for ``--signal-inline``.  Runs are
deterministic given their flags; all randomness is seeded.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import basis, protocol
from .errors import NumericError, ValidationError
from .matrix import (
    ascii_float,
    ascii_int,
    generate_n3,
    generate_random,
    load_matrix,
    save_matrix,
    write_json,
)
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
    CSV_DIGITS,
    dwt_fast,
    idwt,
    random_signal,
    read_coefficients,
    read_signal,
    signal_from_digits,
    write_coefficients,
    write_signal,
)


def _add_matrix_arg(p):
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    # also accepted after the subcommand; SUPPRESS keeps the top-level default
    p.add_argument("--tol", type=ascii_float, default=argparse.SUPPRESS,
                   help="validation/check tolerance (default 1e-8)")


def _add_signal_args(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--signal", help="signal CSV file")
    source.add_argument("--signal-inline", dest="signal_inline",
                        help="signal as a digit string, one character per cell")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)  # main prints it as one line, exit code 2


@functools.cache  # one parser per process; main looks up cmd_* on every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gwalsh", description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=ascii_float, default=1e-8,
                        help="validation/check tolerance (default 1e-8)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-matrix", help="generate a Walsh-generating matrix")
    spec = p.add_mutually_exclusive_group()
    spec.add_argument("--n", type=ascii_int, help="base N (random generation)")
    # None tells a flag left out from one given, which the chosen path must read
    p.add_argument("--seed", type=ascii_int)
    p.add_argument("--complex", action="store_true", default=None,
                   help="complex entries (random generation)")
    spec.add_argument("--entry", type=ascii_float,
                      help="prescribed leading entry (3x3 closed form)")
    p.add_argument("--row", type=ascii_int, choices=(2, 3), help="1-based row receiving --entry")
    p.add_argument("--branch", choices=("plus", "minus"))
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve-b", help="solve for a companion matrix")
    _add_matrix_arg(p)
    p.add_argument("--r", type=ascii_float, help="free parameter (closed form, N=3)")
    p.add_argument("--branch", choices=("plus", "minus"))
    p.add_argument("--numeric", action="store_true", default=None,
                   help="build a seeded reflection companion (any N)")
    p.add_argument("--mask-seed", dest="mask_seed", type=ascii_int,
                   help="certify against the masked system with this seed")
    p.add_argument("--seed", type=ascii_int)
    p.add_argument("--masked-out", dest="masked_out",
                   help="also write the masked system JSON here (needs --mask-seed)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("encode", help="forward Walsh transform of a signal")
    _add_matrix_arg(p)
    _add_signal_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("decode", help="inverse Walsh transform of coefficients")
    _add_matrix_arg(p)
    p.add_argument("--in", dest="in_path", required=True, help="coefficient CSV file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("series", help="partial-sum convergence sweep")
    _add_matrix_arg(p)
    _add_signal_args(p)
    p.add_argument("--k-list", dest="k_list", required=True,
                   help="comma-separated truncation indices")
    p.add_argument("--q", type=ascii_int, help="evaluation resolution (default: minimal)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("kernel-check", help="max |D(x,t)/N^q - [same cell]| over samples")
    _add_matrix_arg(p)
    p.add_argument("--q", type=ascii_int, required=True)
    p.add_argument("--samples", type=ascii_int, default=1000,
                   help="(x, t) pairs, plus each (x, x)")
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="aggregate consistency report for a matrix (pair)")
    _add_matrix_arg(p)
    p.add_argument("--matrix-b", dest="matrix_b", help="companion matrix JSON file")
    p.add_argument("--q", type=ascii_int, required=True)
    p.add_argument("--samples", type=ascii_int, default=1000)
    p.add_argument("--seed", type=ascii_int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("exchange", help="run the four-step exchange")
    _add_matrix_arg(p)
    partner = p.add_mutually_exclusive_group()
    partner.add_argument("--matrix-b", dest="matrix_b", help="companion matrix JSON file")
    partner.add_argument("--r", type=ascii_float, help="derive the companion in closed form")
    p.add_argument("--branch", choices=("plus", "minus"))
    partner.add_argument("--mask-seed", dest="mask_seed", type=ascii_int,
                         help="derive the companion numerically, certified against the "
                              "masked system with this seed")
    p.add_argument("--seed", type=ascii_int)
    _add_signal_args(p)
    p.add_argument("--msg-dir", dest="msg_dir", help="stage messages as files here")
    p.add_argument("--out", required=True)

    return parser


def _reject_unread(args, path: str, *flags: str) -> None:
    """Reject flags given explicitly that the chosen path never reads."""
    given = ["--" + flag.replace("_", "-") for flag in flags
             if getattr(args, flag, None) is not None]
    if given:
        raise ValidationError(f"not read with {path}: {', '.join(given)}")


def _load_signal(args, base: int):
    if args.signal_inline is not None:
        return signal_from_digits(args.signal_inline, base=base)
    if args.signal is not None:
        return read_signal(args.signal)
    raise ValidationError("provide --signal or --signal-inline")


def cmd_gen_matrix(args) -> int:
    if args.entry is not None:
        _reject_unread(args, "--entry", "seed", "complex")
        row_choice = "third" if args.row == 3 else "second"
        m = generate_n3(args.entry, row_choice=row_choice, branch=args.branch or "plus")
    elif args.n is not None:
        _reject_unread(args, "--n", "row", "branch")
        m = generate_random(args.n, seed=args.seed or 0, complex_entries=bool(args.complex))
    else:
        raise ValidationError("provide --entry (closed form) or --n (random)")
    save_matrix(m, args.out)
    return 0


def _companion(args, a):
    """B and its masked system (or None): closed form with --r, else the numeric companion."""
    if args.r is not None:
        _reject_unread(args, "--r", "seed", "numeric", "mask_seed")
        return solve_companion(a, args.r, branch=args.branch or "plus"), None
    _reject_unread(args, "the numeric companion (no --r)", "branch")
    masked = None if args.mask_seed is None else mask_constraints(a, args.mask_seed)
    b = solve_companion_numeric(a, masked, seed=args.seed or 0, tol=min(args.tol, 1e-10))
    return b, masked


def cmd_solve_b(args) -> int:
    if args.masked_out is not None and args.mask_seed is None:
        raise ValidationError("--masked-out needs --mask-seed")
    b, masked = _companion(args, load_matrix(args.matrix, tol=args.tol))
    if args.masked_out is not None:  # only once B is certified against it
        protocol.save_masked_system(masked, args.masked_out)
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
        k_list = [ascii_int(k.strip()) for k in args.k_list.split(",") if k.strip()]
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
    write_json(
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
    if args.matrix_b is not None:
        b = load_matrix(args.matrix_b, tol=args.tol)
        report["pairing_row_residual"] = pairing_check_rows(a, b, tol=args.tol).worst_residual
        report["pairing_basis_residual"] = pairing_check_basis(
            a, b, args.q, tol=args.tol
        ).worst_residual
    checks = {k: v for k, v in report.items() if k.endswith(("_defect", "_residual", "_deviation"))}
    failing = sorted(name for name, value in checks.items() if not value <= args.tol)  # NaN fails
    report["pass"] = not failing
    report["failing"] = failing
    write_json(report, args.out)
    if failing:
        print("verify failed: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def cmd_exchange(args) -> int:
    a = load_matrix(args.matrix, tol=args.tol)
    if args.matrix_b is not None:
        _reject_unread(args, "--matrix-b", "branch", "seed")
        b = load_matrix(args.matrix_b, tol=args.tol)
    elif args.r is None and args.mask_seed is None:
        raise ValidationError("provide --matrix-b, --r, or --mask-seed")
    else:
        b, _ = _companion(args, a)
    s = _load_signal(args, a.n)
    channel = None if args.msg_dir is None else protocol.DirectoryChannel(args.msg_dir)
    transcript = run_exchange(a, b, s, channel=channel)
    save_transcript(transcript, args.out)
    if transcript.pairing_violated:
        print("warning: pairing condition violated; recovery error "
              f"{transcript.max_error:.3e}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = globals()["cmd_" + args.subcommand.replace("-", "_")]
        return int(command(args) or 0)
    except SystemExit as exc:  # --help; the parser raises ValidationError for a bad flag
        return 0 if exc.code in (0, None) else int(exc.code)
    except (NumericError, ValidationError, OSError, MemoryError) as exc:
        # one line: a message may quote a path or an argument that holds a newline
        print(f"{type(exc).__name__}: {exc}".replace("\n", "\\n"), file=sys.stderr)
        return 1 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
