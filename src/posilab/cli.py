"""Command-line front door.

Subcommands: check, lambda-min, decompose, tensor, condexp, paper-verify.
Exit codes: 0 clean run (verdicts live in the printed report, a negative
verdict is not a failure), 1 invalid input, 2 numerical failure.

Each subcommand computes its whole report and returns it as a list of
lines; ``main`` prints them once it has returned, so a run prints the
whole report or, on a failure of exit code 1 or 2, nothing on stdout.

The parser is built on the first ``main`` call and reused for the life of
the process; ``parse_args`` fills a fresh namespace on every call and
never changes the parser, so no call sees the arguments of another.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import condexp, fileio, linalg, posinormal, structure, verify
from .errors import NumericalFailure, ValidationError
from .posinormal import ClassQuery


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _tolerance(text: str) -> float:
    """Type of --tol: a finite real > 0, else a usage error (exit 1)."""
    tol = float(text)
    if not 0.0 < tol < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite real > 0, got {text!r}")
    return tol


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _line(name: str, value) -> str:
    """One report line "name: value": booleans in lower case, None as n/a,
    a vector in brackets, a list of distinct eigenvalues to 8 digits,
    numbers through _fmt and text as it is."""
    if value is None:
        value = "n/a"
    elif isinstance(value, bool):
        value = str(value).lower()
    elif isinstance(value, np.ndarray):
        value = "[" + ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in value) + "]"
    elif isinstance(value, list):
        value = ", ".join(f"{z:.8g}" for z in value)
    elif not isinstance(value, str):
        value = _fmt(value)
    return f"{name}: {value}"


def _query(source) -> str:
    """The query line: whichever of k, n and lam ``source`` carries."""
    return "query: " + " ".join(
        f"lambda={_fmt(source.lam)}" if key == "lam" else f"{key}={getattr(source, key)}"
        for key in ("k", "n", "lam") if hasattr(source, key))


def _fields(report, names: str) -> list[str]:
    """The lines of the report fields named, separated by spaces, in
    ``names``; "lambda" reads ``lam`` and "query" is the report's _query."""
    return [_query(report) if name == "query"
            else _line(name, getattr(report, "lam" if name == "lambda" else name))
            for name in names.split()]


def _matrix(path: str, t: np.ndarray) -> str:
    return f"matrix: {path} ({t.shape[0]}x{t.shape[1]})"


def _class_report(report: posinormal.ClassReport) -> list[str]:
    lines = _fields(report, "holds gap_min_eigenvalue gap_norm")
    return lines if report.holds else [*lines, _line("witness", report.witness)]


def _cmd_check(args) -> list[str]:
    t = fileio.load_matrix(args.matrix_file)
    query = ClassQuery(k=args.k, n=args.n, lam=args.lam)
    return [_matrix(args.matrix_file, t), _query(args),
            *_class_report(posinormal.is_member(t, query, tol=args.tol))]


def _cmd_lambda_min(args) -> list[str]:
    t = fileio.load_matrix(args.matrix_file)
    result = posinormal.min_lambda(t, args.k, args.n, tol=args.tol)
    lines = [_matrix(args.matrix_file, t), _query(args),
             _line("feasible", result.feasible)]
    if not result.feasible:
        return [*lines, _line("kernel_obstruction", result.kernel_obstruction)]
    lam = result.lambda_min
    lines.append(_line("lambda_min", lam))
    if lam > 0:
        upper, lower = (
            posinormal.is_member(t, ClassQuery(args.k, args.n, linalg.require_finite(
                lam * step, "certificate lambda")), tol=args.tol)
            for step in (1 + linalg.AGREE_TOL, 1 - linalg.REPORT_TOL))
        lines += [_line("certificate_holds_above", upper.holds),
                  _line("certificate_fails_below", not lower.holds)]
    return lines


def _cmd_decompose(args) -> list[str]:
    t = fileio.load_matrix(args.matrix_file)
    decomp = structure.decompose(t, args.k, args.n)
    recon = linalg.operator_norm(decomp.reconstruct() - t)
    spec_t, spec_a, union_gap, union_ok = structure.spectrum_union_gap(decomp, t)
    lines = [_matrix(args.matrix_file, t), _line("k", args.k),
             _line("full_range", decomp.full_range),
             f"block_dims: A={len(decomp.block_a)} C={len(decomp.block_c)}",
             *_fields(decomp, "residual_lower_left nilpotency_residual"),
             _line("reconstruction_residual", recon),
             _line("spectrum_T", spec_t)]
    if spec_a:
        lines.append(_line("spectrum_A", spec_a))
    return lines + [_line("spectrum_union_hausdorff", union_gap),
                    _line("spectrum_union_ok", union_ok)]


def _cmd_tensor(args) -> list[str]:
    t, s = map(fileio.load_matrix, (args.matrix_file_a, args.matrix_file_b))
    report = structure.tensor_check(
        t, s, ClassQuery(args.k, args.n, args.lam), args.mu, tol=args.tol)
    return [f"factors: {args.matrix_file_a} (x) {args.matrix_file_b}",
            f"query: k={args.k} n={args.n} lambda*mu={_fmt(args.lam * args.mu)}",
            *_class_report(report)]


# condexp check -> (its call on the operator and the parsed arguments, the
# report fields it prints).  The call looks condexp.<check> up when it runs.
_CONDEXP_CHECKS = {
    "norm": (lambda op, a: condexp.norm_formula_check(op),
             "matrix_norm blockwise_norm deviation passed"),
    "lemma31": (lambda op, a: condexp.lemma31_check(op, a.power),
                "power deviation_t_star_t deviation_t_t_star passed"),
    "polar": (lambda op, a: condexp.polar_decomposition_check(op),
              "factor_residual modulus_min_eigenvalue modulus_squared_residual "
              "partial_isometry_residual passed"),
    "thm33": (lambda op, a: condexp.thm33_check(op, a.lam),
              "lambda supports_match blockwise_holds matrix_holds agree"),
    "thm34": (lambda op, a: condexp.thm34_check(op, a.n, a.lam),
              "query blockwise_holds matrix_holds necessity_ok"),
    "thm35": (lambda op, a: condexp.thm35_check(op, a.k, a.n, a.lam),
              "query stated_holds proof_form_holds matrix_holds all_agree"),
}


def _cmd_condexp(args) -> list[str]:
    op = condexp.build_operator(*fileio.load_space(args.space_file))
    call, names = _CONDEXP_CHECKS[args.check]
    return [f"space: {args.space_file} ({op.space.atom_count} atoms, "
            f"{op.partition.block_count} blocks)", *_fields(call(op, args), names)]


def _cmd_paper_verify(args) -> list[str]:
    report = verify.run_claim_suite(seed=args.seed)
    text, counts = verify.dumps_report(report), report.counts
    if args.out is not None:
        Path(args.out).write_text(text)  # an OSError exits 1
    return [text.removesuffix("\n") if args.out is None else f"report: {args.out}",
            f"claims: {len(report.claims)} ({counts['match']} match, "
            f"{counts['mismatch']} mismatch, "
            f"{counts['not-assertable']} not-assertable)"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posilab",
                     description="Verification lab for k-quasi n-power "
                                 "posinormal operators")
    sub = parser.add_subparsers(dest="command", required=True)
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--tol", type=_tolerance, default=linalg.DEFAULT_TOL,
                       help="relative tolerance (default %(default)g).  A verdict "
                            "reads the normal form lambda^2 - mu_i of its pencil on "
                            "ran T^k: it holds iff lambda^2 - lambda_min^2 >= "
                            "-tol * lambda_min^2, and fails at every lambda when "
                            "T*^n keeps more than tol of its squared norm on a "
                            "kernel direction of T there")
    query.add_argument("--k", type=int, required=True)
    query.add_argument("--n", type=int, required=True)

    p = sub.add_parser("check", parents=[query], help="membership test for one matrix")
    p.add_argument("matrix_file")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("lambda-min", parents=[query], help="minimal feasible lambda")
    p.add_argument("matrix_file")
    p.set_defaults(func=_cmd_lambda_min)

    p = sub.add_parser("decompose", help="range/kernel block splitting")
    p.add_argument("matrix_file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("tensor", parents=[query], help="Kronecker product membership")
    p.add_argument("matrix_file_a")
    p.add_argument("matrix_file_b")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("condexp", help="weighted conditional operator checks")
    p.add_argument("space_file")
    p.add_argument("check", choices=list(_CONDEXP_CHECKS))
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--power", type=float, default=1.0, help="exponent m for lemma31")
    p.set_defaults(func=_cmd_condexp)

    p = sub.add_parser("paper-verify", help="re-derive every article claim and report")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=_cmd_paper_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        print("\n".join(args.func(args)))  # the whole report, after it is computed
        return 0
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
