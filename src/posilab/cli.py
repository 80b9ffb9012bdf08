"""Command-line front door.

Subcommands: check, lambda-min, decompose, tensor, condexp, paper-verify.
Exit codes: 0 clean run (verdicts live in the printed report, a negative
verdict is not a failure), 1 invalid input, 2 numerical failure.

The parser is built on the first ``main`` call and reused for the life of
the process; ``parse_args`` fills a fresh namespace on every call and
never changes the parser, so no call sees the arguments of another.
"""

import argparse
import functools
import sys

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


def _fmt_vector(v: np.ndarray) -> str:
    return "[" + ", ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in v) + "]"


def _print_class_report(report: posinormal.ClassReport) -> None:
    print(f"holds: {str(report.holds).lower()}")
    print(f"gap_min_eigenvalue: {_fmt(report.gap_min_eigenvalue)}")
    print(f"gap_norm: {_fmt(report.gap_norm)}")
    if not report.holds:
        print(f"witness: {_fmt_vector(report.witness)}")


def _cmd_check(args) -> int:
    t = fileio.load_matrix(args.matrix_file)
    query = ClassQuery(k=args.k, n=args.n, lam=args.lam)
    report = posinormal.is_member(t, query, tol=args.tol)
    print(f"matrix: {args.matrix_file} ({t.shape[0]}x{t.shape[1]})")
    print(f"query: k={query.k} n={query.n} lambda={_fmt(query.lam)}")
    _print_class_report(report)
    return 0


def _cmd_lambda_min(args) -> int:
    t = fileio.load_matrix(args.matrix_file)
    result = posinormal.min_lambda(t, args.k, args.n, tol=args.tol)
    lines = [f"matrix: {args.matrix_file} ({t.shape[0]}x{t.shape[1]})",
             f"query: k={args.k} n={args.n}",
             f"feasible: {str(result.feasible).lower()}"]
    if result.feasible:
        lam = result.lambda_min
        lines.append(f"lambda_min: {_fmt(lam)}")
        if lam > 0:  # both verdicts run before anything is printed
            upper, lower = (
                posinormal.is_member(t, ClassQuery(args.k, args.n, lam * step), tol=args.tol)
                for step in (1 + linalg.AGREE_TOL, 1 - linalg.REPORT_TOL))
            lines += [f"certificate_holds_above: {str(upper.holds).lower()}",
                      f"certificate_fails_below: {str(not lower.holds).lower()}"]
    else:
        lines.append(f"kernel_obstruction: {_fmt_vector(result.kernel_obstruction)}")
    print("\n".join(lines))
    return 0


def _cmd_decompose(args) -> int:
    t = fileio.load_matrix(args.matrix_file)
    decomp = structure.decompose(t, args.k, args.n)
    print(f"matrix: {args.matrix_file} ({t.shape[0]}x{t.shape[1]})")
    print(f"k: {args.k}")
    print(f"full_range: {str(decomp.full_range).lower()}")
    print(f"block_dims: A={decomp.range_basis.shape[1]} "
          f"C={decomp.kernel_basis.shape[1]}")
    print(f"residual_lower_left: {_fmt(decomp.residual_lower_left)}")
    print(f"nilpotency_residual: {_fmt(decomp.nilpotency_residual)}")
    recon = linalg.operator_norm(decomp.reconstruct() - t)
    print(f"reconstruction_residual: {_fmt(recon)}")
    spec_t = linalg.distinct_values(linalg.spectrum(t), tol=linalg.REPORT_TOL)
    print("spectrum_T: " + ", ".join(f"{v:.8g}" for v in spec_t))
    if decomp.range_basis.shape[1] > 0:
        spec_a = linalg.distinct_values(linalg.spectrum(decomp.block_a),
                                        tol=linalg.REPORT_TOL)
        print("spectrum_A: " + ", ".join(f"{v:.8g}" for v in spec_a))
    union_gap = structure.spectrum_union_gap(decomp, t)
    print(f"spectrum_union_hausdorff: {_fmt(union_gap)}")
    print(f"spectrum_union_ok: {str(union_gap <= linalg.REPORT_TOL).lower()}")
    return 0


def _cmd_tensor(args) -> int:
    t = fileio.load_matrix(args.matrix_file_a)
    s = fileio.load_matrix(args.matrix_file_b)
    report = structure.tensor_check(
        t, s, ClassQuery(args.k, args.n, args.lam), args.mu, tol=args.tol)
    print(f"factors: {args.matrix_file_a} (x) {args.matrix_file_b}")
    print(f"query: k={args.k} n={args.n} lambda*mu={_fmt(args.lam * args.mu)}")
    _print_class_report(report)
    return 0


def _cmd_condexp(args) -> int:
    space, partition, w, u = fileio.load_space(args.space_file)
    op = condexp.build_operator(space, partition, w, u)
    lines = [f"space: {args.space_file} ({space.atom_count} atoms, "
             f"{partition.block_count} blocks)"]  # printed once the check ran
    sub = args.check
    if sub == "norm":
        rep = condexp.norm_formula_check(op, tol=args.tol)
        lines.append(f"matrix_norm: {_fmt(rep.matrix_norm)}")
        lines.append(f"blockwise_norm: {_fmt(rep.blockwise_norm)}")
        lines.append(f"deviation: {_fmt(rep.deviation)}")
        lines.append(f"passed: {str(rep.passed).lower()}")
    elif sub == "lemma31":
        rep = condexp.lemma31_check(op, args.power, tol=args.tol)
        lines.append(f"power: {_fmt(rep.power)}")
        lines.append(f"deviation_t_star_t: {_fmt(rep.deviation_t_star_t)}")
        lines.append(f"deviation_t_t_star: {_fmt(rep.deviation_t_t_star)}")
        lines.append(f"passed: {str(rep.passed).lower()}")
    elif sub == "polar":
        rep = condexp.polar_decomposition_check(op, tol=args.tol)
        lines.append(f"factor_residual: {_fmt(rep.factor_residual)}")
        lines.append(f"modulus_min_eigenvalue: {_fmt(rep.modulus_min_eigenvalue)}")
        lines.append(f"modulus_squared_residual: {_fmt(rep.modulus_squared_residual)}")
        lines.append(f"partial_isometry_residual: {_fmt(rep.partial_isometry_residual)}")
        lines.append(f"passed: {str(rep.passed).lower()}")
    elif sub == "thm33":
        rep = condexp.thm33_check(op, args.lam, tol=args.tol)
        lines.append(f"lambda: {_fmt(rep.lam)}")
        lines.append(f"supports_match: {str(rep.supports_match).lower()}")
        lines.append(f"blockwise_holds: {str(rep.blockwise_holds).lower()}")
        lines.append(f"matrix_holds: {str(rep.matrix_holds).lower()}")
        agree = "n/a" if rep.agree is None else str(rep.agree).lower()
        lines.append(f"agree: {agree}")
    elif sub == "thm34":
        rep = condexp.thm34_check(op, args.n, args.lam, tol=args.tol)
        lines.append(f"query: n={rep.n} lambda={_fmt(rep.lam)}")
        lines.append(f"blockwise_holds: {str(rep.blockwise_holds).lower()}")
        lines.append(f"matrix_holds: {str(rep.matrix_holds).lower()}")
        lines.append(f"necessity_ok: {str(rep.necessity_ok).lower()}")
    elif sub == "thm35":
        rep = condexp.thm35_check(op, args.k, args.n, args.lam, tol=args.tol)
        lines.append(f"query: k={rep.k} n={rep.n} lambda={_fmt(rep.lam)}")
        lines.append(f"stated_holds: {str(rep.stated_holds).lower()}")
        lines.append(f"proof_form_holds: {str(rep.proof_form_holds).lower()}")
        lines.append(f"matrix_holds: {str(rep.matrix_holds).lower()}")
        lines.append(f"all_agree: {str(rep.all_agree).lower()}")
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown condexp check {sub!r}")
    print("\n".join(lines))
    return 0


def _cmd_paper_verify(args) -> int:
    report = verify.run_claim_suite(seed=args.seed)
    text = verify.dumps_report(report)
    if args.out is not None:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write report to {args.out}: {exc}")
        print(f"report: {args.out}")
    else:
        sys.stdout.write(text)
    counts = report.counts
    print(f"claims: {len(report.claims)} ({counts['match']} match, "
          f"{counts['mismatch']} mismatch, "
          f"{counts['not-assertable']} not-assertable)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="posilab",
                     description="Verification lab for k-quasi n-power "
                                 "posinormal operators")
    sub = parser.add_subparsers(dest="command", required=True)
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=linalg.DEFAULT_TOL,
                     help="relative tolerance (default %(default)g).  A verdict "
                          "reads the normal form lambda^2 - mu_i of its pencil on "
                          "ran T^k: it holds iff lambda^2 - lambda_min^2 >= "
                          "-tol * lambda_min^2, and fails at every lambda when "
                          "T*^n keeps more than tol of its squared norm on a "
                          "kernel direction of T there.  condexp bounds its "
                          "relative deviations and blockwise margins by tol")
    query = argparse.ArgumentParser(add_help=False, parents=[tol])
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

    p = sub.add_parser("condexp", parents=[tol],
                       help="weighted conditional operator checks")
    p.add_argument("space_file")
    p.add_argument("check", choices=["norm", "lemma31", "polar",
                                     "thm33", "thm34", "thm35"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--power", type=float, default=1.0,
                   help="exponent m for lemma31")
    p.set_defaults(func=_cmd_condexp)

    p = sub.add_parser("paper-verify",
                       help="re-derive every article claim and report")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.set_defaults(func=_cmd_paper_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
