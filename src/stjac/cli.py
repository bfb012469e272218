"""Command-line front end.

Subcommands: count, matrix, kernel, st0, split, sweep.  Every subcommand
supports --format text|json (sweep also csv, its default) and an optional
--out path.  Exit codes: 0 success, 1 usage or validation error, 2
mathematical consistency failure (oracle mismatch, matrix validation,
cross-prime inconsistency, failed relation or identity check).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import groupid, pointcount, splitjac, stmatrix
from .errors import (
    BadReductionError,
    EvenOrTooSmallError,
    NoColumnsError,
    NotPrimeError,
    PrimeTooLargeError,
    StjacError,
)
from .ffield import check_p_max, make_field
from .pointcount import ADDITIVE, FAMILIES, LINEAR, CurveSpec
from .primes import is_prime


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token that starts with "-" and a digit is a value such as
        # "--c -3/5", never a flag (argparse's own rule misses fractions)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_c(text: str) -> Fraction:
    try:
        c = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"invalid c: {text!r} ({exc})") from None
    return c


_CURVE_RE = re.compile(r"^(?:y\^2\s*=\s*)?x\^?(\d+)\s*\+\s*c(x?)$")


def _parse_curve_shorthand(text: str) -> tuple[str, int]:
    """Accept the two trinomial shapes 'x^D+c' and 'x^D+cx'."""
    m = _CURVE_RE.match(text.replace(" ", ""))
    if not m:
        raise SystemExit(
            f"cannot parse curve {text!r}; expected x^D+c or x^D+cx"
        )
    d = int(m.group(1))
    return (LINEAR if m.group(2) else ADDITIVE), d


def _build_spec(args) -> CurveSpec:
    family, d = args.family, args.d
    if args.curve:
        family, d = _parse_curve_shorthand(args.curve)
    if family is None or d is None:
        raise SystemExit("specify --family and --d (or --curve)")
    try:
        return CurveSpec(family=family, d=d, c=_parse_c(args.c))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _check_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise SystemExit(f"p must be an odd prime, got {p}")
    check_p_max(p)


def _primes_from_args(args) -> list[int]:
    if args.p is not None:
        _check_prime(args.p)
        return [args.p]
    if args.pmax is None:
        raise SystemExit("give --p or --pmax (with optional --pmin)")
    check_p_max(args.pmax)
    from .primes import prime_range

    return prime_range(max(3, args.pmin), args.pmax)


def cmd_count(args) -> int:
    spec = _build_spec(args)
    rows = []
    all_match = True
    for p in _primes_from_args(args):
        if not pointcount.good_reduction(p, spec):
            if args.p is not None:
                raise SystemExit(f"p={p} is a prime of bad reduction for {spec.label()}")
            continue
        fld = make_field(p)
        cnt = pointcount.count_formula(fld, spec)
        row = {"p": p, "count": cnt, "t_p": p + 1 - cnt,
               "x_p": (p + 1 - cnt) / math.sqrt(p)}
        if args.oracle:
            oracle = pointcount.count_bruteforce(fld, spec)
            row["oracle"] = oracle
            row["match"] = oracle == cnt
            all_match = all_match and row["match"]
        rows.append(row)
    if args.format == "json":
        _emit(json.dumps({
            "command": "count", "family": spec.family, "d": spec.d,
            "c": str(spec.c), "results": rows, "all_match": all_match,
        }, indent=2), args.out)
    else:
        lines = [f"curve: {spec.label()}"]
        for row in rows:
            line = f"p={row['p']}  count={row['count']}  t_p={row['t_p']}  x_p={row['x_p']:.6f}"
            if args.oracle:
                line += f"  oracle={row['oracle']}  {'ok' if row['match'] else 'MISMATCH'}"
            lines.append(line)
        _emit("\n".join(lines), args.out)
    return 0 if all_match else 2


def cmd_matrix(args) -> int:
    spec = _build_spec(args)
    _check_prime(args.p)
    mat = stmatrix.build_matrix(args.p, spec.d, spec.family)
    violations = stmatrix.validate_matrix(mat)
    if args.format == "json":
        payload = mat.to_dict()
        payload["violations"] = violations
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"carry matrix for {spec.equation()} at p={args.p}"
            f" ({len(mat.rows)} embeddings x {len(mat.cols)} characters)",
            "rows k: " + " ".join(str(k) for k in mat.rows),
            "column exponents a: " + " ".join(str(c.exponent) for c in mat.cols),
            mat.grid(),
        ]
        if not mat.is_generic:
            lines.append("warning: non-generic prime (fewer than 2g columns)")
        lines.append(
            "structure checks: all pass" if not violations
            else f"structure checks FAILED: {', '.join(violations)}"
        )
        _emit("\n".join(lines), args.out)
    return 2 if violations else 0


def cmd_kernel(args) -> int:
    spec = _build_spec(args)
    _check_prime(args.p)
    mat, kern, relations = stmatrix.relation_report(
        args.p, spec.d, spec.family, spec.c
    )
    ok = all(r.ok for r in relations)
    if args.format == "json":
        _emit(json.dumps({
            "command": "kernel", "p": args.p, "d": spec.d, "family": spec.family,
            "c": str(spec.c), "rank": kern.rank, "saturated": kern.saturated,
            "generic": mat.is_generic, "basis": kern.to_list(),
            "relations": [
                {"vector": list(v), "kind": r.kind, "order": r.order}
                for v, r in zip(kern.basis, relations)
            ],
        }, indent=2), args.out)
    else:
        lines = [
            f"kernel of the carry matrix at p={args.p} for {spec.equation()}:"
            f" rank {kern.rank}, saturated={kern.saturated}"
        ]
        for v, r in zip(kern.basis, relations):
            tag = {"exact": "exact relation",
                   "torsion": f"relation up to torsion (order {r.order})",
                   "fail": "NOT A RELATION"}[r.kind]
            lines.append(f"  {list(v)}  ->  {tag}")
        if not mat.is_generic:
            lines.append("warning: non-generic prime (fewer than 2g columns)")
        _emit("\n".join(lines), args.out)
    return 0 if ok else 2


def cmd_st0(args) -> int:
    spec = _build_spec(args)
    tid = groupid.identify_st0(spec, num_primes=args.num_primes)
    if args.format == "json":
        _emit(json.dumps(tid.to_dict(), indent=2), args.out)
    else:
        lines = [
            f"ST0 of Jac({spec.label()}) = {tid.name}",
            f"dimension: {tid.dimension}",
            f"primes used: {', '.join(str(p) for p in tid.primes_used)}",
        ]
        for cl in tid.classes:
            lines.append(
                f"  weight {list(cl.weight)}: {cl.plus} plus / {cl.minus} minus"
            )
        _emit("\n".join(lines), args.out)
    return 0


def cmd_split(args) -> int:
    if args.g < 2:
        raise SystemExit("--g must be at least 2")
    c = _parse_c(args.c)
    fact = splitjac.split_full(args.g, c)
    entries = []
    refined = []  # (factor, its split_refined factorization)
    all_ok = True
    for factor, exponent in fact.factors:
        entry = {
            "family": factor.family, "d": factor.d, "c": str(factor.c),
            "genus": factor.genus, "exponent": exponent,
        }
        sub_g = factor.genus
        if args.refine and factor.family == LINEAR and sub_g % 2 and sub_g >= 3:
            sub = splitjac.split_refined(sub_g, factor.c)
            entry["refined"] = sub.to_dict()["factors"]
            refined.append((factor, sub))
            if args.check:
                for i in (0, 1):
                    if not splitjac.lockwood_check(
                        sub_g, i, factor.c, trials=args.trials,
                        tol=args.tol, seed=args.seed,
                    ):
                        all_ok = False
        entries.append(entry)
    if args.format == "json":
        _emit(json.dumps({
            "command": "split", "g": args.g, "c": str(c),
            "source": fact.to_dict()["source"], "factors": entries,
            "identity_checked": bool(args.refine and args.check),
            "identity_ok": all_ok,
        }, indent=2), args.out)
    else:
        lines = [fact.pretty()]
        if args.refine:
            for factor, sub in refined:
                lines.append(f"  refine {factor.label()}:")
                for f, _ in sub.factors:
                    name = f.label() if isinstance(f, CurveSpec) else f.pretty()
                    lines.append(f"    {name}")
            if args.check:
                lines.append(
                    "identity check: pass" if all_ok else "identity check: FAIL"
                )
        _emit("\n".join(lines), args.out)
    return 0 if all_ok else 2


def cmd_sweep(args) -> int:
    spec = _build_spec(args)
    if args.pmax is None:
        raise SystemExit("--pmax is required for sweep")
    check_p_max(args.pmax)
    result = pointcount.trace_sweep(
        spec, max(3, args.pmin), args.pmax, workers=args.workers
    )
    summary = {
        "curve": spec.label(),
        "moments": result.moments,
        "class_counts": {str(k): v for k, v in sorted(result.class_counts.items())},
        "classes_mod": pointcount.congruence_modulus(spec),
    }
    if args.format == "json":
        _emit(json.dumps({
            "command": "sweep",
            "samples": [
                {"p": s.p, "count": s.count, "t_p": s.t_p, "x_p": s.x_p}
                for s in result.samples
            ],
            "summary": summary,
        }, indent=2), args.out)
    elif args.format == "text":
        lines = [f"sweep of {spec.label()}, {len(result.samples)} good primes"]
        m = result.moments
        lines.append(
            f"moments of x_p: mean={m['mean']:.6f} m2={m['m2']:.6f}"
            f" m4={m['m4']:.6f} m6={m['m6']:.6f}"
        )
        lines.append(
            f"primes per class mod {summary['classes_mod']}: "
            + ", ".join(f"{k}: {v}" for k, v in summary["class_counts"].items())
        )
        _emit("\n".join(lines), args.out)
    else:
        rows = ["p,count,t_p,x_p"]
        for s in result.samples:
            rows.append(f"{s.p},{s.count},{s.t_p},{s.x_p:.12g}")
        _emit("\n".join(rows), args.out)
        print(
            f"# moments: mean={result.moments['mean']:.6g}"
            f" m2={result.moments['m2']:.6g} m4={result.moments['m4']:.6g}"
            f" m6={result.moments['m6']:.6g}; classes mod"
            f" {summary['classes_mod']}: {summary['class_counts']}",
            file=sys.stderr,
        )
    return 0


def _add_curve_options(sub, with_c=True):
    sub.add_argument("--family", choices=FAMILIES, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--curve", default=None, help="shorthand like x^10+c or x^9+cx")
    if with_c:
        sub.add_argument("--c", default="1", help="nonzero rational, e.g. 2 or -3/5")


def _add_output_options(sub, formats):
    """--format (the first of `formats` is the default) and --out."""
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stjac", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count", help="point counts via the Jacobi-sum formula")
    _add_curve_options(sub)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--pmin", type=int, default=3)
    sub.add_argument("--pmax", type=int, default=None)
    sub.add_argument("--oracle", action="store_true",
                     help="also run the brute-force count and compare")
    _add_output_options(sub, ("text", "json"))
    sub.set_defaults(func=cmd_count)

    sub = subs.add_parser("matrix", help="print the Stickelberger carry matrix")
    _add_curve_options(sub, with_c=False)
    sub.set_defaults(c="1")
    sub.add_argument("--p", type=int, required=True)
    _add_output_options(sub, ("text", "json"))
    sub.set_defaults(func=cmd_matrix)

    sub = subs.add_parser("kernel", help="kernel basis with relation verification")
    _add_curve_options(sub)
    sub.add_argument("--p", type=int, required=True)
    _add_output_options(sub, ("text", "json"))
    sub.set_defaults(func=cmd_kernel)

    sub = subs.add_parser("st0", help="identify the Sato-Tate identity component")
    _add_curve_options(sub)
    sub.add_argument("--num-primes", type=int, default=3)
    _add_output_options(sub, ("text", "json"))
    sub.set_defaults(func=cmd_st0)

    sub = subs.add_parser("split", help="symbolic Jacobian factorization")
    sub.add_argument("--g", type=int, required=True)
    sub.add_argument("--c", default="1")
    sub.add_argument("--refine", action="store_true",
                     help="refine odd-genus linear-twist factors")
    sub.add_argument("--check", action="store_true",
                     help="verify the binomial identity numerically when refining")
    sub.add_argument("--trials", type=int, default=20)
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--seed", type=int, default=0)
    _add_output_options(sub, ("text", "json"))
    sub.set_defaults(func=cmd_split)

    sub = subs.add_parser("sweep", help="trace-of-Frobenius sweep over primes")
    _add_curve_options(sub)
    sub.add_argument("--pmin", type=int, default=3)
    sub.add_argument("--pmax", type=int, default=None)
    sub.add_argument("--workers", type=int, default=1)
    _add_output_options(sub, ("csv", "json", "text"))
    sub.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"stjac: error: {exc.code}", file=sys.stderr)
            return 1
        return exc.code if exc.code is not None else 0
    except (
        NotPrimeError, EvenOrTooSmallError, PrimeTooLargeError,
        NoColumnsError, BadReductionError,
    ) as exc:
        print(f"stjac: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except StjacError as exc:
        print(f"stjac: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"stjac: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
