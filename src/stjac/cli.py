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
from .errors import InputError, StjacError
from .ffield import make_field
from .pointcount import ADDITIVE, FAMILIES, LINEAR, CurveSpec


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
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"invalid c: {text!r} ({exc})") from None


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
    return CurveSpec(family=family, d=d, c=_parse_c(args.c))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# Each cmd_* returns (JSON payload, text lines, exit code); main renders one.


def cmd_count(args):
    spec = _build_spec(args)
    if args.p is not None:
        primes = [args.p]
    elif args.pmax is not None:
        primes = pointcount.good_primes(spec, args.pmin, args.pmax)
    else:
        raise SystemExit("give --p or --pmax (with optional --pmin)")
    rows = []
    all_match = True
    for p in primes:
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
    payload = {
        "command": "count", "family": spec.family, "d": spec.d,
        "c": str(spec.c), "results": rows, "all_match": all_match,
    }
    lines = [f"curve: {spec.label()}"]
    for row in rows:
        line = f"p={row['p']}  count={row['count']}  t_p={row['t_p']}  x_p={row['x_p']:.6f}"
        if args.oracle:
            line += f"  oracle={row['oracle']}  {'ok' if row['match'] else 'MISMATCH'}"
        lines.append(line)
    return payload, lines, 0 if all_match else 2


def cmd_matrix(args):
    # --c is validated like everywhere else; a carry matrix never depends on it
    spec = _build_spec(args)
    mat = stmatrix.build_matrix(args.p, spec.d, spec.family)
    violations = stmatrix.validate_matrix(mat)
    payload = {**mat.to_dict(), "violations": violations}
    lines = [
        f"carry matrix for {spec.equation()} at p={args.p}"
        f" ({len(mat.rows)} embeddings x {len(mat.cols)} characters)",
        "rows k: " + " ".join(str(k) for k in mat.rows),
        "column exponents a: " + " ".join(str(a) for a in mat.cols),
        mat.grid(),
    ]
    if not mat.is_generic:
        lines.append("warning: non-generic prime (fewer than 2g columns)")
    lines.append(
        "structure checks: all pass" if not violations
        else f"structure checks FAILED: {', '.join(violations)}"
    )
    return payload, lines, 2 if violations else 0


def cmd_kernel(args):
    spec = _build_spec(args)
    mat, kern, relations = stmatrix.relation_report(
        args.p, spec.d, spec.family, spec.c
    )
    payload = {
        "command": "kernel", "p": args.p, "d": spec.d, "family": spec.family,
        "c": str(spec.c), "rank": kern.rank, "saturated": kern.saturated,
        "generic": mat.is_generic, "basis": kern.to_list(),
        "relations": [
            {"vector": list(v), "kind": r.kind, "order": r.order}
            for v, r in zip(kern.basis, relations)
        ],
    }
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
    return payload, lines, 0 if all(r.ok for r in relations) else 2


def cmd_st0(args):
    spec = _build_spec(args)
    tid = groupid.identify_st0(spec, num_primes=args.num_primes)
    lines = [
        f"ST0 of Jac({spec.label()}) = {tid.name}",
        f"dimension: {tid.dimension}",
        f"primes used: {', '.join(str(p) for p in tid.primes_used)}",
    ]
    for cl in tid.classes:
        lines.append(
            f"  weight {list(cl.weight)}: {cl.plus} plus / {cl.minus} minus"
        )
    return tid.to_dict(), lines, 0


def cmd_split(args):
    if args.check and not args.refine:
        raise SystemExit("--check needs --refine")
    c = _parse_c(args.c)
    fact = splitjac.split_full(args.g, c)
    entries = []
    lines = [fact.pretty()]
    checked = []
    for factor, exponent in fact.factors:
        entry = {**factor.to_dict(), "exponent": exponent}
        sub_g = factor.genus
        if args.refine and factor.family == LINEAR and sub_g % 2 and sub_g >= 3:
            sub = splitjac.split_refined(sub_g, factor.c)
            entry["refined"] = sub.to_dict()["factors"]
            lines.append(f"  refine {factor.label()}:")
            for f, _ in sub.factors:
                name = f.label() if isinstance(f, CurveSpec) else f.pretty()
                lines.append(f"    {name}")
            if args.check:
                checked += [f for f, _ in sub.factors
                            if isinstance(f, splitjac.LowerGenusCurve)]
        entries.append(entry)
    all_ok = all(splitjac.lockwood_check(f) for f in checked)
    if checked:
        lines.append("identity check: pass" if all_ok else "identity check: FAIL")
    payload = {
        "command": "split", "g": args.g, "c": str(c),
        "source": fact.source.to_dict(), "factors": entries,
        "identity_checked": bool(checked),
        "identity_ok": all_ok,
    }
    return payload, lines, 0 if all_ok else 2


def cmd_sweep(args):
    spec = _build_spec(args)
    result = pointcount.trace_sweep(spec, args.pmin, args.pmax, workers=args.workers)
    m = result.moments
    summary = {
        "curve": spec.label(),
        "moments": m,
        "class_counts": {str(k): v for k, v in sorted(result.class_counts.items())},
        "classes_mod": pointcount.congruence_modulus(spec),
    }
    payload = {
        "command": "sweep",
        "samples": [
            {"p": s.p, "count": s.count, "t_p": s.t_p, "x_p": s.x_p}
            for s in result.samples
        ],
        "summary": summary,
    }
    if args.format == "text":
        lines = [
            f"sweep of {spec.label()}, {len(result.samples)} good primes",
            f"moments of x_p: mean={m['mean']:.6f} m2={m['m2']:.6f}"
            f" m4={m['m4']:.6f} m6={m['m6']:.6f}",
            f"primes per class mod {summary['classes_mod']}: "
            + ", ".join(f"{k}: {v}" for k, v in summary["class_counts"].items()),
        ]
    else:
        lines = ["p,count,t_p,x_p"]
        lines += [f"{s.p},{s.count},{s.t_p},{s.x_p:.12g}" for s in result.samples]
    if args.format == "csv":
        print(
            f"# moments: mean={m['mean']:.6g} m2={m['m2']:.6g} m4={m['m4']:.6g}"
            f" m6={m['m6']:.6g}; classes mod"
            f" {summary['classes_mod']}: {summary['class_counts']}",
            file=sys.stderr,
        )
    return payload, lines, 0


def _add_curve_options(sub):
    sub.add_argument("--family", choices=FAMILIES, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--curve", default=None, help="shorthand like x^10+c or x^9+cx")
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
    _add_curve_options(sub)
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
                     help="verify the binomial identity exactly (needs --refine)")
    _add_output_options(sub, ("text", "json"))
    sub.set_defaults(func=cmd_split)

    sub = subs.add_parser("sweep", help="trace-of-Frobenius sweep over primes")
    _add_curve_options(sub)
    sub.add_argument("--pmin", type=int, default=3)
    sub.add_argument("--pmax", type=int, required=True)
    sub.add_argument("--workers", type=int, default=1)
    _add_output_options(sub, ("csv", "json", "text"))
    sub.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines, code = args.func(args)
        text = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines)
        _emit(text, args.out)
        return code
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(f"stjac: error: {exc.code}", file=sys.stderr)
            return 1
        return exc.code if exc.code is not None else 0
    except StjacError as exc:
        print(f"stjac: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, InputError) else 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"stjac: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
