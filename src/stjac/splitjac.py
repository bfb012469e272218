"""Symbolic Jacobian factorizations for the trinomial curve families.

Factorizations are formal records Jac(source) ~ prod(factor^exponent) over
the algebraic closure; no divisor arithmetic happens here.  The genus of
the source always equals the exponent-weighted genus sum of the factors,
and that identity is asserted on every constructed factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EvenInputError
from .pointcount import ADDITIVE, LINEAR, CurveSpec
from .primes import v2


@dataclass(frozen=True)
class CurveTerm:
    """One monomial coeff * zeta^zeta_exp * c^c_exp * x^x_exp."""

    x_exp: int
    coeff: int
    zeta_exp: int
    c_exp: Fraction


@dataclass(frozen=True)
class LowerGenusCurve:
    """The curve y^2 = sum of terms, defined over Q(zeta_g, c^(1/g)).

    For odd g and i in {0, 1} the terms are
        (-1)^k [C(g-k, k) + C(g-k-1, k-1)] zeta^(ik) c^(k/g) x^(g-2k),
    k = 0 .. (g-1)/2, a curve of genus (g-1)/2.
    """

    g: int
    i: int
    c: Fraction
    terms: tuple[CurveTerm, ...]

    @property
    def genus(self) -> int:
        return (self.g - 1) // 2

    def pretty(self) -> str:
        parts = []
        for t in self.terms:
            body = str(abs(t.coeff))
            if t.zeta_exp:
                body += f"*zeta^{t.zeta_exp}" if t.zeta_exp > 1 else "*zeta"
            if t.c_exp and self.c != 1:
                body += f"*c^({t.c_exp})"
            if t.x_exp:
                body += f"*x^{t.x_exp}" if t.x_exp > 1 else "*x"
            if body.startswith("1*"):
                body = body[2:]
            sign = " - " if t.coeff < 0 else " + "
            parts.append((sign, body))
        out = parts[0][1] if parts[0][0] == " + " else "-" + parts[0][1]
        for sign, body in parts[1:]:
            out += sign + body
        return "y^2 = " + out

    def to_dict(self) -> dict:
        return {
            "type": "lower_genus",
            "g": self.g,
            "i": self.i,
            "c": str(self.c),
            "genus": self.genus,
            "terms": [
                {
                    "x_exp": t.x_exp,
                    "coeff": t.coeff,
                    "zeta_exp": t.zeta_exp,
                    "c_exp": str(t.c_exp),
                }
                for t in self.terms
            ],
        }


Factor = CurveSpec | LowerGenusCurve


@dataclass(frozen=True)
class IsogenyFactorization:
    source: CurveSpec
    factors: tuple[tuple[Factor, int], ...]

    def __post_init__(self):
        total = self.genus_total()
        if total != self.source.genus:
            raise ValueError(
                f"genus mismatch: source {self.source.genus}, factors {total}"
            )

    def genus_total(self) -> int:
        return sum(f.genus * e for f, e in self.factors)

    def pretty(self) -> str:
        parts = []
        for f, e in self.factors:
            name = f.label() if isinstance(f, CurveSpec) else f.pretty()
            parts.append(f"Jac({name})" + (f"^{e}" if e > 1 else ""))
        return f"Jac({self.source.label()}) ~ " + " x ".join(parts)

    def to_dict(self) -> dict:
        out = []
        for f, e in self.factors:
            entry = {"type": "curve", **f.to_dict()} if isinstance(f, CurveSpec) else f.to_dict()
            out.append({**entry, "exponent": e})
        return {"source": self.source.to_dict(), "factors": out}


def split_odd(g: int, c=Fraction(1)) -> IsogenyFactorization:
    """Jac(y^2 = x^(2g+2) + c) ~ Jac(x^(g+1)+c) x Jac(x^(g+2)+cx) for odd g."""
    if g < 3 or g % 2 == 0:
        raise EvenInputError(f"split_odd needs odd g >= 3, got {g}")
    c = Fraction(c)
    return IsogenyFactorization(
        source=CurveSpec(ADDITIVE, 2 * g + 2, c),
        factors=(
            (CurveSpec(ADDITIVE, g + 1, c), 1),
            (CurveSpec(LINEAR, g + 2, c), 1),
        ),
    )


def split_full(g: int, c=Fraction(1)) -> IsogenyFactorization:
    """Full 2-adic splitting of Jac(y^2 = x^(2g+2) + c).

    With k = v2(g+1): one odd-degree additive factor x^((g+1)/2^k) + c
    squared, and linear-twist factors x^((g+1)/2^(i-1) + 1) + c*x for
    i = 1..k.  Matches repeated application of the even/odd lemmas; for
    even g (k = 0) it is the even lemma, Jac(y^2 = x^(g+1) + c)^2.
    """
    if g < 2:
        raise ValueError("split_full needs g >= 2")
    c = Fraction(c)
    k = v2(g + 1)
    factors: list[tuple[Factor, int]] = [
        (CurveSpec(ADDITIVE, (g + 1) >> k, c), 2)
    ]
    for i in range(1, k + 1):
        factors.append((CurveSpec(LINEAR, (g + 1) // 2 ** (i - 1) + 1, c), 1))
    return IsogenyFactorization(
        source=CurveSpec(ADDITIVE, 2 * g + 2, c), factors=tuple(factors)
    )


def bracket_coeff(g: int, k: int) -> int:
    """C(g-k, k) + C(g-k-1, k-1), with C(r, -1) = 0."""
    second = math.comb(g - k - 1, k - 1) if k >= 1 else 0
    return math.comb(g - k, k) + second


def lower_genus_curve(g: int, i: int, c=Fraction(1)) -> LowerGenusCurve:
    """Explicit term list of the branch-i lower-genus curve for odd g >= 3."""
    if g < 3 or g % 2 == 0:
        raise EvenInputError(f"needs odd g >= 3, got {g}")
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")
    c = Fraction(c)
    terms = tuple(
        CurveTerm(
            x_exp=g - 2 * k,
            coeff=(-1) ** k * bracket_coeff(g, k),
            zeta_exp=(i * k) % g,
            c_exp=Fraction(k, g),
        )
        for k in range((g - 1) // 2 + 1)
    )
    return LowerGenusCurve(g=g, i=i, c=c, terms=terms)


def split_refined(g: int, c=Fraction(1)) -> IsogenyFactorization:
    """Jac(y^2 = x^(2g+1) + c*x) ~ E x Jac(C_0) x Jac(C_1) for odd g >= 3,
    with E: y^2 = x^3 + c*x and C_i the two lower-genus curves."""
    if g < 3 or g % 2 == 0:
        raise EvenInputError(f"split_refined needs odd g >= 3, got {g}")
    c = Fraction(c)
    return IsogenyFactorization(
        source=CurveSpec(LINEAR, 2 * g + 1, c),
        factors=(
            (CurveSpec(LINEAR, 3, c), 1),
            (lower_genus_curve(g, 0, c), 1),
            (lower_genus_curve(g, 1, c), 1),
        ),
    )


def lockwood_check(curve: LowerGenusCurve) -> bool:
    """Exact check of the binomial identity behind a lower-genus curve.

    With gamma = zeta^i c^(1/g), the curve reads y^2 = F(x) with
    F(x) = sum_k coeff_k gamma^k x^(g-2k), and the identity is
        x^(2g+1) + c*x = sum_k coeff_k gamma^k x^(2k+1) (x^2 + gamma)^(g-2k),
    i.e. F(x + gamma/x) = x^g + (gamma/x)^g: F is the Dickson polynomial
    D_g(x, gamma) (Lidl-Mullen-Niederreiter, Dickson Polynomials, 1993).
    So term k must carry x^(g-2k), zeta^(ik) and c^(k/g).  After dividing
    by x both sides are homogeneous of degree g in (x^2, gamma), and
    gamma^g = c, so t = x^2/gamma turns the identity into
        sum_k coeff_k t^k (t+1)^(g-2k) = t^g + 1
    in Z[t].  That integer identity proves the curve identity for every i
    and every c; it is checked with ints only.
    """
    g, i = curve.g, curve.i
    if len(curve.terms) != curve.genus + 1:
        return False
    total = [0] * (g + 1)
    for k, term in enumerate(curve.terms):
        m = g - 2 * k
        if (term.x_exp, term.zeta_exp, term.c_exp) != (m, i * k % g, Fraction(k, g)):
            return False
        for j in range(m + 1):
            total[k + j] += term.coeff * math.comb(m, j)
    return total == [1] + [0] * (g - 1) + [1]
