"""Point counts for the trinomial curves y^2 = x^d + c and y^2 = x^d + c*x.

Counts are taken on the smooth projective model C~: the affine
F_p-solutions plus the rational points at infinity.  The leading term x^d
has coefficient 1, a square, so there are two points at infinity when d is
even and one when d is odd.  With this count t_p = p + 1 - #C~(F_p) is the
Frobenius trace of the Jacobian and obeys the Weil bound |t_p| <= 2g*sqrt(p).

The closed formula is

    #C~(F_p) = p + (points at infinity) + sum_a  chi_a(-c) * phi(c) * J(chi_a, phi)

where phi is the quadratic character and chi_a runs over the contributing
column characters of the family: exponents a = m(p-1)/d for the additive
family, a = t(p-1)/(2(d-1)) with t odd for the linear-twist family, always
restricted to integral a in [1, p-2].  For even d the quadratic column
a = (p-1)/2 contributes -1 identically.  The cyclotomic sum always
collapses to a rational integer, which is asserted.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import _accel
from .charsums import jacobi_sum_compact
from .cyclo import CycloElt, conductor_join
from .errors import BadReductionError, NonIntegerResultError
from .ffield import PrimeField, make_field
from .primes import prime_range

ADDITIVE = "additive"  # y^2 = x^d + c
LINEAR = "linear"  # y^2 = x^d + c*x, d odd
FAMILIES = (ADDITIVE, LINEAR)


@dataclass(frozen=True)
class CurveSpec:
    """One curve from the two trinomial families."""

    family: str
    d: int
    c: Fraction = Fraction(1)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        # d = 1, 2 only arise as genus-0 leaves of the splitting recursion
        # (g+1 a power of two); the count formula covers them regardless.
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.family == LINEAR and (self.d % 2 == 0 or self.d < 3):
            raise ValueError("d must be odd and >= 3 for the linear-twist family")
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c == 0:
            raise ValueError("c must be nonzero")

    @property
    def genus(self) -> int:
        return (self.d - 1) // 2

    def equation(self) -> str:
        head = "x" if self.d == 1 else f"x^{self.d}"
        tail = "c*x" if self.family == LINEAR else "c"
        return f"y^2 = {head} + {tail}"

    def label(self) -> str:
        head = "x" if self.d == 1 else f"x^{self.d}"
        c = self.c
        if self.family == LINEAR:
            tail = "x" if c == 1 else f"{c}*x"
        else:
            tail = f"{c}"
        return f"y^2 = {head} + {tail}".replace("+ -", "- ")


def curve(family: str, d: int, c=1) -> CurveSpec:
    return CurveSpec(family=family, d=d, c=Fraction(c))


@dataclass(frozen=True)
class Contribution:
    """One contributing column: source index (m, or odd t) and exponent a."""

    index: int
    exponent: int


@dataclass(frozen=True)
class ContributionSet:
    family: str
    p: int
    d: int
    entries: tuple[Contribution, ...]

    @property
    def exponents(self) -> list[int]:
        return [e.exponent for e in self.entries]

    def __len__(self):
        return len(self.entries)


def contributing_ms(p: int, d: int, family: str) -> ContributionSet:
    """Exact index set of characters entering the point-count formula.

    Additive family: all m with a = m(p-1)/d integral and in [1, p-2],
    i.e. a runs over the multiples of (p-1)/gcd(d, p-1).  Linear twist:
    odd t in [1, 2(d-1)-1] with 2(d-1) | t(p-1).  The [1, p-2] window is
    what keeps small primes correct without any special-casing.
    """
    n = p - 1
    entries = []
    if family == ADDITIVE:
        e = math.gcd(d, n)
        step = n // e
        for j in range(1, e):
            a = j * step
            entries.append(Contribution(index=j * d // e, exponent=a))
    elif family == LINEAR:
        mod = 2 * (d - 1)
        for t in range(1, mod, 2):
            if (t * n) % mod == 0:
                entries.append(Contribution(index=t, exponent=t * n // mod))
    else:
        raise ValueError(f"unknown family {family!r}")
    entries.sort(key=lambda x: x.exponent)
    return ContributionSet(family=family, p=p, d=d, entries=tuple(entries))


def good_reduction(p: int, spec: CurveSpec) -> bool:
    """True when the reduced affine curve is smooth and c is a unit mod p.

    Additive family: x^d + c has repeated roots exactly when p | 2*d*c.
    Linear twist: x^d + c*x factors as x*(x^(d-1) + c), which is separable
    unless p | 2*(d-1)*c; p | d is harmless there.
    """
    degree = spec.d if spec.family == ADDITIVE else spec.d - 1
    return (2 * degree * spec.c.numerator * spec.c.denominator) % p != 0


def points_at_infinity(spec: CurveSpec) -> int:
    """Rational points at infinity of the smooth projective model.

    The leading term of both families is x^d with coefficient 1, a square,
    so even d gives the two points where y/x^(d/2) = +-1, odd d gives one.
    """
    return 2 if spec.d % 2 == 0 else 1


def twist_exponent(fld: PrimeField, a: int, cp: int) -> int:
    """k with T^a(-c) * phi(c) = zeta^k, zeta generating the field of J(T^a, phi).

    cp is c reduced mod p, and nonzero.  The twist is zeta_{p-1}^shift with
    shift = a*dlog(-c) + ((p-1)/2)*dlog(c), a multiple of g = gcd(a, (p-1)/2),
    and J(T^a, phi) lies in Q(zeta_{(p-1)/g}), so k = shift/g.
    """
    n = fld.n
    half = n // 2
    shift = (a * fld.dlog_of(-cp) + half * fld.dlog_of(cp)) % n
    return shift // math.gcd(a, half)


def count_formula(fld: PrimeField, spec: CurveSpec) -> int:
    """Closed-form point count of the smooth projective model via Jacobi sums.

    Every contributing column is summed, including the quadratic column of
    even d, which contributes -1 identically.
    """
    p = fld.p
    if not good_reduction(p, spec):
        raise BadReductionError(f"{p} divides 2*d*c for {spec.label()}")
    cp = fld.reduce(spec.c)
    terms = []
    for col in contributing_ms(p, spec.d, spec.family).entries:
        j = jacobi_sum_compact(fld, col.exponent, fld.n // 2)
        terms.append(CycloElt.zeta_pow(j.n, twist_exponent(fld, col.exponent, cp)) * j)
    conductor = conductor_join([t.n for t in terms])
    total = CycloElt.zero(conductor)
    for t in terms:
        total = total + t.lift(conductor)
    if not total.is_rational():
        raise NonIntegerResultError(
            f"character sum for {spec.label()} at p={p} did not reduce to Q"
        )
    value = total.rational_value()
    if value.denominator != 1:
        raise NonIntegerResultError(
            f"character sum for {spec.label()} at p={p} is not an integer"
        )
    return p + points_at_infinity(spec) + int(value)


def count_bruteforce(fld: PrimeField, spec: CurveSpec) -> int:
    """Oracle: direct enumeration of affine solutions, plus the points at infinity."""
    cp = fld.reduce(spec.c)
    affine = _accel.affine_count(fld.p, spec.d, cp, spec.family == LINEAR)
    return affine + points_at_infinity(spec)


@dataclass(frozen=True)
class TraceSample:
    p: int
    count: int
    t_p: int
    x_p: float


def congruence_modulus(spec: CurveSpec) -> int:
    """Modulus that controls the contributing set (splitting behaviour of p)."""
    if spec.family == ADDITIVE:
        return math.lcm(2, spec.d)
    return 2 * (spec.d - 1)


def _sample(fld: PrimeField, spec: CurveSpec) -> TraceSample:
    # the count is on the smooth model, so t_p is the Frobenius trace of the
    # Jacobian and |t_p| <= 2g*sqrt(p) for every d (e.g. y^2=x^6+1 at p=103
    # gives t_p = 40, just inside the genus-2 bound 40.596)
    cnt = count_formula(fld, spec)
    t = fld.p + 1 - cnt
    return TraceSample(p=fld.p, count=cnt, t_p=t, x_p=t / math.sqrt(fld.p))


def _sweep_worker(args) -> TraceSample:
    family, d, c_str, p = args
    spec = CurveSpec(family=family, d=d, c=Fraction(c_str))
    return _sample(make_field(p), spec)


@dataclass(frozen=True)
class SweepResult:
    spec: CurveSpec
    samples: tuple[TraceSample, ...]
    moments: dict
    class_counts: dict


def trace_sweep(
    spec: CurveSpec, p_min: int, p_max: int, workers: int = 1
) -> SweepResult:
    """Trace-of-Frobenius samples over all good odd primes in [p_min, p_max].

    Each prime is independent; with workers > 1 the sweep fans out over a
    process pool and the results are merged back in prime order.  workers
    must lie in [1, os.cpu_count()].
    """
    if p_min > p_max:
        raise ValueError("p_min must not exceed p_max")
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"workers must be between 1 and {cpus}, got {workers}")
    primes = [p for p in prime_range(max(3, p_min), p_max) if good_reduction(p, spec)]
    if workers > 1 and len(primes) > 1:
        tasks = [(spec.family, spec.d, str(spec.c), p) for p in primes]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            samples = list(pool.map(_sweep_worker, tasks, chunksize=8))
    else:
        samples = [_sample(make_field(p), spec) for p in primes]
    xs = [s.x_p for s in samples]
    count = len(xs)
    moments = {
        "n_samples": count,
        "mean": sum(xs) / count if count else 0.0,
        "m2": sum(x**2 for x in xs) / count if count else 0.0,
        "m4": sum(x**4 for x in xs) / count if count else 0.0,
        "m6": sum(x**6 for x in xs) / count if count else 0.0,
    }
    mod = congruence_modulus(spec)
    class_counts: dict[int, int] = {}
    for s in samples:
        cls = s.p % mod
        class_counts[cls] = class_counts.get(cls, 0) + 1
    return SweepResult(
        spec=spec,
        samples=tuple(samples),
        moments=moments,
        class_counts=class_counts,
    )
