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
``trace_sweep`` reads t_p from the Hasse-Witt residue t_p mod p and the
parity of t_p instead (``hasse_witt_traces``), at every good prime: the
parity follows from the number of roots of f in F_p, and t_p mod 2p fixes
t_p in its interval of 2p + 1 integers but at the two ends, where the
quadratic character of c picks.  The
residue is a sum of binomials C(h, j) mod p, h = (p-1)/2, each read by
duplication as C(-1/2, r) = (-1)^r (2r)! / (4^r (r!)^2), r = min(j, h-j),
so that the terms j and h - j share it.  The sum is assembled one residue
class of p - 1 at a time in int64 arrays, with every r! and (2r)! of the
sweep taken from one accumulating remainder tree over bundles of nearby
requests (the trivial term C(h, h) = 1 takes none), every power from one
vectorised square-and-multiply, no dlog table and no cyclotomic
arithmetic.  The samples, moments and class counts are read off int64
columns.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import _accel
from .charsums import conductor, jacobi_sum_compact
from .cyclo import CycloElt
from .errors import BadReductionError, NonIntegerResultError, NotPrimeError
# make_field is not called here; perfbench's tracer rebinds pointcount.make_field
from .ffield import P_MAX, PrimeField, check_p_max, check_prime, make_field, reduce_mod
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
        if not hasattr(type(self.d), "__index__"):
            raise ValueError(f"d must be an integer, got {self.d!r}")
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

    def to_dict(self) -> dict:
        return {"family": self.family, "d": self.d, "c": str(self.c), "genus": self.genus}


def curve(family: str, d: int, c=1) -> CurveSpec:
    return CurveSpec(family=family, d=d, c=Fraction(c))


def index_modulus(family: str, d: int) -> int:
    """k with column exponents a = i(p-1)/k: d (additive), 2(d-1) (linear).

    The column index i = a*k/(p-1) is what the reference tables print.
    """
    if family == ADDITIVE:
        return d
    if family == LINEAR:
        return 2 * (d - 1)
    raise ValueError(f"unknown family {family!r}")


def contributing_ms(p: int, d: int, family: str) -> tuple[int, ...]:
    """Ascending exponents a of the characters entering the point-count formula.

    The exponents are a = i(p-1)/k, k = ``index_modulus``, integral and in
    [1, p-2]: the multiples of step = (p-1)/gcd(k, p-1).  The linear twist
    keeps only odd i, i.e. every other multiple, and none when k/gcd(k, p-1)
    is even.  The [1, p-2] window is what keeps small primes correct without
    any special-casing; ascending a means descending character order.
    """
    n = p - 1
    k = index_modulus(family, d)
    e = math.gcd(k, n)
    step = n // e
    if family == ADDITIVE:
        return tuple(range(step, n, step))
    # a = j*step has index j*k/e, odd exactly when j and k/e both are
    return tuple(range(step, n, 2 * step)) if (k // e) % 2 else ()


def good_reduction(p: int, spec: CurveSpec) -> bool:
    """True when the reduced affine curve is smooth and c is a unit mod p.

    Additive family: x^d + c has repeated roots exactly when p | 2*d*c.
    Linear twist: x^d + c*x factors as x*(x^(d-1) + c), which is separable
    unless p | 2*(d-1)*c; p | d is harmless there.
    """
    return math.prod(_bad_reduction_factors(spec)) % p != 0


def _bad_reduction_factors(spec: CurveSpec) -> tuple[int, int, int]:
    """2 * degree, num(c) and den(c): the primes of bad reduction divide their product."""
    degree = spec.d if spec.family == ADDITIVE else spec.d - 1
    return 2 * degree, spec.c.numerator, spec.c.denominator


def good_primes(spec: CurveSpec, p_min: int, p_max: int) -> list[int]:
    """Odd primes of good reduction in [p_min, p_max], ascending.

    p_max is checked against P_MAX before the sieve is allocated.
    """
    check_p_max(p_max)
    if p_min > p_max:
        raise ValueError("p_min must not exceed p_max")
    bad = math.prod(_bad_reduction_factors(spec))
    return [p for p in prime_range(max(3, p_min), p_max) if bad % p]


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
    and J(T^a, phi) lies in Q(zeta_N), N = (p-1)/g = ``conductor(fld, a)``,
    so k = shift/g.  Mod p - 1, a*dlog(-c) depends only on dlog(-c) mod
    ord T^a and the second term only on the parity of dlog(c), so both logs
    are read modulo N = lcm(2, ord T^a), through ``PrimeField.dlog``.
    """
    n = fld.n
    N = conductor(fld, a)
    shift = (a * fld.dlog(fld.p - cp, N) + n // 2 * fld.dlog(cp, N)) % n
    return shift // (n // N)


def count_formula(fld: PrimeField, spec: CurveSpec) -> int:
    """Closed-form point count of the smooth projective model via Jacobi sums.

    Every contributing column is summed, including the quadratic column of
    even d, which contributes -1 identically.
    """
    p = fld.p
    _check_residue_prime(p, spec)
    cp = reduce_mod(spec.c, fld.p)
    terms = [
        jacobi_sum_compact(fld, a, twist_exponent(fld, a, cp))
        for a in contributing_ms(p, spec.d, spec.family)
    ]
    L = math.lcm(*(t.n for t in terms))
    total = CycloElt.zero(L)
    for t in terms:
        total = total + t.lift(L)
    if not total.is_rational():
        raise NonIntegerResultError(
            f"character sum for {spec.label()} at p={p} did not reduce to Q"
        )
    return p + points_at_infinity(spec) + total.integer_value()


def count_bruteforce(fld: PrimeField, spec: CurveSpec) -> int:
    """Oracle: direct enumeration of affine solutions, plus the points at infinity."""
    cp = reduce_mod(spec.c, fld.p)
    affine = _accel.affine_count(fld.p, spec.d, cp, spec.family == LINEAR)
    return affine + points_at_infinity(spec)


class TraceSample(NamedTuple):
    """One prime of a sweep: the smooth-model count, t_p and t_p / sqrt(p)."""

    p: int
    count: int
    t_p: int
    x_p: float


def congruence_modulus(spec: CurveSpec) -> int:
    """Modulus that controls the contributing set (splitting behaviour of p)."""
    return math.lcm(2, index_modulus(spec.family, spec.d))


def is_generic_prime(p: int, spec: CurveSpec) -> bool:
    """True when p = 1 mod ``congruence_modulus``.

    These are exactly the primes at which all 2*genus carry columns are
    present (``stmatrix.st_columns``).
    """
    return p % congruence_modulus(spec) == 1


_HALF = Fraction(1, 2)


def hasse_witt_traces(primes: list[int], spec: CurveSpec) -> list[int]:
    """Frobenius traces t_p from the Hasse-Witt residue and the parity of t_p,
    for good odd primes p.

    ``primes`` must be odd primes, as a sieve gives them, in any order and
    with repeats allowed: primality is not tested here (``trace_hasse_witt``
    tests its one p).  The primes are checked in arrays, and the first p in
    input order that fails a check raises, its checks taken in the order
    good reduction (``BadReductionError``), p <= P_MAX
    (``_check_residue_primes``).

    With h = (p-1)/2, chi(f(x)) = f(x)^h mod p, and x^k sums to -1 over F_p
    when 0 < k and (p-1) | k, else to 0.  Expanding f^h binomially gives
    t_p = 1 - (points at infinity) + sum_j C(h, j) c^(h-j) (mod p), j over
    1 <= j <= h with (p-1) | d*j (additive) or (p-1) | (d-1)*j + h (linear):
    the column exponents a <= h of ``contributing_ms`` (Manin 1961; Yui,
    J. Algebra 1978; Harvey-Sutherland 2014).

    The parity of t_p lifts that residue to one mod 2p.  The affine points
    with y != 0 come in pairs (x, +-y), so #C~(F_p) = z + (points at
    infinity) (mod 2), z the number of roots of f in F_p, and p + 1 is
    even, so t_p = z + (points at infinity) (mod 2).  For the linear family
    (the root 0, the roots of x^(d-1) = -c in pairs +-x, one point at
    infinity) and for even d (roots in pairs +-x, two points at infinity)
    t_p is even.  For odd additive d, x^d = -c has e = gcd(d, p-1) roots,
    e odd, when (-c)^((p-1)/e) = 1 and none otherwise, so
    t_p = 1 + [(-c)^((p-1)/e) = 1] (mod 2), even whenever e = 1.  With s the
    residue in [0, p), t0 is whichever of s and s - p has that parity.

    That fixes t_p but in one class, at every good p and with no Weil
    bound.  Each x gives 0, 1 or 2 affine points, so t_p lies in
    [top - 2p, top], top = p + 1 - (points at infinity): its 2p + 1
    integers hold t0 and each class mod 2p once but that of top twice, and
    t_p = t0 unless t0 = top (mod 2p).  An end means no affine point (top)
    or two at every x (top - 2p).  x = 0 gives one point for the linear
    family, so it never meets an end; for the additive family it gives two
    when c is a square, phi(c) = c^h = 1 mod p, and none otherwise
    (x^6 + 1 at p = 7 gives -8, x^6 + 5 at p = 7 gives 6).

    The binomials come by duplication.  C(h, j) = C(h, h-j), so the terms j
    and h - j share C(h, r), r = min(j, h-j) <= h/2.  And 2h = p - 1, so
    h = -1/2 (mod p) and
        C(h, r) = C(-1/2, r) = (-1)^r (2r)! / (4^r (r!)^2) (mod p):
    each binomial asks for r! and (2r)!, both at most h, and one Fermat
    inverse of (r!)^2.  Its 4^-r needs no power of its own: by Fermat
    4^h = 2^(p-1) = 1, so 4^-r c^(h-j) is (4c)^(h-j) when r = j and
    (c/4)^(h-j) when r = h - j, 1/4 = ((p+1)/2)^2, and the factor joins the
    base of c's power.

    The primes are taken one residue class at a time: every p with
    gcd(k, p-1) = e, k = ``index_modulus``, has its j at the same fractions
    m/e of p - 1, so each distinct x in {r, 2r} is one int64 array over the
    class.  The term j = h is C(h, h) c^0 = 1 and requests no factorial, so
    neither does a class whose only j is h.  Every x! mod p of the batch
    comes from one ``_accel.prefix_factorials`` call on int64 arrays, and
    every power from one ``_accel.pow_mod`` call: the inverses of (r!)^2 by
    Fermat, each checked (``_check_inverses``), (4^+-1 c)^(h-j) and the
    parity power (-c)^k; c enters only as c mod p, at three gathers: the
    terms' bases, the parity powers and phi(c) at the ends.  A batch with
    no term runs the same passes on empty arrays.  The binomial sum is a
    few int64 passes (p < 2^31, so a product of two residues is below 2^62).
    """
    ps, c = _check_residue_primes(primes, spec)
    n = ps - 1
    total = np.full(len(ps), 1 - points_at_infinity(spec), dtype=np.int64)
    # requests: one block of (x, p) over a class per fraction of p - 1;
    # binomials: block positions of r and 2r per distinct r;
    # terms: (primes, block positions of r, h - j) per j < h
    empty = ps[:0]
    xs, mods, binomials, terms, size = [empty], [empty], [(empty,) * 2], [(empty,) * 3], 0
    classes = np.gcd(n, index_modulus(spec.family, spec.d))
    for e in set(classes.tolist()):
        idx = np.flatnonzero(classes == e)
        p = primes[idx[0]]
        step = (p - 1) // e
        ms = [a // step for a in contributing_ms(p, spec.d, spec.family) if 2 * a <= p - 1]
        js = [Fraction(m, e) for m in ms if 2 * m < e]
        total[idx] += len(ms) - len(js)  # the term j = h
        rs = {min(j, _HALF - j) for j in js}
        at = {}
        for f in rs | {2 * r for r in rs}:
            at[f] = np.arange(size, size + len(idx))
            xs.append(_part(n[idx], f))
            mods.append(ps[idx])
            size += len(idx)
        binomials += [(at[r], at[2 * r]) for r in rs]
        terms += [(idx, at[min(j, _HALF - j)], _part(n[idx], _HALF - j)) for j in js]
    x, xmod = np.concatenate(xs), np.concatenate(mods)
    order = np.argsort(x, kind="stable")
    fact = np.empty_like(x)
    fact[order] = _accel.prefix_factorials(x[order], xmod[order])
    at_r, at_2r = (np.concatenate(b) for b in zip(*binomials))
    mr = xmod[at_r]
    square = fact[at_r] * fact[at_r] % mr
    owner, at_t, hj = (np.concatenate(t) for t in zip(*terms))
    m = ps[owner]
    # 4^-r c^(h-j): (c/4)^(h-j) where r = h - j, else (4c)^(h-j)
    half = (m + 1) // 2
    base = c[owner] * np.where(x[at_t] == hj, half * half % m, 4) % m
    # odd additive d: the primes whose parity asks whether -c is an e-th power
    odd = np.flatnonzero(classes > 1) if spec.family == ADDITIVE and spec.d % 2 else empty
    mo = ps[odd]
    # one pow_mod for the batch: the Fermat inverses, (4^+-1 c)^(h-j) and (-c)^k
    power = _accel.pow_mod(
        np.concatenate([square, base, -c[odd] % mo]),
        np.concatenate([mr - 2, hj, n[odd] // classes[odd]]),
        np.concatenate([mr, m, mo]),
    )
    inv, cpow, odd_power = np.split(power, [len(mr), len(mr) + len(m)])
    _check_inverses(square, inv, mr)
    # C(h, r) at the block position of r, with the sign (-1)^r
    binom = np.empty_like(x)
    b = fact[at_2r] * inv % mr
    binom[at_r] = np.where(x[at_r] % 2, mr - b, b)
    np.add.at(total, owner, binom[at_t] * cpow % m)
    parity = np.zeros(len(ps), dtype=np.int64)
    parity[odd] = odd_power != 1
    s = total % ps
    t = np.where(s % 2 == parity, s, s - ps)
    # the ends of [top - 2p, top], never met by the linear family: phi(c) picks
    top = ps + 1 - points_at_infinity(spec)
    ends = np.flatnonzero((top - t) % (2 * ps) == 0)
    m = ps[ends]
    t[ends] = top[ends] - 2 * m * (_accel.pow_mod(c[ends], n[ends] // 2, m) == 1)
    return t.tolist()


def _part(n: np.ndarray, f: Fraction) -> np.ndarray:
    """n * f for a fraction f whose denominator divides every n."""
    return n * f.numerator // f.denominator


def _check_residue_primes(primes: list[int], spec: CurveSpec) -> tuple[np.ndarray, np.ndarray]:
    """The primes as an int64 array, with c mod each, once every p passes
    the checks of ``hasse_witt_traces``.

    The checks run in arrays; the first offending p in input order is then
    checked alone, in order.  A p above P_MAX does not fit the arrays, so
    then every p is checked alone, in input order, up to the one that raises.
    Once they pass, a fractional c = num/den takes den^(p-2) as den^-1,
    checked at every p (``_check_inverses``); an integer c takes no power.
    """
    if max(primes, default=0) > P_MAX:
        for p in primes:
            _check_residue_prime(p, spec)
    ps = np.array(primes, dtype=np.int64)
    double_degree, numerator, denominator = _bad_reduction_factors(spec)
    num, den = _residues(numerator, ps), _residues(denominator, ps)
    failed = _residues(double_degree, ps) * num % ps * den % ps == 0
    if failed.any():
        _check_residue_prime(primes[failed.argmax()], spec)
    if denominator == 1:
        return ps, num
    inv = _accel.pow_mod(den, ps - 2, ps)
    _check_inverses(den, inv, ps)
    return ps, num * inv % ps


def _check_residue_prime(p: int, spec: CurveSpec) -> None:
    if not good_reduction(p, spec):
        raise BadReductionError(f"{p} divides 2*d*c for {spec.label()}")
    check_p_max(p)


def _residues(x: int, ps: np.ndarray) -> np.ndarray:
    """x mod p for each p of an int64 array, in [0, p); through Python ints
    when |x| reaches 2^62, which int64 cannot hold."""
    if abs(x) < 2**62:
        return x % ps
    return np.array([x % p for p in ps.tolist()], dtype=np.int64)


def _check_inverses(a: np.ndarray, inv: np.ndarray, mods: np.ndarray) -> None:
    """Check inv = a^(m-2) as a^-1 mod m elementwise (Fermat).

    A failed check means that m is not prime (a factor of m divides a, or
    Fermat's little theorem fails), and raises NotPrimeError rather than
    give a wrong trace.
    """
    failed = a * inv % mods != 1
    if failed.any():
        raise NotPrimeError(f"p must be an odd prime, got {int(mods[failed].min())}")


def trace_hasse_witt(p: int, spec: CurveSpec) -> int:
    """t_p at one good odd prime p; see ``hasse_witt_traces``."""
    check_prime(p)
    return hasse_witt_traces([p], spec)[0]


def _blocks_of_equal_sum(primes: list[int], count: int) -> list[list[int]]:
    """At most ``count`` nonempty contiguous blocks of ascending primes with
    about equal sums of p.

    A prime's share of the remainder tree grows with p, so blocks of equal
    count would leave the block of the largest primes the slowest.
    """
    cum = list(itertools.accumulate(primes))
    cuts = [bisect.bisect_left(cum, cum[-1] * i // count) for i in range(1, count)]
    return [b for b in (primes[s:t] for s, t in itertools.pairwise([0, *cuts, len(primes)])) if b]


@dataclass(frozen=True)
class SweepResult:
    spec: CurveSpec
    samples: tuple[TraceSample, ...]
    moments: dict
    class_counts: dict


def trace_sweep(
    spec: CurveSpec, p_min: int, p_max: int, workers: int = 1
) -> SweepResult:
    """Trace-of-Frobenius samples over ``good_primes(spec, p_min, p_max)``.

    The primes take one ``hasse_witt_traces`` batch, which needs no field
    and no Weil bound.  With workers > 1 each worker of a process pool
    takes one contiguous block of the primes, the blocks cut at
    about equal sums of p (``_blocks_of_equal_sum``); the pool is imported
    only then.  workers must lie in [1, os.cpu_count()].
    """
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"workers must be between 1 and {cpus}, got {workers}")
    primes = good_primes(spec, p_min, p_max)
    if workers > 1 and len(primes) > 1:
        from concurrent.futures import ProcessPoolExecutor

        blocks = _blocks_of_equal_sum(primes, workers)
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            batches = pool.map(hasse_witt_traces, blocks, [spec] * len(blocks))
            traces = list(itertools.chain.from_iterable(batches))
    else:
        traces = hasse_witt_traces(primes, spec)
    # the count is on the smooth model, so t_p is the Frobenius trace of the
    # Jacobian and |t_p| <= 2g*sqrt(p) for every d (e.g. y^2=x^6+1 at p=103
    # gives t_p = 40, just inside the genus-2 bound 40.596).  The columns are
    # int64 arrays: x_p = t_p / sqrt(p) is one correctly rounded division by a
    # correctly rounded square root, as in Python, and the moments are the
    # same C pow summed in the same order.
    ps, ts = np.array(primes, dtype=np.int64), np.array(traces, dtype=np.int64)
    xs = (ts / np.sqrt(ps)).tolist()
    count = len(xs)
    moments = {
        "n_samples": count,
        "mean": sum(xs) / count if count else 0.0,
        **{f"m{k}": sum(map(pow, xs, itertools.repeat(k))) / count if count else 0.0
           for k in (2, 4, 6)},
    }
    # classes in order of their first prime, as a dict filled along the sweep
    classes, first, sizes = np.unique(
        ps % congruence_modulus(spec), return_index=True, return_counts=True
    )
    order = np.argsort(first)
    return SweepResult(
        spec=spec,
        samples=tuple(map(TraceSample._make, zip(primes, (ps + 1 - ts).tolist(), traces, xs))),
        moments=moments,
        class_counts=dict(zip(classes[order].tolist(), sizes[order].tolist())),
    )
