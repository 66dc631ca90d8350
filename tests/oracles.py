"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: the ring
element is a sparse map to Fractions instead of an integer numerator over
one denominator, factorization is done by Kronecker interpolation and trial
division instead of the modular factorizer, or by sympy's
`Poly.factor_list` on the whole polynomial instead of the cyclotomic
pre-pass and `ialex.zfactor` on the cofactor, text is read by a `finditer`
scan that sums terms in a dict instead of the dense build of
`laurent.parse`, gcds by rational Euclid or by
sympy's `dup_gcd` instead of the integer heuristic GCD, Euclid over GF(p)
runs on lists of residues instead of packed integers, invariant factors
come from gcds of minors instead of elimination, ranks come from plain
fraction Gaussian elimination, and twisted homology is cut out of
stalk-valued chains by kernels and solves instead of universal
coefficients, or read off the Smith form of every full boundary, or of
the boundaries left after contracting a spanning forest of the
1-skeleton, instead of one coreduction pass.  Those kernels and solves come
from a transform-tracking Smith form of their own, independent of the
library's elimination, that divides by `laurent_divmod`, rational long
division on dense Fraction lists rather than the library's integer
pseudo-division.  The module-valued Kunneth sum, built from the canonical
modules of `tensor` and `tor` by `direct_sum`, and the per-degree
enumerator `per_degree_kunneth_summands`, which takes each gcd once for its
tensor and once more for its Tor term, cross-check the one-pass table of
free ranks and cyclic orders of `gmodule.kunneth_summands`, from which the
library also takes universal coefficients.  The windowed order, one product
per factor, `kunneth_order` on the per-degree enumerator, and the two-pass
`ia_product` with a `divides` test before each quotient cross-check the
orders `engine.ia_product` multiplies from that table, and
`factor_check_result` factors the whole polynomial where
`bounds.check_result` divides out the allowed primes.  `heap_diagonalise`,
the heap-ordered elimination with a column index that the library's pivot
scan replaced, pins the pivots of that scan.  `transport` reads an oriented
edge's unit off a complex's monodromy for the boundaries built here.  Slow
is fine; these only ever see small inputs.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import re
from fractions import Fraction
from math import gcd as int_gcd, isqrt, prod

from ialex.engine import DivisibilityViolation
from ialex.gmodule import (
    FgGammaModule,
    GammaMatrix,
    NotTorsion,
    smith_normal_form,
)
from ialex.laurent import (
    DEFAULT_DEGREE_CAP,
    LaurentPoly,
    _ZERO,
    _from_terms,
    _poly_divmod,
    _unit_quotient,
    as_laurent,
    divides,
    exact_quotient,
    factor,
    gcd,
    involute,
    normalize,
)

# -- the dict-of-Fraction ring element ----------------------------------------


class DictLaurent:
    """An element of Q[t, t^-1] as a sparse exponent-to-Fraction map.

    A frozen copy of the ring element the library used before it moved to
    one integer numerator over one denominator; every operation here works
    term by term on Fractions, so it shares no arithmetic with
    `laurent.LaurentPoly`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        data: dict[int, Fraction] = {}
        for exp, coeff in items:
            if isinstance(coeff, float):
                raise TypeError("floating point coefficients are not allowed")
            c = Fraction(coeff)
            if c:
                data[exp] = data.get(exp, Fraction(0)) + c
                if not data[exp]:
                    del data[exp]
        self._terms = data

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_unit(self) -> bool:
        return len(self._terms) == 1

    @property
    def min_exp(self) -> int:
        return min(self._terms)

    @property
    def max_exp(self) -> int:
        return max(self._terms)

    @property
    def span(self) -> int:
        return self.max_exp - self.min_exp

    def coeff(self, exp: int) -> Fraction:
        return self._terms.get(exp, Fraction(0))

    def items(self) -> list[tuple[int, Fraction]]:
        return sorted(self._terms.items())

    def __add__(self, other: "DictLaurent") -> "DictLaurent":
        data = dict(self._terms)
        for e, c in other._terms.items():
            data[e] = data.get(e, Fraction(0)) + c
        return DictLaurent(data)

    def __neg__(self) -> "DictLaurent":
        return DictLaurent({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "DictLaurent") -> "DictLaurent":
        return self + (-other)

    def __mul__(self, other: "DictLaurent") -> "DictLaurent":
        data: dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                data[e1 + e2] = data.get(e1 + e2, Fraction(0)) + c1 * c2
        return DictLaurent(data)

    def scale(self, value) -> "DictLaurent":
        c = Fraction(value)
        return DictLaurent({e: c * v for e, v in self._terms.items()})

    def shift(self, k: int) -> "DictLaurent":
        return DictLaurent({e + k: c for e, c in self._terms.items()})

    def __pow__(self, n: int) -> "DictLaurent":
        result = DictLaurent({0: 1})
        for _ in range(n):
            result = result * self
        return result

    def involute(self) -> "DictLaurent":
        return DictLaurent({-e: c for e, c in self._terms.items()})

    def inverse(self) -> "DictLaurent":
        ((exp, coeff),) = self._terms.items()
        return DictLaurent({-exp: 1 / coeff})

    def normalize(self) -> tuple[int, ...]:
        """The coefficients of the primitive representative."""
        lo = self.min_exp
        coeffs = [self.coeff(e) for e in range(lo, self.max_exp + 1)]
        denom = 1
        for c in coeffs:
            denom = denom * c.denominator // int_gcd(denom, c.denominator)
        ints = [int(c * denom) for c in coeffs]
        content = int_gcd(*ints)
        if ints[-1] < 0:
            content = -content
        return tuple(c // content for c in ints)

    def __eq__(self, other) -> bool:
        return isinstance(other, DictLaurent) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        items = sorted(self._terms.items(), reverse=True)
        if not items:
            return "0"
        parts: list[str] = []
        for i, (exp, coeff) in enumerate(items):
            neg = coeff < 0
            mag = -coeff if neg else coeff
            if exp == 0:
                body = str(mag)
            else:
                tpart = "t" if exp == 1 else f"t^{exp}"
                body = tpart if mag == 1 else f"{mag}*{tpart}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)


# -- the reference parser ----------------------------------------------------

_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?)
    (?:
        (?P<coef>[0-9]+(?:/[0-9]+)?)(?:\*?(?P<tc>t(?:\^(?P<expc>-?[0-9]+))?))?
      | (?P<tv>t(?:\^(?P<expv>-?[0-9]+))?)
    )
    """,
    re.VERBOSE,
)


def scan_parse(text: str) -> LaurentPoly:
    """`laurent.parse` as it read text before it built the dense tuple
    itself: one `finditer` scan collects every term, and a dict of integer
    sums over the lcm of the denominators goes to `_from_terms`."""
    compact = "".join(text.split()).replace("−", "-")
    if not compact:
        raise ValueError("empty polynomial text")
    parsed: list[tuple[int, int, int]] = []  # (exponent, numerator, denominator)
    pos, den = 0, 1
    # the leftmost match from pos starts at pos exactly when a term does
    for m in _TERM_RE.finditer(compact):
        if m.start() != pos:
            break
        sign, coef, tc, expc, tv, expv = m.groups()
        if pos and not sign:
            raise ValueError(f"missing operator before {compact[pos:]!r}")
        if coef is None:
            c, d = 1, 1
        elif "/" in coef:
            c_text, _, d_text = coef.partition("/")
            c, d = int(c_text), int(d_text)
            if not d:
                raise ValueError(f"zero denominator in {coef!r}")
            den = math.lcm(den, d)
        else:
            c, d = int(coef), 1
        exp = expc or expv
        e = int(exp) if exp else (1 if tc or tv else 0)
        parsed.append((e, -c if sign == "-" else c, d))
        pos = m.end()
    if pos < len(compact):
        raise ValueError(f"cannot parse polynomial at {compact[pos:]!r}")
    terms: dict[int, int] = {}
    for e, c, d in parsed:
        if c:
            total = terms.get(e, 0) + c * (den // d)
            if total:
                terms[e] = total
            else:
                del terms[e]
    return _from_terms(terms, den)


# -- dense polynomial helpers (coefficients indexed by exponent) ----------


def dense_divmod(a: list[Fraction], b: list[Fraction]):
    """Long division of dense coefficient lists, lowest exponent first."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = a[:]
    for i in range(len(a) - len(b), -1, -1):
        if len(r) >= i + len(b) and r[i + len(b) - 1]:
            f = r[i + len(b) - 1] / b[-1]
            q[i] = f
            for j, bc in enumerate(b):
                r[i + j] -= f * bc
    while r and not r[-1]:
        r.pop()
    return q, r


def dense_divides(d: list, p: list) -> bool:
    _, r = dense_divmod([Fraction(c) for c in p], [Fraction(c) for c in d])
    return not r


def dense_coeffs(p) -> list[Fraction]:
    """Coefficients from the lowest exponent up; [] for zero."""
    q = as_laurent(p)
    if q.is_zero:
        return []
    coeffs = [Fraction(0)] * (q.degree + 1)
    for e, c in q.items():
        coeffs[e - q.min_exp] = c
    return coeffs


def laurent_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division a = q*b + r in Q[t, t^-1] by `dense_divmod` on the
    coefficient lists, r zero or of smaller degree than b."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return LaurentPoly.zero(), LaurentPoly.zero()
    q, r = dense_divmod(dense_coeffs(a), dense_coeffs(b))
    t_q = LaurentPoly({a.min_exp - b.min_exp: 1})
    t_r = LaurentPoly({a.min_exp: 1})
    return LaurentPoly(enumerate(q)) * t_q, LaurentPoly(enumerate(r)) * t_r


def rational_euclid_gcd(p, q) -> LaurentPoly:
    """gcd by Euclid over Q with Fraction coefficients, then normalized.

    Shares no integer arithmetic with `laurent.gcd`; at least one argument
    must be nonzero.
    """
    a, b = dense_coeffs(p), dense_coeffs(q)
    while b:
        _, r = dense_divmod(a, b)
        a, b = b, r
    return normalize(LaurentPoly(enumerate(a)))


# -- Kronecker factorization (degree at most 6) ---------------------------


def _eval_int(coeffs: list[int], x: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _int_divisors(n: int) -> list[int]:
    """The divisors of n, both signs, by absolute value ascending."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return [s for d in small + large for s in (d, -d)]


def _rational_roots(coeffs: list[int]):
    """All rational roots with multiplicity, stripping them off as found."""
    roots = []
    current = coeffs[:]
    while len(current) > 1:
        found = None
        for p in _int_divisors(current[0]):
            for q in _int_divisors(current[-1]):
                if q <= 0 or int_gcd(abs(p), q) != 1:
                    continue
                r = Fraction(p, q)
                if not sum(Fraction(c) * r**i for i, c in enumerate(current)):
                    found = r
                    break
            if found is not None:
                break
        if found is None:
            return roots, current
        # divide by (q*t - p)
        divisor = [Fraction(-found.numerator), Fraction(found.denominator)]
        quot, rem = dense_divmod([Fraction(c) for c in current], divisor)
        assert not rem
        roots.append(found)
        current = _fractions_to_primitive_ints(quot)
    return roots, current


def _fractions_to_primitive_ints(coeffs: list[Fraction]) -> list[int]:
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // int_gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    content = 0
    for c in ints:
        content = int_gcd(content, abs(c))
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _lagrange_basis(xs: list[int]) -> tuple[list[list[int]], int]:
    """Lagrange basis polynomials of the points xs over one common denominator.

    Returns (numerators, d): the basis polynomial for xs[i] is numerators[i]
    / d, coefficients lowest first, so the polynomial through (xs[i], ys[i])
    has coefficient k equal to sum_i ys[i] * numerators[i][k] / d.
    """
    bases = []
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        for j, xj in enumerate(xs):
            if j == i:
                continue
            # multiply basis by (x - xj) / (xi - xj)
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            basis = [c / (xi - xj) for c in basis]
        bases.append(basis)
    d = 1
    for basis in bases:
        for c in basis:
            d = d * c.denominator // int_gcd(d, c.denominator)
    return [[int(c * d) for c in basis] for basis in bases], d


def _kronecker_divisor(coeffs: list[int], deg: int):
    """Search for a degree-``deg`` integer divisor by value interpolation.

    g and -g divide alike, so the value at x = 0 runs over positive
    divisors only.
    """
    xs = [0, 1, -1, 2, -2, 3][: deg + 1]
    values = [_eval_int(coeffs, x) for x in xs]
    if any(v == 0 for v in values):
        raise AssertionError("rational roots must be stripped first")
    numerators, d = _lagrange_basis(xs)
    choices = [_int_divisors(v) for v in values]
    choices[0] = [y for y in choices[0] if y > 0]
    for combo in itertools.product(*choices):
        scaled = [sum(y * basis[k] for y, basis in zip(combo, numerators))
                  for k in range(deg + 1)]
        if any(c % d for c in scaled):
            continue
        cint = [c // d for c in scaled]
        while cint and cint[-1] == 0:
            cint.pop()
        if len(cint) != deg + 1:
            continue
        if dense_divides(cint, coeffs):
            return _fractions_to_primitive_ints([Fraction(c) for c in cint])
    return None


def _rep(coeffs) -> LaurentPoly:
    """The normal form with these integer coefficients, lowest exponent
    first; they must already be one."""
    p = LaurentPoly(enumerate(coeffs))
    if normalize(p) is not p:
        raise ValueError(f"{p} is not a normal form")
    return p


def kronecker_factor(p) -> tuple:
    """Factor a polynomial of span at most 6 by divisor interpolation.

    Returns the same shape as :func:`ialex.laurent.factor`: a canonically
    sorted tuple of ``(normal form, multiplicity)`` pairs.
    """
    rep = normalize(p)
    if rep.degree > 6:
        raise ValueError("the brute-force oracle is limited to degree 6")
    work = list(rep._num)
    primes: list[LaurentPoly] = []
    while len(work) > 1:
        roots, work = _rational_roots(work)
        for r in roots:
            primes.append(_rep(
                _fractions_to_primitive_ints(
                    [Fraction(-r.numerator), Fraction(r.denominator)])))
        if len(work) <= 1:
            break
        hit = None
        for deg in (2, 3):
            if 2 * deg > len(work) - 1 and deg != len(work) - 1:
                continue
            if deg >= len(work):
                continue
            hit = _kronecker_divisor(work, deg)
            if hit is not None:
                break
        if hit is None:
            # no factor of degree <= 3 and no rational root: irreducible,
            # because a reducible polynomial of degree <= 6 (or 7) always
            # has a factor of degree at most 3
            primes.append(_rep(work))
            break
        primes.append(_rep(hit))
        quot, rem = dense_divmod([Fraction(c) for c in work], [Fraction(c) for c in hit])
        assert not rem
        work = _fractions_to_primitive_ints(quot)
    counted: dict[LaurentPoly, int] = {}
    for q in primes:
        counted[q] = counted.get(q, 0) + 1
    return tuple(sorted(counted.items(), key=lambda kv: kv[0].sort_key()))


def sympy_factor(p) -> tuple:
    """Factor the whole polynomial with sympy's `Poly.factor_list`.

    This is the route `laurent.factor` took before its cyclotomic pre-pass:
    no Phi_n is divided out first.  Same shape as `laurent.factor`.
    """
    import sympy

    rep = normalize(p)
    t = sympy.Symbol("t")
    _, parts = sympy.Poly(rep._num[::-1], t, domain="ZZ").factor_list()
    found = [(normalize(LaurentPoly(enumerate(
        [int(c) for c in reversed(part.all_coeffs())]))), int(mult))
        for part, mult in parts]
    return tuple(sorted(((q, m) for q, m in found if q.degree > 0),
                        key=lambda kv: kv[0].sort_key()))


def factor_check_result(ia_j, allowed, power_bounds=None,
                        degree_cap: int = DEFAULT_DEGREE_CAP) -> dict:
    """`bounds.check_result` by factoring ia_j completely and walking its
    primes in canonical order: the first one not allowed, or over its cap,
    is the violation."""
    allowed_set = {normalize(q) for q in allowed}
    caps = {} if power_bounds is None else {
        normalize(g): int(b) for g, b in dict(power_bounds).items()}
    for prime, mult in factor(ia_j, degree_cap):
        if prime not in allowed_set:
            return {"ok": False, "prime": str(prime),
                    "observed": mult, "allowed": 0}
        cap = caps.get(prime)
        if cap is not None and mult > cap:
            return {"ok": False, "prime": str(prime),
                    "observed": mult, "allowed": cap}
    return {"ok": True}


def sympy_gcd(a, b) -> tuple[int, ...]:
    """gcd in Z[t] of two nonzero integer coefficient tuples (lowest
    exponent first) by sympy's `dup_gcd`: the same contract as
    `zfactor.poly_gcd`, which replaced it."""
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_gcd

    g = dup_gcd([ZZ(c) for c in reversed(a)], [ZZ(c) for c in reversed(b)], ZZ)
    return tuple(int(c) for c in reversed(g))


# -- list Euclid over GF(p) -------------------------------------------------
#
# The Euclid `zfactor._gf_gcd` replaced: one Python pass per coefficient per
# operation on lists of residues, where the library works on packed integers.


def _gf_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def gf_divmod(a: list, b: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of reduced a by reduced nonzero b over GF(p):
    one pass when the quotient is linear, as in nearly every step of
    Euclid's algorithm, else schoolbook long division."""
    inv = pow(b[-1], -1, p)
    if len(a) == len(b) + 1 and len(b) > 1:
        lead = a[-1] * inv % p
        low = (a[-2] - lead * b[-2]) * inv % p
        return [low, lead], _gf_trim([(x - low * y - lead * z) % p
                                      for x, y, z in zip(a, b[:-1], [0, *b])])
    rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv % p
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] = (rem[k + j] - c * y) % p
    return quot, _gf_trim(rem[:len(b) - 1] if quot else rem)


def _gf_sub_product(a: list, q: list, b: list, p: int) -> list:
    """a - q*b over GF(p)."""
    out = list(a) + [0] * max(len(q) + len(b) - 1 - len(a), 0)
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            out[i + j] -= x * y
    return _gf_trim([c % p for c in out])


def gf_gcd(a: list, b: list, p: int) -> list:
    """The monic gcd over GF(p) of reduced polynomials, not both zero."""
    while b:
        a, b = b, gf_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gf_gcdex(a: list, b: list, p: int) -> tuple[list, list]:
    """s and t with s*a + t*b = 1 over GF(p), for coprime a and b, both
    tracked through the list Euclid."""
    r0, r1 = list(a), list(b)
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub_product(s0, q, s1, p)
        t0, t1 = t1, _gf_sub_product(t0, q, t1, p)
    if len(r0) != 1:
        raise RuntimeError("not coprime mod p")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


@functools.cache
def sympy_swinnerton_dyer(n: int) -> LaurentPoly:
    """S_n from `sympy.swinnerton_dyer_poly`: irreducible of degree 2^n,
    with only factors of degree at most 2 modulo every prime."""
    import sympy

    t = sympy.Symbol("t")
    coeffs = sympy.Poly(sympy.swinnerton_dyer_poly(n, t), t).all_coeffs()
    return _rep([int(c) for c in reversed(coeffs)])


def sympy_cyclotomic(n: int) -> LaurentPoly:
    """Phi_n from `sympy.cyclotomic_poly`."""
    import sympy

    t = sympy.Symbol("t")
    coeffs = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()
    return _rep([int(c) for c in reversed(coeffs)])


# -- determinantal-divisor route to invariant factors ----------------------


def laurent_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one()
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 1:
        return rows[0][0]
    total = LaurentPoly.zero()
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * laurent_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def determinantal_invariant_factors(rows: list[list[LaurentPoly]]) -> list[LaurentPoly]:
    """Invariant factors from gcds of k-by-k minors.

    The k-th determinantal divisor d_k is the gcd of all k-by-k minors
    (d_0 = 1); the k-th invariant factor is d_k / d_{k-1}.  The list stops
    at the largest k with a nonzero minor.
    """
    from ialex.laurent import gcd as poly_gcd

    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    divisors: list[LaurentPoly] = []
    for k in range(1, min(nrows, ncols) + 1):
        acc: LaurentPoly | None = None
        for ris in itertools.combinations(range(nrows), k):
            for cjs in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cjs] for i in ris]
                d = laurent_det(sub)
                if d.is_zero:
                    continue
                acc = d if acc is None else poly_gcd(acc, d)
        if acc is None:
            break
        divisors.append(normalize(acc))
    factors: list[LaurentPoly] = []
    prev = LaurentPoly.one()
    for d in divisors:
        factors.append(exact_quotient(d, prev))
        prev = d
    return factors


# -- fraction Gaussian elimination -----------------------------------------


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a rational matrix by straightforward elimination."""
    m = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [c * inv for c in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def simplex_closure(simplices):
    """All nonempty faces of the given simplices, sorted by (dim, vertices)."""
    closure = set()
    for raw in simplices:
        simplex = tuple(sorted(raw))
        for mask in range(1, 1 << len(simplex)):
            closure.add(tuple(v for j, v in enumerate(simplex) if mask >> j & 1))
    return sorted(closure, key=lambda s: (len(s), s))


def first_cocycle_violation(simplices, monodromy):
    """The first triangle, in the order of `simplex_closure`, whose edge
    units do not compose, or None; monodromy maps (u, v) with u < v to a
    unit and absent edges carry 1.  This checks every triangle, as
    `TwistedComplex` did before it skipped those with no twisted edge."""
    def unit(u, v):
        return monodromy.get((u, v), LaurentPoly.one())

    for tri in simplex_closure(simplices):
        if len(tri) == 3:
            u, v, w = tri
            if unit(u, v) * unit(v, w) != unit(u, w):
                return tri
    return None


def untwisted_betti(simplices):
    """Rational Betti numbers of a finite complex from plain boundary ranks."""
    by_dim = {}
    for s in simplex_closure(simplices):
        by_dim.setdefault(len(s) - 1, []).append(s)
    dim = max(by_dim)
    ranks = {}
    for p in range(1, dim + 1):
        index = {s: i for i, s in enumerate(by_dim[p - 1])}
        rows = []
        for s in by_dim[p]:
            row = [Fraction(0)] * len(by_dim[p - 1])
            for j in range(p + 1):
                face = s[:j] + s[j + 1:]
                row[index[face]] = Fraction(-1) ** j
            rows.append(row)
        ranks[p] = fraction_rank(rows)
    return [len(by_dim[p]) - ranks.get(p, 0) - ranks.get(p + 1, 0)
            for p in range(dim + 1)]


# -- transform-tracking Smith form, kernels and solves ------------------------


class _TrackingWorker:
    """Mutable elimination state: S = U * A * V throughout."""

    def __init__(self, m: GammaMatrix):
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        self.s = [list(row) for row in m.entries]
        self.nr, self.nc = m.rows, m.cols
        self.u = [[one if i == j else zero for j in range(self.nr)]
                  for i in range(self.nr)]
        self.v = [[one if i == j else zero for j in range(self.nc)]
                  for i in range(self.nc)]

    def swap_rows(self, a: int, b: int):
        self.s[a], self.s[b] = self.s[b], self.s[a]
        self.u[a], self.u[b] = self.u[b], self.u[a]

    def swap_cols(self, a: int, b: int):
        for row in self.s + self.v:
            row[a], row[b] = row[b], row[a]

    def add_row(self, dst: int, src: int, f: LaurentPoly):
        """row dst += f * row src; zero terms are skipped"""
        if f.is_zero:
            return
        for rows in (self.s, self.u):
            rows[dst] = [a if b.is_zero else a + f * b
                         for a, b in zip(rows[dst], rows[src])]

    def add_col(self, dst: int, src: int, f: LaurentPoly):
        if f.is_zero:
            return
        for row in self.s + self.v:
            if not row[src].is_zero:
                row[dst] = row[dst] + f * row[src]

    def make_primitive(self, i: int):
        """Scale row i by the unit that makes its diagonal entry primitive."""
        value = self.s[i][i]
        rep = normalize(value)
        q, r = laurent_divmod(value, rep)
        if not (r.is_zero and q.is_unit):
            raise RuntimeError(f"{value} is not a unit times {rep}")
        f = q.inverse()
        for rows in (self.s, self.u):
            rows[i] = [a if a.is_zero else f * a for a in rows[i]]


def _tracking_eliminate(w: _TrackingWorker) -> None:
    """Diagonalize densely with Euclidean pivoting, no unit pre-pass."""
    k = 0
    while k < min(w.nr, w.nc):
        best = None
        for i in range(k, w.nr):
            for j in range(k, w.nc):
                e = w.s[i][j]
                if not e.is_zero and (best is None or e.degree < best[0]):
                    best = (e.degree, i, j)
        if best is None:
            break
        w.swap_rows(k, best[1])
        w.swap_cols(k, best[2])
        moved = True
        while moved:
            w.make_primitive(k)
            moved = False
            for i in range(w.nr):
                if i != k and not w.s[i][k].is_zero:
                    q, r = laurent_divmod(w.s[i][k], w.s[k][k])
                    w.add_row(i, k, -q)
                    if not r.is_zero:
                        w.swap_rows(i, k)
                        moved = True
                        break
            if moved:
                continue
            for j in range(w.nc):
                if j != k and not w.s[k][j].is_zero:
                    q, r = laurent_divmod(w.s[k][j], w.s[k][k])
                    w.add_col(j, k, -q)
                    if not r.is_zero:
                        w.swap_cols(j, k)
                        moved = True
                        break
        k += 1
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            if not divides(w.s[i][i], w.s[i + 1][i + 1]):
                w.add_row(i, i + 1, LaurentPoly.one())
                while True:
                    w.make_primitive(i)
                    q, _ = laurent_divmod(w.s[i][i + 1], w.s[i][i])
                    w.add_col(i + 1, i, -q)
                    if w.s[i][i + 1].is_zero:
                        break
                    w.swap_cols(i, i + 1)
                if not w.s[i + 1][i].is_zero:
                    q, r = laurent_divmod(w.s[i + 1][i], w.s[i][i])
                    w.add_row(i + 1, i, -q)
                    if not (r.is_zero and w.s[i + 1][i].is_zero):
                        raise RuntimeError(
                            "divisibility repair left a subdiagonal entry")
                changed = True
    for i in range(k):
        w.make_primitive(i)


def snf_transforms(m: GammaMatrix) -> tuple[GammaMatrix, GammaMatrix, GammaMatrix]:
    """Invertible U, V and diagonal S with S = U * m * V."""
    w = _TrackingWorker(m)
    _tracking_eliminate(w)
    return (GammaMatrix(w.u, cols=m.rows),
            GammaMatrix(w.s, cols=m.cols),
            GammaMatrix(w.v, cols=m.cols))


def kernel_basis(m: GammaMatrix) -> GammaMatrix:
    """A basis of {v : v * m = 0}, one row per basis vector.

    Rows of U whose image row in S vanishes form a basis, because S = U*m*V
    with U, V invertible and a diagonal matrix kills exactly its zero rows.

    >>> k = kernel_basis(GammaMatrix([["t - 1"], ["t - 1"]]))
    >>> k.rows, k.cols
    (1, 2)
    """
    u, s, _ = snf_transforms(m)
    zero_rows = [i for i in range(m.rows)
                 if all(s.entry(i, j).is_zero for j in range(m.cols))]
    return GammaMatrix([u.entries[i] for i in zero_rows], cols=m.rows)


def solve_left(m: GammaMatrix, b: GammaMatrix) -> GammaMatrix:
    """The X with X * m = b, when b's rows lie in m's row space.

    Raises ValueError when some row of b is not a Gamma-combination of the
    rows of m.
    """
    if b.cols != m.cols:
        raise ValueError("column mismatch in solve_left")
    u, s, v = snf_transforms(m)
    c = b * v
    rank = sum(1 for i in range(min(m.rows, m.cols)) if not s.entry(i, i).is_zero)
    ys = []
    for i in range(b.rows):
        yrow = [LaurentPoly.zero()] * m.rows
        for j in range(m.cols):
            target = c.entry(i, j)
            if j < rank:
                q, r = laurent_divmod(target, s.entry(j, j))
                if not r.is_zero:
                    raise ValueError("target is not in the row space (division fails)")
                yrow[j] = q
            elif not target.is_zero:
                raise ValueError("target is not in the row space")
        ys.append(yrow)
    return GammaMatrix(ys, cols=m.rows) * u


# -- the heap-ordered sparse elimination -------------------------------------


def heap_diagonalise(m: GammaMatrix) -> list[LaurentPoly]:
    """The nonzero diagonal of `gmodule._diagonalise`, with the pivot rows
    taken from a heap instead of a scan.

    A frozen copy of the elimination the library ran on whole boundary
    matrices: rows wait in a heap keyed by (least entry degree, length,
    index), an entry whose row was removed or changed since it was pushed is
    skipped when popped, and an index from each column to the rows holding
    it is kept up to date, so each round costs the rows it touches and not
    a pass over the matrix.  The pivot row, the pivot column (least degree,
    then fewest holders, then index) and the row and column operations are
    the library's, so both return the same list in the same order.
    """
    rows = {i: dict(row) for i, row in enumerate(m._rows) if row}
    holders: dict[int, set[int]] = {}       # column -> rows with an entry
    for i, row in rows.items():
        for j in row:
            holders.setdefault(j, set()).add(i)
    queue: list[tuple[int, int, int]] = []

    def push(k: int):
        row = rows[k]
        heapq.heappush(queue, (min([e.degree for e in row.values()]), len(row), k))

    for i in rows:
        push(i)
    diagonal = []
    while queue:
        degree, size, i = heapq.heappop(queue)
        pivot_row = rows.get(i)
        if pivot_row is None or len(pivot_row) != size:
            continue                          # stale: removed or changed
        col = min(pivot_row, key=lambda j: (pivot_row[j].degree, len(holders[j]), j))
        if pivot_row[col].degree != degree:
            continue
        pivot = pivot_row.pop(col)
        scale, unit = _unit_quotient(pivot), pivot.is_unit
        if not unit:                          # a unit's row splits off at once
            pivot = scale * pivot
            rows[i] = pivot_row = {j: scale * e for j, e in pivot_row.items()}
        column = holders[col]
        changed = [k for k in column if k != i]
        for k in changed:
            row = rows[k]
            entry = row.pop(col)
            q, r = (entry * scale, _ZERO) if unit else _poly_divmod(entry, pivot)
            if r.is_zero:
                column.discard(k)
            else:
                row[col] = r
            for j, e in pivot_row.items():
                value = row[j] - q * e if j in row else -(q * e)
                if value.is_zero:
                    del row[j]
                    holders[j].discard(k)
                else:
                    row[j] = value
                    holders[j].add(k)
            if not row:
                del rows[k]
        if len(column) == 1:                  # the column holds only the pivot
            for j, e in list(pivot_row.items()):
                r = _ZERO if unit else _poly_divmod(e, pivot)[1]
                if r.is_zero:
                    del pivot_row[j]
                    holders[j].discard(i)
                else:
                    pivot_row[j] = r
        if len(column) == 1 and not pivot_row:
            diagonal.append(pivot)
            del rows[i], holders[col]
        else:
            pivot_row[col] = pivot
            changed.append(i)
        for k in changed:
            if k in rows:
                push(k)
    return diagonal


# -- module-valued Kunneth formula ---------------------------------------------


def tensor(a: FgGammaModule, b: FgGammaModule) -> FgGammaModule:
    """Tensor product over the ring.

    Free factors distribute; on cyclic pieces the result is cyclic on the
    gcd of the orders (zero when they are coprime).

    >>> tensor(FgGammaModule.cyclic("t^2 - 1"), FgGammaModule.cyclic("t^3 - 3*t^2 + 3*t - 1"))
    FgGammaModule(free=0, torsion=['t - 1'])
    """
    if a == FgGammaModule.free(1):
        return b
    if b == FgGammaModule.free(1):
        return a
    orders: list[LaurentPoly] = []
    orders.extend(t for t in b.torsion for _ in range(a.free_rank))
    orders.extend(t for t in a.torsion for _ in range(b.free_rank))
    for x in a.torsion:
        for y in b.torsion:
            orders.append(gcd(x, y))
    return FgGammaModule.from_summands(a.free_rank * b.free_rank, orders)


def tor(a: FgGammaModule, b: FgGammaModule) -> FgGammaModule:
    """The torsion product; vanishes when either argument is free.

    >>> tor(FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t - 1"))
    FgGammaModule(free=0, torsion=['t - 1'])
    >>> tor(FgGammaModule.free(2), FgGammaModule.cyclic("t - 1")).is_zero
    True
    """
    orders = [gcd(x, y) for x in a.torsion for y in b.torsion]
    return FgGammaModule.from_summands(0, orders)


def kunneth(left, right, i: int, s_min: int = 0) -> FgGammaModule:
    """The degree-i Kunneth terms with right-hand degree s >= s_min, summed
    as a canonical module through `tensor`, `tor` and `direct_sum`.

    Its free rank and torsion are what degree i of the table
    `gmodule.kunneth_summands` lists without building a module, and its
    `order_polynomial` is what `kunneth_order` computes by order arithmetic
    alone.
    """
    total = FgGammaModule.zero()
    for r, lmod in enumerate(left):
        for s, rmod in enumerate(right):
            if s < s_min:
                continue
            if r + s == i:
                total = total.direct_sum(tensor(lmod, rmod))
            elif r + s == i - 1:
                total = total.direct_sum(tor(lmod, rmod))
    return total


def per_degree_kunneth_summands(left, right, i: int, split: int = 0):
    """(free, low, high) of the degree-i homology of a product, one degree
    at a time: the tensor terms on the degree-i antidiagonal plus the Tor
    terms on the degree-(i-1) one, split by right-hand degree below `split`
    and at or above it.

    The route `gmodule.kunneth_summands` took before it returned every
    degree from one pass; each gcd is taken here once per degree it
    reaches, for its tensor term and again for its Tor term.
    """
    free, parts = 0, ([], [])
    for s, b in enumerate(right):
        orders = parts[s >= split]
        for r in (i - s, i - 1 - s):
            if not 0 <= r < len(left):
                continue
            a = left[r]
            if r == i - s:                    # tensor: free parts distribute
                free += a.free_rank * b.free_rank
                orders.extend(x for x in a.torsion for _ in range(b.free_rank))
                orders.extend(y for y in b.torsion for _ in range(a.free_rank))
            gcds = (x if x == y else gcd(x, y) for x in a.torsion for y in b.torsion)
            orders.extend(g for g in gcds if not g.is_one)
    return free, parts[0], parts[1]


def kunneth_order(left, right, i: int, split: int = 0):
    """(low, high): the products of `per_degree_kunneth_summands`' two
    order lists, whose product is the order of the degree-i homology of a
    product.  A positive free rank raises NotTorsion.

    >>> seq = [FgGammaModule.cyclic("t - 1")]
    >>> kunneth_order(seq, seq, 1)
    (LaurentPoly('1'), LaurentPoly('t - 1'))
    """
    free, low, high = per_degree_kunneth_summands(left, right, i, split)
    if free:
        raise NotTorsion("order polynomial requires a torsion module")
    return prod(low, start=LaurentPoly.one()), prod(high, start=LaurentPoly.one())


def windowed_kunneth_order(left, right, i: int, s_min: int = 0) -> LaurentPoly:
    """The order of the degree-i Kunneth terms with right-hand degree
    s >= s_min, multiplied up term by term, one product per factor.

    The route `kunneth_order` took before it returned the (low, high)
    split of one pass; terms below s_min are skipped outright, so a
    free (x) free term there raises nothing.
    """
    out = LaurentPoly.one()
    for s in range(max(s_min, 0), len(right)):
        b = right[s]
        for r in (i - s, i - 1 - s):
            if not 0 <= r < len(left):
                continue
            a = left[r]
            if r == i - s:
                if a.free_rank and b.free_rank:
                    raise NotTorsion("order polynomial requires a torsion module")
                for x in a.torsion:
                    out = out * x ** b.free_rank
                for y in b.torsion:
                    out = out * y ** a.free_rank
            for x in a.torsion:
                for y in b.torsion:
                    out = out * gcd(x, y)
    return out


def two_pass_ia_product(inp) -> tuple[tuple[LaurentPoly, ...], list[dict]]:
    """`engine.ia_product` by the route it took before one Kunneth pass:
    the whole and the windowed Kunneth order per degree, each divisibility
    tested with `divides` before its quotient is taken, and b_low as
    (nu / a) / b_high."""
    p = inp.perversity
    s_min = inp.k - p(inp.k + 1)
    out, report = [], []
    for i in range(inp.n - 1):
        nu = windowed_kunneth_order(inp.sigma_homology, inp.link_modules, i)
        high = windowed_kunneth_order(inp.sigma_homology, inp.link_modules, i,
                                      s_min)
        a_high, a_full = inp.a_high_at(i), inp.a_at(i)
        if not divides(a_high, a_full):
            raise DivisibilityViolation(
                f"degree {i}: a_high = {a_high} does not divide a = {a_full}")
        if not divides(a_high, high):
            raise DivisibilityViolation(
                f"degree {i}: a_high = {a_high} does not divide the high "
                f"Kunneth polynomial {high}")
        if not divides(a_full, nu):
            raise DivisibilityViolation(
                f"degree {i}: a = {a_full} does not divide nu = {nu}")
        b = exact_quotient(nu, a_full)
        b_high = exact_quotient(high, a_high)
        if not divides(b_high, b):
            raise DivisibilityViolation(
                f"degree {i}: b_high = {b_high} does not divide b = {b}")
        b_low = exact_quotient(b, b_high)
        value = inp.a_high_at(i - 1) * b_low * inp.c_at(i)
        out.append(value)
        report.append({"degree": i, "nu": str(nu), "b_high": str(b_high),
                       "b_low": str(b_low), "value": str(value)})
    return tuple(out), report


# -- module operations no library route needs ------------------------------


def support_primes(m: FgGammaModule) -> tuple[LaurentPoly, ...]:
    """The primes dividing some torsion coefficient (largest one suffices)."""
    if not m.torsion:
        return ()
    return tuple(p for p, _ in factor(m.torsion[-1]))


def conjugate(m: FgGammaModule) -> FgGammaModule:
    """Apply the involution t -> t^-1 coefficient-wise.

    >>> conjugate(FgGammaModule(1, ["2*t - 1"]))
    FgGammaModule(free=1, torsion=['t - 2'])
    """
    return FgGammaModule(
        m.free_rank, [normalize(involute(t)) for t in m.torsion])


# -- kernel-and-solve route to twisted homology -----------------------------


def stack(top: GammaMatrix, bottom: GammaMatrix) -> GammaMatrix:
    """Stack vertically: more relations on the same generators."""
    if top.cols != bottom.cols:
        raise ValueError("column mismatch in stack")
    return GammaMatrix(top.entries + bottom.entries, cols=top.cols)


def transpose(m: GammaMatrix) -> GammaMatrix:
    """Rows become columns."""
    return GammaMatrix([[m.entry(i, j) for i in range(m.rows)] for j in range(m.cols)],
                       cols=m.rows)


def leading_columns(m: GammaMatrix, n: int) -> GammaMatrix:
    """The first n columns of m."""
    return GammaMatrix([row[:n] for row in m.entries], cols=n)


def transport(tc, u: int, v: int) -> LaurentPoly:
    """The unit carried by the oriented edge from u to v of a twisted
    complex: its monodromy for u < v, the inverse for u > v, 1 for u = v."""
    if u == v:
        return LaurentPoly.one()
    unit = tc.monodromy.get((min(u, v), max(u, v)), LaurentPoly.one())
    return unit if u < v else unit.inverse()


def stalk_boundary_matrix(tc, p: int, copies: int) -> GammaMatrix:
    """The degree-p boundary on stalk-valued chains, one block of `copies`
    generators per simplex; rows are sources, columns targets."""
    top = tc.simplices_of_dim(p)
    bottom = tc.simplices_of_dim(p - 1)
    index = {s: i for i, s in enumerate(bottom)}
    grid = [[LaurentPoly.zero()] * (len(bottom) * copies)
            for _ in range(len(top) * copies)]
    for si, simplex in enumerate(top):
        for j in range(p + 1):
            face = simplex[:j] + simplex[j + 1:]
            coeff = (transport(tc, simplex[0], simplex[1]) if j == 0
                     else LaurentPoly.one())
            if j % 2:
                coeff = -coeff
            fi = index[face]
            for g in range(copies):
                grid[si * copies + g][fi * copies + g] = coeff
    return GammaMatrix(grid, cols=len(bottom) * copies)


def stalk_relations(stalk, copies: int) -> GammaMatrix:
    """Torsion relations of `copies` stalk copies, as rows over the chain
    generators."""
    gens = stalk.rank
    rows = []
    for c in range(copies):
        for g, tau in enumerate(stalk.torsion):
            row = [LaurentPoly.zero()] * (copies * gens)
            row[c * gens + stalk.free_rank + g] = tau
            rows.append(row)
    return GammaMatrix(rows, cols=copies * gens)


def dense_cokernel(m: GammaMatrix) -> FgGammaModule:
    """The module m presents, read off the diagonal of the transform-tracking
    Smith form, which eliminates densely without the unit pre-pass."""
    _, s, _ = snf_transforms(m)
    diagonal = [s.entry(i, i) for i in range(min(s.rows, s.cols))
                if not s.entry(i, i).is_zero]
    return FgGammaModule(m.cols - len(diagonal),
                         [normalize(d) for d in diagonal if not d.is_unit])


def snf_free_homology(tc) -> tuple:
    """Homology with coefficients in the ring from the full Smith form of
    every boundary, the degree-1 boundary included: H_p has free rank
    c_p - r_p - r_{p+1} and the nonunit invariant factors of the
    degree-(p+1) boundary as torsion."""
    dim = tc.dimension
    ranks = [0] * (dim + 2)
    torsion = [()] * (dim + 1)
    for p in range(1, dim + 1):
        factors, ranks[p] = smith_normal_form(stalk_boundary_matrix(tc, p, 1))
        torsion[p - 1] = [f for f in factors if not f.is_one]
    return tuple(
        FgGammaModule(len(tc.simplices_of_dim(p)) - ranks[p] - ranks[p + 1],
                      torsion[p])
        for p in range(dim + 1))


def forest_boundary_matrix(tc, p: int, index) -> GammaMatrix:
    """The degree-p boundary on chains with coefficients in the ring; rows
    are sources, columns targets.  `index` numbers the (p-1)-faces kept as
    columns, and a face outside it loses its column."""
    rows = []
    for simplex in tc.simplices_of_dim(p):
        row = {}
        for j in range(p + 1):
            face = index.get(simplex[:j] + simplex[j + 1:])
            if face is not None:
                unit = (transport(tc, simplex[0], simplex[1]) if j == 0
                        else LaurentPoly.one())
                row[face] = -unit if j % 2 else unit
        rows.append(row)
    return GammaMatrix.from_rows(rows, len(index))


def spanning_forest(tc) -> tuple:
    """H_0 with coefficients in the ring, the rank of the reduced degree-1
    boundary, and the column index of the edges outside a spanning forest.

    A search from the least vertex of each component gives every vertex v
    its potential phi(v), the transport along the tree path from the root.
    A tree edge with the vertex it reaches is a reduction pair, so
    contracting the forest leaves one generator per root, related by
    h(e) - 1 for each non-tree edge e = (u, v) with holonomy
    h(e) = phi(u) T(u, v) / phi(v): a component is Gamma when every h(e) is
    1 and Gamma/(g) otherwise, with g the gcd of its h(e) - 1.
    """
    one = LaurentPoly.one()
    neighbours = {v: [] for (v,) in tc.simplices_of_dim(0)}
    for u, v in tc.simplices_of_dim(1):
        neighbours[u].append(v)
        neighbours[v].append(u)
    potential, root, tree = {}, {}, set()
    for start in neighbours:
        if start in potential:
            continue
        potential[start], root[start] = one, start
        stack = [start]
        while stack:
            u = stack.pop()
            for v in neighbours[u]:
                if v not in potential:
                    potential[v] = potential[u] * transport(tc, u, v)
                    root[v] = start
                    tree.add((u, v) if u < v else (v, u))
                    stack.append(v)
    orders = {}                             # root -> gcd of its h(e) - 1
    index = {}
    for edge in tc.simplices_of_dim(1):
        if edge in tree:
            continue
        index[edge] = len(index)
        u, v = edge
        carried = potential[u] * transport(tc, u, v)
        if carried != potential[v]:
            loop = carried * potential[v].inverse() - one
            g = orders.get(root[u])
            orders[root[u]] = normalize(loop) if g is None else gcd(g, loop)
    h0 = FgGammaModule.from_summands(len(potential) - len(tree) - len(orders),
                                     orders.values())
    return h0, len(orders), index


def forest_free_homology(tc) -> tuple:
    """Homology with coefficients in the ring by contracting a spanning
    forest (`spanning_forest`), then the Smith form of every boundary above
    degree 1, the degree-2 boundary without its tree-edge columns: H_p has
    free rank c_p - r_p - r_{p+1} over the reduced cells and the nonunit
    invariant factors of the degree-(p+1) boundary as torsion."""
    h0, rank_below, index = spanning_forest(tc)
    out = [h0]
    for p in range(2, tc.dimension + 2):
        factors, rank = (smith_normal_form(forest_boundary_matrix(tc, p, index))
                         if p <= tc.dimension else ((), 0))
        out.append(FgGammaModule(len(index) - rank_below - rank,
                                 [f for f in factors if not f.is_one]))
        index = {s: i for i, s in enumerate(tc.simplices_of_dim(p))}
        rank_below = rank
    return tuple(out)


def kernel_solve_homology(tc) -> tuple:
    """Homology of the stalk-valued chain complex, degree by degree.

    Cycles in each degree are cut out by a stacked matrix (the boundary over
    the target's stalk relations); boundaries from one degree up and the
    stalk relations of the degree itself are then expressed in the cycle
    basis and divided out.
    """
    gens = tc.stalk.rank
    dim = tc.dimension
    if gens == 0:
        return tuple(FgGammaModule.zero() for _ in range(dim + 1))
    out = []
    for p in range(dim + 1):
        count = len(tc.simplices_of_dim(p))
        if p == 0:
            cycles = GammaMatrix.from_rows(
                [{i: 1} for i in range(count * gens)], count * gens)
        else:
            below = len(tc.simplices_of_dim(p - 1))
            stacked = stack(stalk_boundary_matrix(tc, p, gens),
                            stalk_relations(tc.stalk, below))
            full = kernel_basis(stacked)
            cycles = leading_columns(full, count * gens)
        relations = stalk_relations(tc.stalk, count)
        if p < dim:
            relations = stack(relations, stalk_boundary_matrix(tc, p + 1, gens))
        out.append(dense_cokernel(solve_left(cycles, relations)))
    return tuple(out)
