"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: the ring
element is a sparse map to Fractions instead of an integer numerator over
one denominator, factorization is done by Kronecker interpolation and trial
division instead of the modular factorizer, or by sympy's
`Poly.factor_list` on the whole polynomial instead of the cyclotomic
pre-pass and `ialex.zfactor` on the cofactor, gcds by rational Euclid or by
sympy's `dup_gcd` instead of the integer heuristic GCD, invariant factors
come from gcds of minors instead of elimination, ranks come from plain
fraction Gaussian elimination, and twisted homology is cut out of
stalk-valued chains by kernels and solves instead of universal
coefficients, or read off the Smith form of every full boundary instead
of contracting a spanning forest first.  Those kernels and solves come
from a transform-tracking Smith form of their own, independent of the
library's elimination, that divides by `laurent_divmod`, rational long
division on dense Fraction lists rather than the library's integer
pseudo-division.  The module-valued Kunneth sum cross-checks
`gmodule.kunneth_order`'s order arithmetic.  Slow is fine; these only
ever see small inputs.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd as int_gcd, isqrt

from ialex.gmodule import FgGammaModule, GammaMatrix, smith_normal_form, tensor, tor
from ialex.laurent import (
    LaurentPoly,
    as_laurent,
    divides,
    factor,
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
    return [q.coeff(e) for e in range(q.min_exp, q.max_exp + 1)]


def laurent_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division a = q*b + r in Q[t, t^-1] by `dense_divmod` on the
    coefficient lists, r zero or of smaller degree than b."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero:
        return LaurentPoly.zero(), LaurentPoly.zero()
    q, r = dense_divmod(dense_coeffs(a), dense_coeffs(b))
    return (LaurentPoly(enumerate(q)).shift(a.min_exp - b.min_exp),
            LaurentPoly(enumerate(r)).shift(a.min_exp))


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


def sympy_gcd(a, b) -> tuple[int, ...]:
    """gcd in Z[t] of two nonzero integer coefficient tuples (lowest
    exponent first) by sympy's `dup_gcd`: the same contract as
    `zfactor.poly_gcd`, which replaced it."""
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_gcd

    g = dup_gcd([ZZ(c) for c in reversed(a)], [ZZ(c) for c in reversed(b)], ZZ)
    return tuple(int(c) for c in reversed(g))


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
    from ialex.laurent import exact_quotient, gcd as poly_gcd

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


# -- module-valued Kunneth formula ---------------------------------------------


def kunneth(left, right, i: int, s_min: int = 0) -> FgGammaModule:
    """The degree-i Kunneth terms with right-hand degree s >= s_min, summed
    as a canonical module through `tensor`, `tor` and `direct_sum`.

    `order_polynomial` of the result is what `gmodule.kunneth_order`
    computes by order arithmetic alone.
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


def transpose(m: GammaMatrix) -> GammaMatrix:
    """Rows become columns."""
    return GammaMatrix([[m.entry(i, j) for i in range(m.rows)] for j in range(m.cols)],
                       cols=m.rows)


def leading_columns(m: GammaMatrix, n: int) -> GammaMatrix:
    """The first n columns of m."""
    return GammaMatrix([row[:n] for row in m.entries], cols=n)


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
            coeff = (tc.transport(simplex[0], simplex[1]) if j == 0
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
            stacked = stalk_boundary_matrix(tc, p, gens).stack(
                stalk_relations(tc.stalk, below))
            full = kernel_basis(stacked)
            cycles = leading_columns(full, count * gens)
        relations = stalk_relations(tc.stalk, count)
        if p < dim:
            relations = relations.stack(stalk_boundary_matrix(tc, p + 1, gens))
        out.append(dense_cokernel(solve_left(cycles, relations)))
    return tuple(out)
