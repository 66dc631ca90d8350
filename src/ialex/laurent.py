"""Exact arithmetic and similarity classes in the ring Q[t, t^-1].

The ring of Laurent polynomials with rational coefficients is a principal
ideal domain whose units are the monomials q*t^k with q a nonzero rational.
Every nonzero element is similar (equal up to a unit) to exactly one
primitive integer polynomial with nonzero constant term and positive leading
coefficient.  :class:`LaurentPoly` is the one ring element, and
:func:`normalize` maps each nonzero element to that canonical
representative, its normal form, which is again a :class:`LaurentPoly`
(``shift == 0``, ``den == 1``, content 1, positive leading coefficient).
Similarity tests therefore reduce to equality of normal forms.

All arithmetic is exact and no floating point is used anywhere.  A ring
element is one dense integer polynomial over one positive denominator, the
canonical form of FLINT's ``fmpq_poly``: ``t^shift * (num[0] + num[1]*t +
...) / den``, where ``num`` is a tuple of integers whose first and last
entries are nonzero (the empty tuple for zero) and ``den`` is positive and
coprime to the content of ``num``.  Equal elements have equal triples, so
equality and hashing are tuple compares, and ``+`` and ``*`` run on integer
tuples without building a rational per coefficient.  A product of normal
forms is a normal form (Gauss's lemma).  Dense storage needs a bound: an
element built from terms, by :func:`parse`, the mapping constructor or
``+``, may span at most :data:`MAX_SPAN` exponents, checked before the tuple
is allocated.

gcd and division run on the integer numerators of the normal forms: by
Gauss's lemma, gcds and divisibility in Q[t, t^-1] are those of Z[t] on
primitive polynomials, so no rational Euclid (and no coefficient blow-up) is
needed.  gcds use the heuristic GCD of Char, Geddes and Gonnet, which reads
the gcd off the integer gcd of two values; factorization divides out the
cyclotomic factors exactly and hands only the rest to the modular
factorizer.  Both live in :mod:`ialex.zfactor`, with the rest of the dense
integer arithmetic.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from typing import Optional, Union

from .zfactor import exact_div, factor_primitive, poly_gcd, poly_mul, pseudo_divmod

__all__ = [
    "BothZero",
    "DEFAULT_DEGREE_CAP",
    "DegreeCapExceeded",
    "LaurentPoly",
    "MAX_SPAN",
    "PolyLike",
    "SpanCapExceeded",
    "ZeroPolynomial",
    "as_laurent",
    "divides",
    "exact_quotient",
    "factor",
    "gcd",
    "involute",
    "is_alexander_type",
    "multiplicity",
    "normalize",
    "parse",
    "similar",
]

DEFAULT_DEGREE_CAP = 64
# the largest max_exp - min_exp of an element built from terms
MAX_SPAN = 2**16
# products of more coefficient pairs than this use Kronecker substitution
# (zfactor.poly_mul); on CPython 3.11 schoolbook multiplication was faster
# below about 16 x 12 pairs of small coefficients, and up to 32 x 8 pairs
# of 20-digit ones
SCHOOLBOOK_PAIRS = 200


class ZeroPolynomial(ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class BothZero(ValueError):
    """gcd(0, 0) is undefined."""


class DegreeCapExceeded(ValueError):
    """A factorization request exceeded the configured degree cap."""


class SpanCapExceeded(DegreeCapExceeded):
    """An element built from terms would span more than MAX_SPAN exponents."""


def _check_span(lo: int, hi: int) -> None:
    if hi - lo > MAX_SPAN:
        raise SpanCapExceeded(
            f"exponents {lo}..{hi} span {hi - lo}, over the cap {MAX_SPAN}")


def _fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating point coefficients are not allowed")
    return Fraction(value)


def _convolve(a: tuple, b: tuple) -> list:
    """The product of two nonempty integer coefficient sequences."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return [x * c for x in a]
    if len(a) * len(b) > SCHOOLBOOK_PAIRS:
        return poly_mul(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            for i, ca in enumerate(a, j):
                out[i] += ca * cb
    return out


_new = object.__new__


def _make(shift: int, num: tuple, den: int) -> "LaurentPoly":
    """An element from a triple already in canonical form."""
    p = _new(LaurentPoly)
    p._shift, p._num, p._den = shift, num, den
    return p


def _canonical(shift: int, coeffs: list, den: int) -> "LaurentPoly":
    """t^shift * coeffs / den, with zero ends trimmed and gcd(den, content)
    divided out; den must be positive."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    if not hi:
        return _ZERO
    lo = 0
    while not coeffs[lo]:
        lo += 1
    if lo or hi < len(coeffs):
        coeffs = coeffs[lo:hi]
    if den != 1:
        g = math.gcd(den, *coeffs)
        if g != 1:
            den //= g
            coeffs = [c // g for c in coeffs]
    return _make(shift + lo, tuple(coeffs), den)


def _from_terms(terms: dict, den: int = 1) -> "LaurentPoly":
    """The element sum(c * t^e) / den of a map from exponents to nonzero
    ints or Fractions, checking the span before the dense tuple is built."""
    if not terms:
        return _ZERO
    lo, hi = min(terms), max(terms)
    _check_span(lo, hi)
    common = math.lcm(*(c.denominator for c in terms.values()))
    coeffs = [0] * (hi - lo + 1)
    for e, c in terms.items():
        coeffs[e - lo] = c.numerator * (common // c.denominator)
    return _canonical(lo, coeffs, den * common)


class LaurentPoly:
    """An element of Q[t, t^-1]: ``t^shift * num / den`` in canonical form.

    ``shift`` is the lowest exponent, ``num`` a dense tuple of integers with
    nonzero first and last entries (empty for zero), and ``den`` a positive
    integer with ``gcd(den, *num) == 1``.  The constructor takes a mapping
    or iterable of (exponent, coefficient) pairs with integer or rational
    coefficients; floats are refused.

    >>> p = LaurentPoly({1: 1, 0: -1})
    >>> print(p)
    t - 1
    >>> print(p * LaurentPoly({-1, 0}))
    Traceback (most recent call last):
        ...
    TypeError: terms must be a mapping or iterable of (exponent, coefficient)
    >>> print(p * LaurentPoly({-1: 1}))
    1 - t^-1
    """

    __slots__ = ("_shift", "_num", "_den")

    def __init__(self, terms: Union[Mapping[int, object], Iterable[tuple]] = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            try:
                items = [(int(e), c) for e, c in terms]
            except (TypeError, ValueError):
                raise TypeError(
                    "terms must be a mapping or iterable of (exponent, coefficient)"
                ) from None
        data: dict[int, Union[int, Fraction]] = {}
        for exp, coeff in items:
            c = coeff if type(coeff) is int else _fraction(coeff)
            if c:
                e = int(exp)
                total = data.get(e, 0) + c
                if total:
                    data[e] = total
                else:
                    del data[e]
        p = _from_terms(data)
        self._shift, self._num, self._den = p._shift, p._num, p._den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _ONE

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        return cls({0: value})

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_unit(self) -> bool:
        """True iff the element is a unit q*t^k of the ring."""
        return len(self._num) == 1

    @property
    def min_exp(self) -> int:
        if not self._num:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return self._shift

    @property
    def max_exp(self) -> int:
        if not self._num:
            raise ZeroPolynomial("zero polynomial has no exponents")
        return self._shift + len(self._num) - 1

    @property
    def degree(self) -> int:
        """max_exp - min_exp, the degree of the normal form; -1 for zero."""
        return len(self._num) - 1

    @property
    def is_one(self) -> bool:
        """True iff the element is 1; a normal form is 1 iff its class is
        the units."""
        return self._num == (1,) and not self._shift and self._den == 1

    def coeff(self, exp: int) -> Fraction:
        i = exp - self._shift
        if 0 <= i < len(self._num):
            return Fraction(self._num[i], self._den)
        return Fraction(0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        shift, den = self._shift, self._den
        return iter([(shift + i, Fraction(c, den))
                     for i, c in enumerate(self._num) if c])

    # -- ring operations -------------------------------------------------

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, for sign 1 or -1."""
        na, nb = self._num, other._num
        if not nb:
            return self
        if not na:
            return other if sign == 1 else -other
        sa, sb = self._shift, other._shift
        lo = min(sa, sb)
        hi = max(sa + len(na), sb + len(nb))
        _check_span(lo, hi - 1)
        da, db = self._den, other._den
        if da == db:
            den, fa, fb = da, 1, sign
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g * sign
            den = da * fa
        out = [0] * (hi - lo)
        i = sa - lo
        out[i:i + len(na)] = na if fa == 1 else [c * fa for c in na]
        i = sb - lo
        out[i:i + len(nb)] = [x + c * fb for x, c in zip(out[i:i + len(nb)], nb)]
        return _canonical(lo, out, den)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return _make(self._shift, tuple([-c for c in self._num]), self._den)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        if not self._num or not other._num:
            return _ZERO
        # a product of nonzero polynomials keeps nonzero end coefficients
        num = _convolve(self._num, other._num)
        den = self._den * other._den
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                den //= g
                num = [c // g for c in num]
        return _make(self._shift + other._shift, tuple(num), den)

    __rmul__ = __mul__

    def scale(self, value) -> "LaurentPoly":
        if not isinstance(value, (int, Fraction)):
            value = _fraction(value)
        p, q = value.numerator, value.denominator
        if not p or not self._num:
            return _ZERO
        return _canonical(self._shift, [c * p for c in self._num], self._den * q)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the unit t^k."""
        if not self._num:
            return self
        return _make(self._shift + k, self._num, self._den)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are defined only for units")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def involute(self) -> "LaurentPoly":
        """The ring involution t -> t^-1."""
        if not self._num:
            return self
        return _make(-(self._shift + len(self._num) - 1), self._num[::-1],
                     self._den)

    def inverse(self) -> "LaurentPoly":
        """The inverse of a unit q*t^k; raises ValueError for nonunits.

        >>> print(LaurentPoly({2: Fraction(-3, 2)}).inverse())
        -2/3*t^-2
        """
        if not self.is_unit:
            raise ValueError(f"{self} is not a unit")
        (c,) = self._num
        return _make(-self._shift, (self._den if c > 0 else -self._den,), abs(c))

    # -- comparison and presentation ------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self._num == other._num and self._shift == other._shift
                and self._den == other._den)

    def __hash__(self) -> int:
        return hash((self._shift, self._num, self._den))

    def sort_key(self) -> tuple:
        """The canonical order: by degree, then coefficients, lowest first."""
        return (len(self._num) - 1, self._num, self._shift, self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __str__(self) -> str:
        return _format_terms(self._shift, self._num, self._den)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


_ZERO = _make(0, (), 1)
_ONE = _make(0, (1,), 1)


PolyLike = Union["LaurentPoly", int, str]


# -- text form ---------------------------------------------------------

_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?)
    (?:
        (?P<coef>\d+(?:/\d+)?)(?:\*?(?P<tc>t(?:\^(?P<expc>-?\d+))?))?
      | (?P<tv>t(?:\^(?P<expv>-?\d+))?)
    )
    """,
    re.VERBOSE,
)


def parse(text: str) -> LaurentPoly:
    """Parse the polynomial text grammar.

    Terms are ``c*t^e``, ``c``, ``t^e`` or ``t``, joined by ``+`` and ``-``;
    ``c`` is an integer or ``p/q`` rational and ``e`` a possibly negative
    integer.  The ``*`` may be left out, and stands only before ``t``.
    Whitespace is ignored.

    >>> print(parse("3/2*t^-1 - 3/2"))
    -3/2 + 3/2*t^-1
    >>> parse("t^2-t+1") == LaurentPoly({2: 1, 1: -1, 0: 1})
    True
    >>> parse("0").is_zero
    True
    >>> parse("1/0*t")
    Traceback (most recent call last):
        ...
    ValueError: zero denominator in '1/0'

    The terms are summed over the lcm of their denominators, and the span
    of the sum is checked against :data:`MAX_SPAN` before the dense tuple
    is built.
    """
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


def _format_terms(shift: int, num: tuple, den: int) -> str:
    """The text of t^shift * num / den, highest exponent first."""
    parts: list[str] = []
    for i in range(len(num) - 1, -1, -1):
        c = num[i]
        if not c:
            continue
        mag = -c if c < 0 else c
        if den == 1:
            text = str(mag)
        else:
            g = math.gcd(mag, den)
            text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        exp = shift + i
        if exp == 0:
            body = text
        else:
            tpart = "t" if exp == 1 else f"t^{exp}"
            body = tpart if text == "1" else f"{text}*{tpart}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


def as_laurent(value: PolyLike) -> LaurentPoly:
    """Coerce strings and integers to :class:`LaurentPoly`."""
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.constant(value)
    if isinstance(value, str):
        return parse(value)
    raise TypeError(f"cannot interpret {value!r} as a Laurent polynomial")


# -- similarity calculus ------------------------------------------------


def normalize(p: PolyLike) -> LaurentPoly:
    """The normal form of a nonzero element: its canonical primitive
    representative, with shift 0, denominator 1, content 1 and a positive
    leading coefficient.

    >>> normalize(parse("3/2*t^-1 - 3/2"))
    LaurentPoly('t - 1')
    >>> normalize(parse("t^2 - t"))
    LaurentPoly('t - 1')
    >>> normalize(parse("2*t^2 + 2*t + 2"))
    LaurentPoly('t^2 + t + 1')

    An element already in normal form is returned as it is.
    """
    if type(p) is not LaurentPoly:
        p = as_laurent(p)
    num = p._num
    if not num:
        raise ZeroPolynomial("the zero polynomial has no primitive representative")
    content = math.gcd(*num)
    if num[-1] < 0:
        content = -content
    if content != 1:
        num = tuple([c // content for c in num])
    elif not p._shift and p._den == 1:
        return p
    return _make(0, num, 1)


def _unit_quotient(value: LaurentPoly) -> LaurentPoly:
    """The unit u with u * value equal to value's primitive representative.

    value is t^shift * num / den, and its representative is num / c for c
    the content of num signed like its leading coefficient, so u is
    den * t^-shift / c.
    """
    shift, num, den = value.min_exp, value._num, value._den
    c = math.gcd(*num)
    g = math.gcd(den, c)
    return _make(-shift, (den // g if num[-1] > 0 else -den // g,), c // g)


def similar(p: PolyLike, q: PolyLike) -> bool:
    """Equality up to a unit of the ring; zero is similar only to zero.

    >>> similar(parse("t - 1"), parse("1 - t^-1"))
    True
    >>> similar(parse("t - 1"), parse("t + 1"))
    False
    >>> similar(parse("t^2 - t + 1"), parse("t^-2 - t^-1 + 1"))
    True
    """
    a, b = as_laurent(p), as_laurent(q)
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return normalize(a) == normalize(b)


def involute(p: PolyLike) -> LaurentPoly:
    """The involution p(t) -> p(t^-1), exactly.

    >>> print(involute(parse("2*t - 1")))
    -1 + 2*t^-1
    >>> similar(involute(parse("2*t - 1")), parse("t - 2"))
    True
    """
    return as_laurent(p).involute()


def _poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Euclidean division a = q*b + r with r zero or of smaller degree than b.

    a is t^sa * na / da and b is t^sb * nb / db.  One pseudo-division of the
    integer numerators, L*na = Q*nb + R with L a power of nb's leading
    coefficient, gives q = t^(sa-sb) * Q * db / (L*da) and
    r = t^sa * R / (L*da).
    """
    na, nb = a._num, b._num
    if not nb:
        raise ZeroDivisionError("division by the zero polynomial")
    if not na:
        return _ZERO, _ZERO
    quot, rem = pseudo_divmod(na, nb)
    den = nb[-1] ** max(len(na) - len(nb) + 1, 0) * a._den
    sign = 1 if den > 0 else -1
    scale = b._den * sign
    return (_canonical(a._shift - b._shift, [c * scale for c in quot], den * sign),
            _canonical(a._shift, [c * sign for c in rem], den * sign))


def _rep_or_none(value: PolyLike) -> Optional[LaurentPoly]:
    """The normal form, or None for zero."""
    q = value if type(value) is LaurentPoly else as_laurent(value)
    return normalize(q) if q._num else None


def _checked_rep(coeffs: tuple) -> LaurentPoly:
    """A computed integer tuple, lowest exponent first, as a normal form;
    raises if it is not one."""
    if not coeffs:
        raise ZeroPolynomial("a primitive representative cannot be zero")
    if coeffs[0] == 0:
        raise ValueError("constant term must be nonzero")
    if coeffs[-1] <= 0:
        raise ValueError("leading coefficient must be positive")
    if math.gcd(*coeffs) != 1:
        raise ValueError("coefficients must have gcd 1")
    return _make(0, tuple(coeffs), 1)


def gcd(p: PolyLike, q: PolyLike) -> LaurentPoly:
    """Greatest common divisor, as a normal form.

    Computed on the primitive representatives in Z[t] (Gauss's lemma) by
    the heuristic GCD of Char, Geddes and Gonnet (``zfactor.poly_gcd``),
    which verifies its answer by exact division and falls back to a
    primitive PRS gcd, so the result is exact.

    >>> gcd(parse("t - 1"), parse("t + 1"))
    LaurentPoly('1')
    >>> gcd(parse("t^2 - 1"), parse("t^3 - 3*t^2 + 3*t - 1"))
    LaurentPoly('t - 1')
    >>> gcd(parse("t^2 - 1"), LaurentPoly.zero())
    LaurentPoly('t^2 - 1')
    """
    a, b = _rep_or_none(p), _rep_or_none(q)
    if a is None and b is None:
        raise BothZero("gcd(0, 0) is undefined")
    if a is None or b is None:
        return a or b
    return _checked_rep(poly_gcd(a._num, b._num))


def divides(d: PolyLike, p: PolyLike) -> bool:
    """True iff d divides p in the ring (up to units). Everything divides 0."""
    dd, pp = _rep_or_none(d), _rep_or_none(p)
    if pp is None:
        return True
    if dd is None:
        return False
    return exact_div(pp._num, dd._num) is not None


def exact_quotient(p: PolyLike, d: PolyLike) -> LaurentPoly:
    """The normal form of p/d; raises if d does not divide p."""
    pp, dd = _rep_or_none(p), _rep_or_none(d)
    if dd is None:
        raise ZeroDivisionError("division by the zero polynomial")
    if pp is None:
        raise ZeroPolynomial("quotient of zero has no representative")
    q = exact_div(pp._num, dd._num)
    if q is None:
        raise ValueError(f"{as_laurent(d)} does not divide {as_laurent(p)}")
    return _checked_rep(q)


def multiplicity(prime: PolyLike, p: PolyLike) -> int:
    """The exact power to which a nonunit divisor appears in p.

    >>> multiplicity("t - 1", "t^3 - 3*t^2 + 3*t - 1")
    3
    """
    g = normalize(prime)
    if g.is_one:
        raise ValueError("multiplicity of a unit is not defined")
    current = _rep_or_none(p)
    if current is None:
        raise ZeroPolynomial("multiplicity in the zero polynomial is not defined")
    coeffs, count = current._num, 0
    while (coeffs := exact_div(coeffs, g._num)) is not None:
        count += 1
    return count


def _cyclotomic_orders(bound: int) -> list[tuple[int, int]]:
    """Every n with Euler phi(n) <= bound, as (n, phi(n)) pairs by n.

    phi is multiplicative and phi(p^k) = p^(k-1)*(p - 1) >= p - 1, so every
    such n is a product of prime powers p^k with p <= bound + 1; the search
    multiplies them together in increasing order of p while phi stays within
    the bound.

    >>> _cyclotomic_orders(2)
    [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2)]
    """
    sieve = bytearray([1]) * (bound + 2)
    primes = []
    for p in range(2, bound + 2):
        if sieve[p]:
            primes.append(p)
            sieve[p * p::p] = bytes(len(range(p * p, bound + 2, p)))
    orders = []
    stack = [(1, 1, 0)]  # (n, phi(n), index of the smallest prime still free)
    while stack:
        n, phi, start = stack.pop()
        orders.append((n, phi))
        for i in range(start, len(primes)):
            p = primes[i]
            power, phi_power = p, phi * (p - 1)
            if phi_power > bound:
                break
            while phi_power <= bound:
                stack.append((n * power, phi_power, i + 1))
                power, phi_power = power * p, phi_power * p
    return sorted(orders)


# Phi_n and Phi_n(2) by n: constants of the ring, built on first use
_CYCLOTOMIC: dict[int, tuple[int, ...]] = {}
_CYCLOTOMIC_AT_2: dict[int, int] = {}
# _cyclotomic_orders(_ORDERS_BOUND), rebuilt when a larger degree is factored
_ORDERS_BOUND, _CYCLOTOMIC_ORDERS = -1, []


def _proper_divisors(n: int) -> list[int]:
    return [d for d in range(1, n // 2 + 1) if n % d == 0]


def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n: t^n - 1 divided exactly by Phi_d for each proper divisor d."""
    coeffs = _CYCLOTOMIC.get(n)
    if coeffs is None:
        coeffs = (-1,) + (0,) * (n - 1) + (1,)
        for d in _proper_divisors(n):
            coeffs = exact_div(coeffs, _cyclotomic(d))
        _CYCLOTOMIC[n] = coeffs
    return coeffs


def _cyclotomic_at_2(n: int) -> int:
    """Phi_n(2) = (2^n - 1) / prod of Phi_d(2) over the proper divisors d.

    This is the Moebius product of the (2^d - 1)^mu(n/d), in integers only.
    """
    value = _CYCLOTOMIC_AT_2.get(n)
    if value is None:
        value = 2**n - 1
        for d in _proper_divisors(n):
            value //= _cyclotomic_at_2(d)
        _CYCLOTOMIC_AT_2[n] = value
    return value


def factor(p: PolyLike, degree_cap: int = DEFAULT_DEGREE_CAP):
    """Factor into pairwise non-associate irreducibles with multiplicities.

    Returns a tuple of ``(prime, multiplicity)`` pairs in canonical order
    whose product is similar to ``p``; units factor into the empty tuple.

    Cyclotomic factors come out first, by exact division in Z[t]: for every
    n with phi(n) at most the degree still left, Phi_n is divided out as
    often as it goes.  A cheap filter runs before each division: Phi_n(2)
    must divide the integer value at t = 2 of what is left, or Phi_n is not
    a factor.  Only the cofactor without cyclotomic factors goes to
    :func:`ialex.zfactor.factor_primitive` (Yun's square-free splitting,
    Cantor-Zassenhaus factorization mod a small prime, Hensel lifting and
    subset recombination), and a cofactor 1 is never passed on.

    >>> factor("t^2 - 1")
    ((LaurentPoly('t - 1'), 1), (LaurentPoly('t + 1'), 1))
    >>> factor("7")
    ()
    >>> factor("t^5 - 3*t^4 + 5*t^3 - 5*t^2 + 3*t - 1")
    ((LaurentPoly('t - 1'), 1), (LaurentPoly('t^2 - t + 1'), 2))
    >>> [str(prime) for prime, _ in factor("t^6 - 1")]
    ['t - 1', 't + 1', 't^2 - t + 1', 't^2 + t + 1']
    """
    global _ORDERS_BOUND, _CYCLOTOMIC_ORDERS
    rep = normalize(p)
    if rep.degree > degree_cap:
        raise DegreeCapExceeded(
            f"degree {rep.degree} exceeds the factorization cap {degree_cap}")
    if rep.degree > _ORDERS_BOUND:
        _ORDERS_BOUND, _CYCLOTOMIC_ORDERS = (
            rep.degree, _cyclotomic_orders(rep.degree))
    rest = rep._num
    at_2 = sum(c << i for i, c in enumerate(rest))
    found: list[tuple[LaurentPoly, int]] = []
    for n, phi in _CYCLOTOMIC_ORDERS:
        if phi >= len(rest):  # which holds for every phi(n) > rep.degree
            continue
        phi_at_2 = _cyclotomic_at_2(n)
        if at_2 % phi_at_2:
            continue
        cyclo, mult = _cyclotomic(n), 0
        while (quotient := exact_div(rest, cyclo)) is not None:
            rest, at_2, mult = quotient, at_2 // phi_at_2, mult + 1
        if mult:
            found.append((_checked_rep(cyclo), mult))
    if len(rest) > 1:
        found.extend((_checked_rep(part), mult)
                     for part, mult in factor_primitive(rest))
    return tuple(sorted(found, key=lambda pair: pair[0].sort_key()))


def is_alexander_type(p: PolyLike) -> bool:
    """True iff the normal form evaluates to +-1 at t = 1.

    >>> is_alexander_type("t^2 - t + 1")
    True
    >>> is_alexander_type("t - 1")
    False
    >>> is_alexander_type("3*t - 1")
    False
    """
    return sum(normalize(p)._num) in (1, -1)
