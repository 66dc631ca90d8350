"""Dense integer polynomial arithmetic and factorization in Z[t].

Polynomials are sequences of integer coefficients indexed from exponent 0
upward, the layout of the numerator of a ``laurent.LaurentPoly`` in normal
form; zero is the empty sequence.  This module is the one home for that
arithmetic: exact and pseudo-division, gcd, products by Kronecker
substitution, and the factorizer behind ``laurent.factor``.

:func:`factor_primitive` takes one route.  It first divides out the
cyclotomic factors exactly: for every n with phi(n) at most the degree
still left, in order of phi(n), Phi_n is divided out as often as it goes.
A cheap filter runs before each division, a repeated one included: Phi_n
is tried only if Phi_n(b) divides the value at b, the least b >= 2 with
f(b) nonzero (f(b) = 0 would pass every Phi_n).  For the five n with
phi(n) <= 2 a test past the filter is exact: Phi_n divides what is left
exactly when that vanishes at a primitive n-th root of unity, which sums
of coefficients by residue class of the exponent tell.  A nonconstant rest
is split by Yun's square-free decomposition, which also gives the
multiplicities, and each square-free part is factored on its own.  A part
of degree 1 is irreducible, and one of degree 2, a*t^2 + b*t + c, splits
exactly when its discriminant D = b^2 - 4ac is a square, into the
primitive parts of 2a*t + b -/+ sqrt(D).  A larger part takes the
classical small-prime route (von zur Gathen and Gerhard, *Modern Computer
Algebra*, 3rd ed., chapters 14 and 15):

- the first odd prime p not dividing the leading coefficient with the
  part square-free mod p;
- factorization over GF(p) by distinct-degree factorization and the
  equal-degree splitting of Cantor and Zassenhaus ("A new algorithm for
  factoring polynomials over finite fields", *Math. Comp.* 36, 1981).
  Residues mod f sit one per slot of a Python integer, and the Frobenius
  map h -> h^p mod f is a precomputed table of x^(p*j) mod f, so it costs
  one big-integer multiply-add per coefficient;
- Euclid's algorithm over GF(p), for these gcds and the Bezout cofactors
  of the lifting, on packed integers with lazy reduction.  A remainder is
  one integer whose slots are 64 bits wide, or as wide as p^4 needs when
  that is more.  A division row reads its leading slot and adds a
  multiple of the divisor to the dividend in one multiply-add; slots are
  never negative and are not reduced mod p after a row.  Each value keeps
  a bound on its slots, and it is reduced (unpacked, taken mod p and
  packed again) only when the next row could take a slot past the width;
  p^4 leaves room for at least one row after both sides are reduced.
  Only the cofactor of the first input is carried; the second follows
  from one exact division;
- quadratic Hensel lifting down a binary factor tree, each node split
  where the degrees of its two sides are closest (ibid., Alg. 15.10 and
  15.17), until p^k exceeds twice Mignotte's bound on a factor of degree
  at most n/2, in Knuth's form (TAOCP vol. 2, section 4.6.2), with
  products of residues by Kronecker substitution (ibid., section 8.4) in
  slots sized by the modulus and long division on one packed integer.  A
  lifting step packs its operands once and forms each correction as one
  packed sum of two products;
- recombination of lifted factors over subsets of growing size, each read
  on its side of degree at most n/2, the side that bound makes exact,
  filtered by the constant-term test and accepted only when it divides
  exactly.

The factors found, with their multiplicities, are checked to multiply back
to f by one evaluation at a power of two in slots wider than twice the
product of their 1-norms.

:func:`poly_gcd` is the heuristic GCD of Char, Geddes and Gonnet (1989),
which reads the gcd off the integer gcd of two values, with primitive
pseudo-remainder Euclid as its fallback.

Only the standard library is imported.  There is no floating point, and
the random choices of the splitting step come from a generator seeded per
call, so the same input always does the same work.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from array import array
from typing import Optional, Sequence

__all__ = [
    "exact_div",
    "factor_mod_p",
    "factor_primitive",
    "hensel_lift",
    "kron_pack",
    "kron_unpack",
    "poly_gcd",
    "poly_mul",
    "pseudo_divmod",
]

Poly = Sequence[int]

# degrees per gcd in distinct-degree factorization
DDF_BLOCK = 4
# each equal-degree splitting try succeeds with probability at least 4/9
EDF_TRIES = 64
# evaluation points the heuristic gcd tries before pseudo-remainder Euclid
HEU_GCD_TRIES = 6

# -- dense integer polynomials ---------------------------------------------


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _sub(a: Poly, b: Poly) -> list:
    return _trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _reduce(a: Poly, m: int) -> list:
    return _trim([c % m for c in a])


def _add_mod(a: Poly, b: Poly, m: int, scale: int = 1) -> list:
    """a + scale*b reduced mod m, in one pass."""
    return _trim([(x + scale * y) % m
                  for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _derivative(a: Poly) -> list:
    return _trim([i * c for i, c in enumerate(a)][1:])


def exact_div(a: Poly, b: Poly) -> Optional[tuple[int, ...]]:
    """The quotient a / b of integer coefficient tuples, or None.

    b must be primitive.  By Gauss's lemma a primitive b divides a over Q
    exactly when it divides it in Z[t], so the leading coefficient of b must
    divide every step of the long division exactly.  A power of t in b is
    divided out of a first.

    >>> exact_div((-1, 0, 1), (1, 1))
    (-1, 1)
    >>> exact_div((1, 0, 1), (1, 1)) is None
    True
    >>> exact_div((0, 0, 1), (0, 1)), exact_div((1, 1), (0, 1))
    ((0, 1), None)
    >>> exact_div((), (1, 1))
    ()
    >>> exact_div((1, 1), ())
    Traceback (most recent call last):
    ...
    ZeroDivisionError: division by the zero polynomial
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ()
    if not b[0]:
        low = next(i for i, c in enumerate(b) if c)
        if any(a[:low]):
            return None
        a, b = a[low:], b[low:]
    db = len(b) - 1
    shift = len(a) - 1 - db
    if shift < 0 or a[0] % b[0]:
        return None
    rem = list(a)
    lead = b[-1]
    quot = [0] * (shift + 1)
    for i in range(shift, -1, -1):
        c, r = divmod(rem[i + db], lead)
        if r:
            return None
        if c:
            quot[i] = c
            for j in range(db):
                rem[i + j] -= c * b[j]
    if any(rem[:db]):
        return None
    return tuple(quot)


def _primitive(a: Poly) -> list:
    """a over its content, with positive leading coefficient."""
    content = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // content for c in a]


def _evaluate(a: Poly, x: int) -> int:
    value = 0
    for c in reversed(a):
        value = value * x + c
    return value


def _symmetric_digits(value: int, x: int) -> list:
    """The polynomial h with h(x) = value whose coefficients are the
    base-x digits of value taken in (-x/2, x/2]."""
    digits = []
    while value:
        d = value % x
        if d > x // 2:
            d -= x
        digits.append(d)
        value = (value - d) // x
    return digits


def pseudo_divmod(a: Poly, b: Poly) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """q and r with lc(b)^(d+1) * a = q*b + r, r shorter than b and trimmed,
    for d = deg a - deg b (d + 1 counts as 0 when a is shorter than b); each
    step scales a by lc(b) and subtracts a multiple of b, so none divides
    (Knuth, TAOCP vol. 2, section 4.6.1, Algorithm R).

    >>> pseudo_divmod((1, 0, 1), (1, 2))    # 4*(t^2 + 1) = (2t - 1)(2t + 1) + 5
    ((-1, 2), (5,))
    """
    n, lead = len(b) - 1, b[-1]
    r, q = list(a), []
    for i in range(len(a) - 1 - n, -1, -1):
        c = r.pop()
        if lead != 1:
            r = [lead * x for x in r]
            q = [lead * x for x in q]
        q.append(c)
        if c:
            for j in range(n):
                r[i + j] -= c * b[j]
    return tuple(reversed(q)), tuple(_trim(r))


def _prs_gcd(f: Poly, g: Poly) -> list:
    """The primitive gcd of primitive f and g of positive degree, by
    Euclid on pseudo-remainders made primitive at every step (Knuth, TAOCP
    vol. 2, section 4.6.1, Algorithm E)."""
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        f = pseudo_divmod(f, g)[1]
        if not f:
            return g
        f, g = g, _primitive(f)
    return [1]


def poly_gcd(a: Poly, b: Poly) -> tuple[int, ...]:
    """gcd in Z[t] of two nonzero polynomials, with positive leading
    coefficient; primitive when either argument is.

    The gcd of the contents times the gcd of the primitive parts f and g,
    which is the heuristic GCD of Char, Geddes and Gonnet ("GCDHEU: Heuristic
    polynomial GCD algorithm based on integer GCD computation", *J. Symb.
    Comp.* 7, 1989) with the evaluation point of Liao and Fateman (1995):
    the symmetric base-xi digits of gcd(f(xi), g(xi)), made primitive, are
    accepted when they divide both f and g.  Every xi tried is at least twice
    a root bound of f or g, which makes a common divisor found this way the
    gcd itself.  xi grows after each miss; after HEU_GCD_TRIES misses, a
    primitive pseudo-remainder Euclid gives the gcd instead.

    >>> poly_gcd((-1, 0, 1), (1, -2, 1))
    (-1, 1)
    >>> poly_gcd((0, 6, 6), (4, 4))
    (2, 2)
    """
    content = math.gcd(*a, *b)
    if len(a) == 1 or len(b) == 1:
        return (content,)
    f, g = _primitive(a), _primitive(b)
    norm_f, norm_g = max(map(abs, f)), max(map(abs, g))
    bound = 2 * min(norm_f, norm_g) + 29
    # every root r of f has |r| < 1 + norm_f / lc(f) (Cauchy); from twice
    # that on, |q(xi)| > xi/2 for a nonconstant q dividing f, so a candidate
    # dividing both inputs cannot miss a factor q of the gcd: q(xi) would
    # divide the candidate's content, made of digits at most xi/2
    roots = min(-(-norm_f // f[-1]), -(-norm_g // g[-1]))
    xi = max(min(bound, 99 * math.isqrt(bound)), 2 * roots + 2)
    for _ in range(HEU_GCD_TRIES):
        h = _primitive(_symmetric_digits(
            math.gcd(_evaluate(f, xi), _evaluate(g, xi)), xi))
        if exact_div(f, h) is not None and exact_div(g, h) is not None:
            return tuple(content * c for c in h)
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return tuple(content * c for c in _prs_gcd(f, g))


# -- Kronecker substitution -------------------------------------------------

# array typecodes by slot width in bits
_ARRAY_CODES = {array(code).itemsize * 8: code for code in "QIHB"}
_SWAP_BYTES = sys.byteorder != "little"  # arrays are in native byte order


def _slot_bits(bound: int) -> int:
    """The narrowest slot for values in [0, bound]: 8, 16, 32 or 64 bits,
    packed through an array, or else whole bytes."""
    bits = bound.bit_length()
    for width in (8, 16, 32, 64):
        if bits <= width:
            return width
    return (bits + 7) // 8 * 8


def _pack(coeffs: Poly, bits: int) -> int:
    """The integer sum of coeffs[i] * 2^(bits*i), for coefficients in
    [0, 2^bits) and a multiple of 8 bits."""
    code = _ARRAY_CODES.get(bits)
    if code is None:
        width = bits // 8
        return int.from_bytes(
            b"".join(c.to_bytes(width, "little") for c in coeffs), "little")
    slots = array(code, coeffs)
    if _SWAP_BYTES:
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack_all(value: int, bits: int) -> list[int]:
    """The slots of a nonnegative value up to its highest nonzero one."""
    return _unpack(value, bits, -(-value.bit_length() // bits))


def _unpack(value: int, bits: int, n: int) -> list[int]:
    """The n slots of a value in [0, 2^(bits*n))."""
    width = bits // 8
    raw = value.to_bytes(width * n, "little")
    code = _ARRAY_CODES.get(bits)
    if code is None:
        return [int.from_bytes(raw[i:i + width], "little")
                for i in range(0, width * n, width)]
    slots = array(code, raw)
    if _SWAP_BYTES:
        slots.byteswap()
    return slots.tolist()


def kron_pack(coeffs: Poly, bits: int) -> int:
    """The integer sum of coeffs[i] * 2^(bits*i), for a multiple of 8 bits
    and |coeffs[i]| < 2^(bits - 1).

    Each slot is biased by 2^(bits - 1) so that it is a nonnegative digit,
    the digits are packed, and the bias is taken off again.

    >>> kron_pack([3, -1], 8)
    -253
    """
    half = 1 << (bits - 1)
    return (_pack([c + half for c in coeffs], bits)
            - _bias(half, bits, len(coeffs)))


def kron_unpack(value: int, bits: int, n: int) -> list[int]:
    """The n signed slots of ``kron_pack``'s value, each in
    [-2^(bits - 1), 2^(bits - 1)).

    >>> kron_unpack(-253, 8, 2)
    [3, -1]
    """
    half = 1 << (bits - 1)
    return [c - half
            for c in _unpack(value + _bias(half, bits, n), bits, n)]


def _bias(half: int, bits: int, n: int) -> int:
    return int.from_bytes(half.to_bytes(bits // 8, "little") * n, "little")


def poly_mul(a: Poly, b: Poly) -> list[int]:
    """The product of two integer polynomials, by Kronecker substitution.

    >>> poly_mul([1, 1], [-1, 0, 1])
    [-1, -1, 1, 1]
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    bound = (max(1, *map(abs, a)) * max(1, *map(abs, b))
             * min(len(a), len(b)))  # also at least every coefficient
    bits = _slot_bits(2 * bound + 1)
    return kron_unpack(kron_pack(a, bits) * kron_pack(b, bits), bits, n)


def _mul_residues(a: Poly, b: Poly, m: int) -> list[int]:
    """The product, not reduced, of two polynomials with coefficients in
    [0, m): ``poly_mul`` with its slot width read off m, not the factors."""
    if not a or not b:
        return []
    bits = _slot_bits((m - 1) ** 2 * min(len(a), len(b)))
    return _unpack(_pack(a, bits) * _pack(b, bits), bits, len(a) + len(b) - 1)


def _divmod(a: Poly, h: Poly, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by h over Z/m, for a reduced mod m and
    the leading coefficient of h a unit mod m: ``_divide`` on a packed in
    slots wide enough for every row."""
    n, dh = len(a), len(h) - 1
    if n <= dh:
        return [], list(a)
    bits = _slot_bits(m + (n - dh) * (m - 1) ** 2)
    quot, rem = _divide(_pack(a, bits), _pack(h[:-1], bits), dh,
                        pow(h[-1], -1, m), m, bits)
    return (_unpack(quot, bits, n - dh),
            _reduce(_unpack(rem, bits, dh), m))


def _divide(rem: int, head: int, dh: int, inv: int, m: int,
            bits: int) -> tuple[int, int]:
    """The packed quotient and remainder over Z/m of a packed value by h of
    degree dh, given as its packed lower part ``head`` and the inverse of
    its leading coefficient.

    The long division runs on the packed value: a row adds m - c times
    head, shifted, so each slot stays nonnegative and gains less than m^2.
    The slots must be wide enough for every row, so only the coefficient
    that leads a row is reduced, when it is read; the remainder's dh slots
    are not reduced.
    """
    mask, quot = (1 << bits) - 1, 0
    for i in range(-(-rem.bit_length() // bits) - 1, dh - 1, -1):
        c = ((rem >> (bits * i)) & mask) * inv % m
        if c:
            k = bits * (i - dh)
            quot |= c << k
            rem += (m - c) * head << k
    return quot, rem & ((1 << (bits * dh)) - 1)


# -- GF(p)[x] ---------------------------------------------------------------


def _gf_monic(a: Poly, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_gcd(a: Poly, b: Poly, p: int, cofactor: bool = False) -> tuple[list, list]:
    """The monic gcd g over GF(p) of reduced a and b, not both zero, and,
    when ``cofactor`` is set, the s with g = s*a mod b that Euclid's
    algorithm gives, trimmed ([] when it is not set).

    Every remainder, and s, is one packed integer (see the module notes).
    A division row reads the slot that leads it by a shift, a mask and
    ``% p`` and then adds p - c times the packed divisor below its leading
    slot, shifted, to the dividend; the same multiple of the divisor's
    cofactor goes into the dividend's.  Slots are never negative, and each
    value keeps a bound on its slots; a value is reduced only when a row
    would take a slot past the slot width.  Slots read as zero mod p on top
    of a remainder are dropped.
    """
    bits = _slot_bits(max(p ** 4, 1 << 63))
    mask, bound = (1 << bits) - 1, p - 1

    def reduced(value: int) -> int:
        return _pack([c % p for c in _unpack_all(value, bits)], bits)

    r0, n0, b0 = _pack(a, bits), len(a), bound
    r1, n1, b1 = _pack(b, bits), len(b), bound
    s0, s1, c0, c1 = 1, 0, 1, 0  # the cofactors of a and their slot bounds
    while n1:
        d = n1 - 1
        inv = pow((r1 >> bits * d) % p, -1, p)
        head = r1 & ((1 << bits * d) - 1)
        for i in range(n0 - 1, d - 1, -1):
            c = ((r0 >> bits * i) & mask) * inv % p
            if not c:
                continue
            if b0 + bound * b1 > mask:
                r0, b0 = reduced(r0), bound
                if b0 + bound * b1 > mask:
                    r1, b1 = reduced(r1), bound
                    head = r1 & ((1 << bits * d) - 1)
            r0 += (p - c) * head << bits * (i - d)
            b0 += bound * b1
            if cofactor:
                if c0 + bound * c1 > mask:
                    s0, c0 = reduced(s0), bound
                    if c0 + bound * c1 > mask:
                        s1, c1 = reduced(s1), bound
                s0 += (p - c) * s1 << bits * (i - d)
                c0 += bound * c1
        n0 = min(n0, d)
        while n0 and not ((r0 >> bits * (n0 - 1)) & mask) % p:
            n0 -= 1
        r0 &= (1 << bits * n0) - 1
        r0, n0, b0, r1, n1, b1 = r1, n1, b1, r0, n0, b0
        s0, c0, s1, c1 = s1, c1, s0, c0
    g = _unpack(r0, bits, n0)
    inv = pow(g[-1], -1, p)
    s = _trim([c * inv % p for c in _unpack_all(s0, bits)]) if cofactor else []
    return [c * inv % p for c in g], s


def _gf_gcdex(a: Poly, b: Poly, p: int) -> tuple[list, list]:
    """s and t with s*a + t*b = 1 over GF(p), for coprime a and b: s from
    ``_gf_gcd``, t as the exact quotient (1 - s*a) / b."""
    g, s = _gf_gcd(a, b, p, cofactor=True)
    if g != [1]:
        raise RuntimeError("Hensel lifting needs factors coprime mod p")
    t, r = _divmod(_add_mod([1], _mul_residues(s, a, p), p, -1), b, p)
    if r:
        raise RuntimeError(f"{b} does not divide 1 - s*a mod {p}")
    return s, t


class _QuotientRing:
    """GF(p)[x]/(f) for a monic f of degree n >= 2, on packed integers.

    An element is a list of at most n residues.  Products are Kronecker
    products; only their slots above n are reduced mod p, to fold back
    through the packed rows x^(n+i) mod f onto the unreduced slots below.
    The Frobenius map goes through the packed rows x^(p*j) mod f, each a
    scalar multiply-add per coefficient.  No slot ever holds more than
    2*n*p^2, which sets the slot width.
    """

    def __init__(self, f: Poly, p: int):
        n = len(f) - 1
        self.p, self.n = p, n
        self.bits = bits = _slot_bits(2 * n * p * p)
        top = [-c % p for c in f[:-1]]  # x^n mod f
        row, fold = top, []
        for _ in range(n - 1):
            fold.append(_pack(row, bits))
            lead = row[-1]
            row = [0] + row[:-1]
            if lead:
                row = [(r + lead * c) % p for r, c in zip(row, top)]
        self.fold = fold
        # x^(p*j) mod f: read off directly up to x^(2n-2), then x^p times
        # the row before
        table = [self.power_of_x(e) for e in range(0, 2 * n - 1, p)]
        row = _unpack(table[-1], bits, n)
        x_p = _trim(_unpack(self.power_of_x(p), bits, n))
        while len(table) < n:
            row = self.mul(row, x_p)
            table.append(_pack(row, bits))
        self.table = table

    def power_of_x(self, e: int) -> int:
        """x^e mod f, packed: a monomial below x^n, a fold row up to
        x^(2n-2), and only past that a power."""
        if e < self.n:
            return 1 << self.bits * e
        if e <= 2 * self.n - 2:
            return self.fold[e - self.n]
        return _pack(self.pow([0, 1], e), self.bits)

    def mul(self, a: list, b: list) -> list:
        if not a or not b:
            return []
        p, bits, n = self.p, self.bits, self.n
        prod = _pack(a, bits) * _pack(b, bits)
        if len(a) + len(b) - 1 <= n:
            return [c % p for c in _unpack(prod, bits, len(a) + len(b) - 1)]
        high = [c % p for c in _unpack(prod >> bits * n, bits,
                                       len(a) + len(b) - 1 - n)]
        acc = (prod & ((1 << bits * n) - 1)) + sum(
            c * row for c, row in zip(high, self.fold) if c)
        return [c % p for c in _unpack(acc, bits, n)]

    def pow(self, a: list, e: int) -> list:
        result = [1]
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result

    def frobenius(self, a: list) -> list:
        """a^p mod f: the sum of a_j * x^(p*j), as c^p = c in GF(p)."""
        acc = sum(c * row for c, row in zip(a, self.table) if c)
        return [c % self.p for c in _unpack(acc, self.bits, self.n)]


def _distinct_degree(f: list, ring: _QuotientRing) -> list[tuple[list, int]]:
    """(g, d) pairs: g is the product of the factors of degree d of f.

    The degrees go in blocks of DDF_BLOCK: one gcd of what is left of f
    with the product of the x^(p^d) - x over the block takes out every
    factor whose degree is in the block, and only a nontrivial gcd is split
    further, by degree, with gcds of that smaller polynomial.
    """
    p = ring.p
    parts, rest, h, d = [], f, [0, 1], 0
    while 2 * (d + 1) <= len(rest) - 1:
        block, product = [], [1]
        while len(block) < DDF_BLOCK and 2 * (d + 1) <= len(rest) - 1:
            d += 1
            h = ring.frobenius(h)  # x^(p^d) mod f
            u = list(h)
            u[1] = (u[1] - 1) % p
            block.append((d, u))
            product = ring.mul(product, u)
        found = _gf_gcd(rest, _trim(product), p)[0]
        if len(found) == 1:
            continue
        rest = _divmod(rest, found, p)[0]
        for degree, u in block:
            g = _gf_gcd(_trim(u), found, p)[0]
            if len(g) > 1:
                parts.append((g, degree))
                found = _divmod(found, g, p)[0]
                if len(found) == 1:
                    break
    if len(rest) > 1:
        parts.append((rest, len(rest) - 1))
    return parts


def _equal_degree(g: list, d: int, ring: _QuotientRing,
                  rng: random.Random) -> list[list]:
    """The monic factors of g, all of degree d (Cantor-Zassenhaus).

    For a random a, gcd(a^((p^d - 1)/2) - 1, g) splits g with probability
    about 1/2.  The power is the norm a * a^p * ... * a^(p^(d-1)), taken
    through the Frobenius table, raised to (p - 1)/2.  Everything is
    computed mod the f of the table, which g divides.
    """
    if len(g) - 1 == d:
        return [g]
    p = ring.p
    for _ in range(EDF_TRIES):
        a = [rng.randrange(p) for _ in range(len(g) - 1)]
        norm = conj = a
        for _ in range(d - 1):
            conj = ring.frobenius(conj)
            norm = ring.mul(norm, conj)
        w = _trim(ring.pow(norm, (p - 1) // 2))
        w = _trim([(w[0] - 1) % p] + w[1:]) if w else [p - 1]
        h = _gf_gcd(w, g, p)[0]
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, ring, rng)
                    + _equal_degree(_divmod(g, h, p)[0], d, ring, rng))
    raise RuntimeError(f"no split of a product of degree-{d} factors mod {p}")


def factor_mod_p(f: Poly, p: int) -> Optional[list[list[int]]]:
    """The monic irreducible factors, sorted, of a polynomial that is
    nonzero mod the odd prime p, or None when it is not square-free mod p.

    p below 3 or even is refused.  That p is prime is not checked: for a
    composite p the result means nothing.  The generator of the splitting
    step, seeded with p, is built only for a distinct-degree part that
    holds more than one factor.

    >>> factor_mod_p([1, 0, 1], 5)
    [[2, 1], [3, 1]]
    >>> factor_mod_p([1, 2, 1], 5) is None
    True
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"{p} is not an odd prime")
    f = _reduce(f, p)
    if len(_gf_gcd(f, _reduce(_derivative(f), p), p)[0]) > 1:
        return None
    f = _gf_monic(f, p)
    if len(f) <= 2:
        return [f] if len(f) == 2 else []
    ring = _QuotientRing(f, p)
    factors, rng = [], None
    for g, d in _distinct_degree(f, ring):
        if len(g) - 1 > d and rng is None:
            rng = random.Random(p)
        factors.extend(_equal_degree(g, d, ring, rng))
    return sorted(factors, key=lambda q: (len(q), q))


def _odd_primes():
    primes = []
    for n in itertools.count(3, 2):
        if all(n % q for q in itertools.takewhile(lambda q: q * q <= n, primes)):
            primes.append(n)
            yield n


def _modular_factorization(f: Poly) -> tuple:
    """For a square-free f: the first odd prime p not dividing lc(f) with
    f square-free mod p, and the monic factors of f mod p."""
    for p in _odd_primes():
        if f[-1] % p:
            factors = factor_mod_p(f, p)
            if factors is not None:
                return p, factors


# -- Hensel lifting ------------------------------------------------------------


def _hensel_step(f, g, h, s, t, m0: int, m1: int, inverses: bool):
    """From f = g*h and s*g + t*h = 1 mod m0 to the same mod m0*m1, for
    g, h, s and t residues mod m0, h monic and m1 dividing m0 (von zur
    Gathen and Gerhard, Alg. 15.10).

    Both errors f - g*h and s*g + t*h - 1 are divisible by m0, so each
    correction is m0 times one computed mod m1 from the error over m0; g
    and h keep their residues mod m1.  The Bezout cofactors s and t are
    lifted only when ``inverses`` is set.  s, t and g mod m1 and the error
    are packed once; each sum of two products is one packed sum, unpacked
    once and reduced only where it is added on, since m0*y mod m0*m1 needs
    only y mod m1.
    """
    m = m0 * m1
    e = _trim([(x - y) % m // m0 for x, y in itertools.zip_longest(
        f, _mul_residues(g, h, m0), fillvalue=0)])
    bits = _slot_bits(2 * (m1 - 1) ** 2 * len(f))
    # s, t, g and h below its leading 1, all mod m1, packed
    s1, t1, g1, h1 = (_pack(a if m1 == m0 else _reduce(a, m1), bits)
                      for a in (s, t, g, h[:-1]))
    dh = len(h) - 1

    def correct(err: list) -> tuple[list, list]:
        """The corrections over m0 of the pair (h or s, g or t): the
        remainder of s1*err by h, and t1*err + q*g1 for its quotient q."""
        err = _pack(err, bits)
        q, r = _divide(s1 * err, h1, dh, 1, m1, bits)
        return _unpack(r, bits, dh), _unpack_all(t1 * err + q * g1, bits)

    r, dg = correct(e)
    g, h = _add_mod(g, dg, m, m0), _add_mod(h, r, m, m0)
    if inverses:
        wide = _slot_bits(2 * (m - 1) ** 2 * len(f))
        b = _unpack_all(_pack(s, wide) * _pack(g, wide)
                        + _pack(t, wide) * _pack(h, wide), wide)
        b[0] -= 1
        ds, dt = correct(_trim([x % m // m0 for x in b]))
        s, t = _add_mod(s, ds, m, -m0), _add_mod(t, dt, m, -m0)
    return g, h, s, t


def hensel_lift(f: Poly, factors: list, p: int, k: int) -> list[list[int]]:
    """Monic F_i with f = lc(f) * prod F_i mod p^k and F_i = f_i mod p.

    ``factors`` are monic, pairwise coprime mod p, and f = lc(f) * prod f_i
    mod p with p not dividing lc(f).  The list is split in two where the
    degrees of the parts are closest, since a node's lift costs about its
    degree; the two products are lifted together with quadratic steps along
    the exponents 1, ..., ceil(k/2), k, and each part is lifted in turn.

    >>> hensel_lift([-2, 0, 1], [[3, 1], [4, 1]], 7, 2)
    [[10, 1], [39, 1]]
    """
    modulus = p**k
    lead = f[-1]
    if len(factors) == 1:
        inv = pow(lead, -1, modulus)
        return [_reduce([c * inv for c in f], modulus)]
    ends = list(itertools.accumulate(len(q) - 1 for q in factors))
    half = min(range(1, len(factors)),
               key=lambda i: abs(2 * ends[i - 1] - ends[-1]))
    g = [lead % p]
    for q in factors[:half]:
        g = _reduce(_mul_residues(g, q, p), p)
    h = [1]
    for q in factors[half:]:
        h = _reduce(_mul_residues(h, q, p), p)
    s, t = _gf_gcdex(g, h, p)
    exponents = [k]
    while exponents[-1] > 1:
        exponents.append((exponents[-1] + 1) // 2)
    exponents.reverse()
    for e0, e1 in zip(exponents, exponents[1:]):
        g, h, s, t = _hensel_step(f, g, h, s, t, p**e0, p**(e1 - e0),
                                  inverses=e1 < k)
    return (hensel_lift(g, factors[:half], p, k)
            + hensel_lift(h, factors[half:], p, k))


# -- factorization in Z[t] -------------------------------------------------------


def _squarefree_parts(f: Poly) -> list[tuple[tuple, int]]:
    """Yun's square-free decomposition of a primitive f with positive
    leading coefficient: (part, multiplicity) pairs, parts of positive
    degree, pairwise coprime, with f = prod part^multiplicity."""
    df = _derivative(f)
    g = poly_gcd(f, df)
    if len(g) == 1:
        return [(tuple(f), 1)]
    parts = []
    b, c, i = exact_div(f, g), exact_div(df, g), 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a = poly_gcd(b, d) if d else b
        if len(a) > 1:
            parts.append((a, i))
        b = exact_div(b, a)
        c = exact_div(d, a) if d else ()
        if b is None or c is None:
            raise RuntimeError("square-free decomposition lost exactness")
        i += 1
    return parts


def _closed_form(f: tuple) -> list[tuple]:
    """The irreducible factors of a primitive f of degree 1 or 2 with
    positive leading coefficient, each as often as it divides f.

    a*t^2 + b*t + c splits exactly when D = b^2 - 4ac is a square, into the
    primitive parts of 2a*t + b - sqrt(D) and 2a*t + b + sqrt(D), whose
    product is f by Gauss's lemma; D = 0 gives one factor twice.

    >>> _closed_form((2, -5, 2)), _closed_form((1, 2, 1))
    ([(-2, 1), (-1, 2)], [(1, 1), (1, 1)])
    """
    if len(f) == 2:
        return [f]
    c, b, a = f
    disc = b * b - 4 * a * c
    root = math.isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return [f]
    return [tuple(_primitive([b - root, 2 * a])),
            tuple(_primitive([b + root, 2 * a]))]


def _zassenhaus(f: tuple) -> list[tuple]:
    """The irreducible factors of a square-free primitive f of positive
    degree with positive leading coefficient: the closed form for degree 1
    or 2, else the modular route on the prime ``_modular_factorization``
    picks."""
    n = len(f) - 1
    if n <= 2:
        return _closed_form(f)
    p, modular = _modular_factorization(f)
    if len(modular) == 1:
        return [f]
    # f = g*h with deg g <= n/2 gives |coeff_j(lc(h)*g)| <= C(deg g, j) *
    # M(f) <= bound for the Mahler measure M(f) <= |f|_2 (Mignotte's bound in
    # Knuth's form, TAOCP vol. 2, section 4.6.2): exact mod p^k > 2*bound
    bound = math.comb(n // 2, n // 4) * (math.isqrt(sum(c * c for c in f)) + 1)
    k, modulus = 1, p
    while modulus <= 2 * bound:
        k, modulus = k + 1, modulus * p
    return _recombine(f, hensel_lift(f, modular, p, k), modulus)


def _recombine(f: tuple, lifted: list, modulus: int) -> list:
    """The factors of f from its lifted monic modular factors, by subsets
    of growing size, as in Zassenhaus's algorithm.

    A subset S stands for a split f = g*h with lc(h)*g = lead * prod_S F_i
    mod the modulus.  The modulus bounds only a side of degree at most
    deg f / 2, so the candidate is that side, S or its complement, in
    symmetric residues.  Its constant term must divide lead * f(0), and its
    primitive part must divide f exactly; S's factor is then that part or f
    over it.
    """
    constants, half = [q[0] for q in lifted], modulus // 2
    found, left, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(left):
        lead = f[-1]
        for subset in itertools.combinations(left, size):
            small = 2 * sum(len(lifted[i]) - 1 for i in subset) < len(f)
            side = subset if small else [i for i in left if i not in subset]
            q = lead * math.prod(constants[i] for i in side) % modulus
            if q > half:
                q -= modulus
            if not q or lead * f[0] % q:
                continue
            g = [lead]
            for i in side:
                g = _reduce(_mul_residues(g, lifted[i], modulus), modulus)
            g = tuple(_primitive([c - modulus if c > half else c for c in g]))
            quotient = exact_div(f, g)
            if quotient is None:
                continue
            found.append(g if small else quotient)
            f = quotient if small else g
            left = [i for i in left if i not in subset]
            break
        else:
            size += 1
    found.append(tuple(f))
    return found


def _cyclotomic_orders(bound: int) -> list[tuple[int, int]]:
    """Every n with Euler phi(n) <= bound, as (n, phi(n)) pairs by phi(n)
    and then n.

    phi is multiplicative and phi(p^k) = p^(k-1)*(p - 1) >= p - 1, so every
    such n is a product of prime powers p^k with p <= bound + 1; the search
    multiplies them together in increasing order of p while phi stays within
    the bound.

    >>> _cyclotomic_orders(4)
    [(1, 1), (2, 1), (3, 2), (4, 2), (6, 2), (5, 4), (8, 4), (10, 4), (12, 4)]
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
    return sorted(orders, key=lambda pair: (pair[1], pair[0]))


# _cyclotomic_orders(_ORDERS_BOUND), rebuilt when a larger degree is factored
_ORDERS_BOUND, _CYCLOTOMIC_ORDERS = -1, []


def _proper_divisors(n: int) -> list[int]:
    return [d for d in range(1, n // 2 + 1) if n % d == 0]


# Phi_n and Phi_n(b) are constants of the ring, built on first use
@functools.cache
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n: t^n - 1 divided exactly by Phi_d for each proper divisor d."""
    coeffs = (-1,) + (0,) * (n - 1) + (1,)
    for d in _proper_divisors(n):
        coeffs = exact_div(coeffs, _cyclotomic(d))
    return coeffs


@functools.cache
def _cyclotomic_at(n: int, b: int) -> int:
    """Phi_n(b) = (b^n - 1) / prod of Phi_d(b) over the proper divisors d.

    This is the Moebius product of the (b^d - 1)^mu(n/d), in integers only.
    """
    value = b**n - 1
    for d in _proper_divisors(n):
        value //= _cyclotomic_at(d, b)
    return value


def _vanishes_at_root(f: Poly, n: int) -> bool:
    """Whether f vanishes at a primitive n-th root of unity, phi(n) <= 2,
    read from the sums s[k] of coefficients over exponents k mod n: f(1),
    f(-1), f(i), and f(w) = s[0] + s[1]*w + s[2]*w^2 at a cube root of
    unity w, zero exactly when the three sums agree; n = 6 is n = 3 on f(-t).
    """
    if n == 6:
        f, n = [-c if k % 2 else c for k, c in enumerate(f)], 3
    s = [sum(f[k::n]) for k in range(n)]
    if n == 4:
        return s[0] == s[2] and s[1] == s[3]
    return not s[0] if n == 1 else s[0] == s[1] == s[-1]


def factor_primitive(f: Poly) -> list[tuple[tuple[int, ...], int]]:
    """The irreducible factors in Z[t], with multiplicities, of a primitive
    polynomial with nonzero constant term and positive leading coefficient.

    The factors are primitive with positive leading coefficients, ordered
    by degree and then coefficients; their product with multiplicities is
    checked to equal f, and a constant f has none.  Cyclotomic factors are
    divided out first, Yun's decomposition splits the rest into square-free
    parts, and ``_zassenhaus`` factors each part, in closed form up to
    degree 2 and by the modular route past that.  A zero constant term is
    refused, as recombination reads constant terms and a factor t has none,
    and so are a content other than 1 and a leading coefficient that is
    not positive.

    >>> factor_primitive((-1, 0, 0, 0, 1))
    [((-1, 1), 1), ((1, 1), 1), ((1, 0, 1), 1)]
    >>> factor_primitive((1, 2, 1))
    [((1, 1), 2)]
    >>> factor_primitive((2, -5, 2)) == [((-2, 1), 1), ((-1, 2), 1)]
    True
    """
    global _ORDERS_BOUND, _CYCLOTOMIC_ORDERS
    if not f or not f[0]:
        raise ValueError(f"{tuple(f)} has no nonzero constant term")
    if f[-1] <= 0 or math.gcd(*f) != 1:
        raise ValueError(f"{tuple(f)} is not primitive with positive "
                         "leading coefficient")
    if len(f) - 1 > _ORDERS_BOUND:
        _ORDERS_BOUND = len(f) - 1
        _CYCLOTOMIC_ORDERS = _cyclotomic_orders(_ORDERS_BOUND)
    rest, b = tuple(f), 2
    while not (at_b := _evaluate(rest, b)):   # f(b) = 0 passes any filter
        b += 1
    found = []
    for n, phi in _CYCLOTOMIC_ORDERS:
        if phi >= len(rest):  # and for every order after it
            break
        phi_at_b, mult = _cyclotomic_at(n, b), 0
        while at_b % phi_at_b == 0 and (
                phi > 2 or _vanishes_at_root(rest, n)) and (
                quotient := exact_div(rest, _cyclotomic(n))) is not None:
            rest, at_b, mult = quotient, at_b // phi_at_b, mult + 1
        if mult:
            found.append((_cyclotomic(n), mult))
    if len(rest) > 1:
        found += [(q, mult) for part, mult in _squarefree_parts(rest)
                  for q in _zassenhaus(part)]
    found.sort(key=lambda pair: (len(pair[0]), pair[0]))
    # no coefficient of the product passes prod |q|_1^m, so one evaluation
    # at 2^bits in signed slots of that width tells it apart from f
    bound = math.prod(sum(map(abs, q)) ** mult for q, mult in found)
    bits = _slot_bits(2 * bound + 1)
    if (max(map(abs, f)) > bound or kron_pack(f, bits)
            != math.prod(kron_pack(q, bits) ** mult for q, mult in found)):
        raise RuntimeError(f"factors of {tuple(f)} do not multiply back")
    return found
