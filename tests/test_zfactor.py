"""Components of the Z[t] factorizer: packing, modular arithmetic, lifting."""

import math
import random
from itertools import zip_longest

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_sqf_p

from conftest import seeded_eisenstein
from ialex import zfactor
from ialex.laurent import LaurentPoly
from ialex.zfactor import (
    exact_div,
    factor_mod_p,
    hensel_lift,
    kron_pack,
    kron_unpack,
    poly_gcd,
    poly_mul,
    pseudo_divmod,
)
from ialex.zfactor import _divmod, _gf_divmod
from oracles import sympy_factor, sympy_gcd

SMALL_PRIMES = (3, 5, 7, 11, 13)


def naive_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reduced(a, m):
    out = [c % m for c in a]
    while out and not out[-1]:
        out.pop()
    return out


# -- Kronecker substitution ---------------------------------------------------


@st.composite
def slot_vectors(draw):
    bits = draw(st.sampled_from([8, 16, 24, 32, 64, 72, 128]))
    half = 1 << (bits - 1)
    edge = st.sampled_from([-half, -half + 1, -1, 0, 1, half - 2, half - 1])
    coeffs = draw(st.lists(st.one_of(edge, st.integers(-half, half - 1)),
                           min_size=1, max_size=12))
    return bits, coeffs


@given(slot_vectors())
@settings(max_examples=150, deadline=None)
def test_kron_round_trip(case):
    bits, coeffs = case
    packed = kron_pack(coeffs, bits)
    assert packed == sum(c << (bits * i) for i, c in enumerate(coeffs))
    assert kron_unpack(packed, bits, len(coeffs)) == coeffs


def test_kron_round_trip_frozen():
    for bits in (8, 16, 64, 72):
        half = 1 << (bits - 1)
        for coeffs in ([0], [-half], [half - 1], [0, 0, 0], [-1, 0, 1],
                       [half - 1, -half, 0, -half, half - 1]):
            packed = kron_pack(coeffs, bits)
            assert kron_unpack(packed, bits, len(coeffs)) == coeffs, (bits, coeffs)


@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=20),
       st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_poly_mul_matches_convolution(a, b):
    assert poly_mul(a, b) == naive_mul(a, b)
    nonneg_a, nonneg_b = [abs(c) for c in a], [abs(c) for c in b]
    assert poly_mul(nonneg_a, nonneg_b) == naive_mul(nonneg_a, nonneg_b)


# -- gcd in Z[t] ----------------------------------------------------------------


def int_polys(max_degree, max_coeff):
    """Nonzero integer polynomials, lowest coefficient first."""
    return st.lists(st.integers(-max_coeff, max_coeff), min_size=1,
                    max_size=max_degree + 1).map(
        lambda c: c[:-1] + [c[-1] or 1])


@st.composite
def gcd_pairs(draw):
    """Pairs t^i * m * common * cofactor, up to degree 64 before the powers
    of t: shared factors, coprime pairs (common = 1), integer contents m,
    constants (degree 0 throughout), and coefficients up to 10^15, far past
    the first evaluation point for such inputs."""
    max_coeff = draw(st.sampled_from([1, 9, 10**15]))
    common = draw(st.one_of(st.just([1]), int_polys(32, max_coeff)))
    pair = []
    for _ in range(2):
        cofactor = draw(int_polys(32, max_coeff))
        content = draw(st.sampled_from([1, 1, -1, 6, -10**13]))
        shift = draw(st.integers(0, 3))
        pair.append([0] * shift + [content * c
                                   for c in poly_mul(common, cofactor)])
    return pair


@given(gcd_pairs())
@settings(max_examples=200, deadline=None)
def test_poly_gcd_matches_sympy(pair):
    a, b = pair
    assert poly_gcd(a, b) == sympy_gcd(a, b)


@given(gcd_pairs())
@settings(max_examples=60, deadline=None)
def test_prs_fallback_alone_matches_sympy(pair):
    a, b = pair
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zfactor, "HEU_GCD_TRIES", 0)
        assert poly_gcd(a, b) == sympy_gcd(a, b)


def test_large_coefficients_grow_the_evaluation_point(monkeypatch):
    """A gcd with 10^13-sized coefficients has digits too wide for the first
    point; the heuristic grows it and succeeds without the fallback."""
    tries = []
    real = zfactor._symmetric_digits
    monkeypatch.setattr(zfactor, "_symmetric_digits",
                        lambda value, x: tries.append(x) or real(value, x))
    monkeypatch.setattr(zfactor, "_prs_gcd", None)
    common = [7, -(10**13), 3 * 10**13 + 1]
    a = poly_mul(common, [1, 2, 3, 1])
    b = poly_mul(common, [5, 0, -1, 2])
    assert poly_gcd(a, b) == tuple(common) == sympy_gcd(a, b)
    assert len(tries) > 1 and tries == sorted(tries)


# -- pseudo-division in Z[t] --------------------------------------------------


_nonzero_top = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30).filter(
    lambda a: a[-1] != 0)


@given(_nonzero_top, _nonzero_top)
@settings(max_examples=200, deadline=None)
def test_pseudo_divmod_identity(a, b):
    """lc(b)^(d+1) * a = q*b + r with r shorter than b and trimmed."""
    q, r = pseudo_divmod(a, b)
    power = max(len(a) - len(b) + 1, 0)
    assert len(r) < len(b) and (not r or r[-1])
    assert len(q) == power
    rebuilt = naive_mul(q, b) if q else []
    rebuilt = [x + y for x, y in zip_longest(rebuilt, r, fillvalue=0)]
    while rebuilt and not rebuilt[-1]:
        rebuilt.pop()
    assert rebuilt == [b[-1] ** power * c for c in a]


# -- division over Z/m ----------------------------------------------------------


@given(st.sampled_from([3, 13, 2**31 - 1, 3**40, 10**50 + 1]),
       st.lists(st.integers(0, 10**60), min_size=1, max_size=40),
       st.lists(st.integers(0, 10**60), min_size=1, max_size=15))
@settings(max_examples=150, deadline=None)
def test_divmod_is_long_division(m, a, h):
    a, h = reduced(a, m), reduced(h, m)
    assume(h and math.gcd(h[-1], m) == 1)
    quot, rem = _divmod(a, h, m)
    assert len(rem) < len(h) and reduced(quot, m) == quot
    rebuilt = naive_mul(quot, h) if quot else [0]
    rebuilt = [x + y for x, y in zip_longest(rebuilt, rem, fillvalue=0)]
    assert reduced(rebuilt, m) == a


@st.composite
def short_quotient_pairs(draw):
    """(p, a, b) over GF(p) with deg a - deg b mostly 1, the one-pass case,
    and sometimes -1, 0 or 2, which go to the long division."""
    p = draw(st.sampled_from(SMALL_PRIMES + (2**31 - 1, 2**127 - 1)))
    residues = st.integers(0, p - 1)
    b = draw(st.lists(residues, min_size=0, max_size=12))
    b.append(draw(st.integers(1, p - 1)))
    d = draw(st.sampled_from([0, 1, 1, 1, -1, 2]))
    a = draw(st.lists(residues, min_size=max(len(b) + d - 1, 0),
                      max_size=max(len(b) + d - 1, 0)))
    if len(b) + d > 0:
        a.append(draw(st.integers(1, p - 1)))
    return p, a, b


@given(short_quotient_pairs())
@settings(max_examples=200, deadline=None)
def test_gf_divmod_matches_long_division(case):
    p, a, b = case
    assert _gf_divmod(a, b, p) == _divmod(a, b, p)


# -- GF(p) factorization -------------------------------------------------------


@given(st.sampled_from(SMALL_PRIMES),
       st.lists(st.integers(0, 12), min_size=2, max_size=40))
@settings(max_examples=150, deadline=None)
def test_factor_mod_p_matches_sympy(p, coeffs):
    f = reduced(coeffs, p)
    assume(len(f) >= 2)
    high_first = [ZZ(c) for c in reversed(f)]
    factors = factor_mod_p(f, p)
    if not gf_sqf_p(high_first, p, ZZ):
        assert factors is None
        return
    _, expected = gf_factor_sqf(high_first, p, ZZ)
    assert factors == sorted(([int(c) for c in reversed(q)] for q in expected),
                             key=lambda q: (len(q), q))


def test_factor_mod_p_of_many_factors():
    # t^40 - 1 is square-free mod 3; the Phi_d with d | 40 split into
    # phi(d)/ord_d(3) factors each, 1+1+1+1+2+1+2+4 = 13 in all
    f = [-1] + [0] * 39 + [1]
    factors = factor_mod_p(f, 3)
    product = [1]
    for q in factors:
        product = reduced(naive_mul(product, q), 3)
    assert product == reduced(f, 3)
    assert len(factors) == len(set(map(tuple, factors))) == 13


# -- Hensel lifting -------------------------------------------------------------


@given(st.sampled_from((3, 5, 7)),
       st.lists(st.integers(-40, 40), min_size=3, max_size=16),
       st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_hensel_postcondition(p, f, k):
    assume(f[-1] % p and f[0])
    modular = factor_mod_p(f, p)
    assume(modular is not None and len(modular) >= 2)
    modulus = p**k
    lifted = hensel_lift(f, modular, p, k)
    assert len(lifted) == len(modular)
    product = [f[-1]]
    for big, small in zip(lifted, modular):
        assert big[-1] == 1 and len(big) == len(small)
        assert all(0 <= c < modulus for c in big)
        assert reduced(big, p) == small
        product = naive_mul(product, big)
    assert reduced(product, modulus) == reduced(f, modulus)


def test_hensel_rejects_factors_sharing_a_root():
    # (t - 1)^2 mod 3 is not a coprime split
    with pytest.raises(RuntimeError):
        hensel_lift([1, -2, 1], [[2, 1], [2, 1]], 3, 4)


def test_lifting_stops_at_the_first_power_past_twice_the_bound(monkeypatch):
    """The lift stops at p^k > 2B, B = C(m, m//2) * (isqrt(sum c^2) + 1) for
    m = n//2, the bound on a factor of degree at most n/2 (Knuth-Cohen)."""
    calls = []
    real = zfactor.hensel_lift

    def record(f, factors, p, k):
        calls.append((tuple(f), p, k))
        return real(f, factors, p, k)

    monkeypatch.setattr(zfactor, "hensel_lift", record)
    rng = random.Random(14)
    f = [1]
    for degree in (9, 12, 15):
        f = poly_mul(f, seeded_eisenstein(rng, degree, lead=3)._num)
    assert len(zfactor.factor_primitive(f)) == 3
    top, p, k = calls[0]
    assert top == tuple(f)
    half = (len(f) - 1) // 2
    bound = math.comb(half, half // 2) * (math.isqrt(sum(c * c for c in f)) + 1)
    assert p ** (k - 1) <= 2 * bound < p**k


@pytest.mark.parametrize("lead", [1, 3])
def test_recombination_reads_the_complement(monkeypatch, lead):
    """g of degree 9 stays irreducible mod the prime chosen, and
    h1 = t^4 - 10t^2 + 1 and h2 = t^4 - 4t^2 + 1 split in two there, so the
    first subset that is a true factor is {g mod p}, whose side has degree
    9 > 17/2: only the complement h1*h2 is within the bound, and g is found
    as f over it, while the reducible h1*h2 goes on to be split."""
    g = seeded_eisenstein(random.Random(7), 9, lead=lead)._num
    h1, h2 = (1, 0, -10, 0, 1), (1, 0, -4, 0, 1)
    f = poly_mul(g, poly_mul(h1, h2))
    p, modular = zfactor._modular_factorization(f)
    assert sorted(len(q) - 1 for q in modular) == [2, 2, 2, 2, 9]
    divisors = []
    real = zfactor.exact_div
    monkeypatch.setattr(zfactor, "exact_div",
                        lambda a, b: divisors.append(tuple(b)) or real(a, b))
    factors = zfactor.factor_primitive(f)
    assert tuple(poly_mul(h1, h2)) in divisors and tuple(g) not in divisors
    expected = {(tuple(g), 1), (h1, 1), (h2, 1)}
    assert set(factors) == expected
    assert {(q._num, m) for q, m in sympy_factor(
        LaurentPoly(enumerate(f)))} == expected


@pytest.mark.parametrize("power", [1, 2])
def test_power_of_t_splits_off(power):
    """Recombination reads constant terms, which a factor t lacks: without
    splitting t^power off first, t*h1*h2 came back as h2 and the reducible
    t*h1 = (0, 1, 0, -10, 0, 1)."""
    h1, h2 = (1, 0, -10, 0, 1), (1, 0, -4, 0, 1)
    f = (0,) * power + tuple(poly_mul(h1, h2))
    assert zfactor.factor_primitive(f) == [((0, 1), power), (h1, 1), (h2, 1)]



@pytest.mark.parametrize("f", [
    (-3, 0, 1),                                   # t^2 - 3 is t^2 mod 3
    tuple(poly_mul((-3, 0, 1), (1, 1, 1))),       # t^2 + t + 1 = (t - 1)^2 mod 3
    tuple(poly_mul(poly_mul((-3, 0, 1), (-3, 0, 1)), (5, 1))),  # Yun splits
    (-5, 0, 0, 0, 0, 0, 0, 0, 3),                 # lc 3: the first prime is 5
])
def test_no_prime_is_tried_twice(monkeypatch, f):
    """f is not square-free mod the first prime, whether or not Yun's
    decomposition splits it; no (part, prime) pair reaches factor_mod_p
    twice.  factor_primitive itself checks that the factors multiply back."""
    calls = []
    real = zfactor.factor_mod_p

    def record(g, p):
        calls.append((tuple(g), p))
        return real(g, p)

    monkeypatch.setattr(zfactor, "factor_mod_p", record)
    zfactor.factor_primitive(f)
    assert real(*calls[0]) is None
    assert len(calls) == len(set(calls))
