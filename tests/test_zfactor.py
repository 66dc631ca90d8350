"""Components of the Z[t] factorizer: packing, modular arithmetic, lifting,
cyclotomic division."""

import collections
import math
import random
from itertools import zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_sqf_p

from conftest import eisenstein_coeffs, seeded_eisenstein
from ialex import zfactor
from ialex.laurent import LaurentPoly
from ialex.zfactor import (
    factor_mod_p,
    hensel_lift,
    kron_pack,
    kron_unpack,
    poly_gcd,
    poly_mul,
    pseudo_divmod,
)
from ialex.zfactor import (
    _cyclotomic,
    _cyclotomic_orders,
    _divmod,
    _gf_gcd,
    _gf_gcdex,
    _vanishes_at_root,
)
from oracles import (
    gf_divmod,
    gf_gcd,
    gf_gcdex,
    kronecker_factor,
    sympy_cyclotomic,
    sympy_factor,
    sympy_gcd,
)

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
    assert gf_divmod(a, b, p) == _divmod(a, b, p)


@pytest.mark.parametrize("n, p", [(2, 2), (5, 2), (8, 3), (24, 7), (40, 3),
                                  (64, 3), (48, 5), (7, 7), (3, 5), (4, 11)])
def test_quotient_ring_rows_are_powers_of_x(n, p):
    """Each fold row is x^(n+i) mod f and each Frobenius row x^(p*j) mod f,
    by long division over GF(p), for p below and at or above deg f."""
    rng = random.Random(1000 * n + p)
    f = [rng.randrange(p) for _ in range(n)] + [1]
    ring = zfactor._QuotientRing(f, p)

    def residues(row):
        out = zfactor._unpack(row, ring.bits, n)
        while out and not out[-1]:
            out.pop()
        return out

    assert len(ring.fold) == n - 1 and len(ring.table) == n
    for i, row in enumerate(ring.fold):
        assert residues(row) == gf_divmod([0] * (n + i) + [1], f, p)[1]
    for j, row in enumerate(ring.table):
        assert residues(row) == gf_divmod([0] * (p * j) + [1], f, p)[1]


@pytest.mark.parametrize("n, p", [(8, 3), (5, 3), (3, 3), (4, 5), (3, 5),
                                  (2, 5), (4, 13)],
                         ids=["monomial", "monomial-last", "fold-first",
                              "fold", "fold-last", "power", "power-far"])
def test_x_to_the_p_row_is_a_power_of_x(monkeypatch, n, p):
    """x^p mod f is read as a monomial for p < n and as a fold row for
    n <= p <= 2n - 2, with no power taken while the ring is built; only
    past that is it a power."""
    rng = random.Random(100 * n + p)
    f = [rng.randrange(p) for _ in range(n)] + [1]
    powers = []
    real = zfactor._QuotientRing.pow
    monkeypatch.setattr(zfactor._QuotientRing, "pow",
                        lambda ring, a, e: powers.append(e) or real(ring, a, e))
    ring = zfactor._QuotientRing(f, p)
    assert powers == ([] if p <= 2 * n - 2 else [p])
    assert ring.power_of_x(p) == zfactor._pack(ring.pow([0, 1], p), ring.bits)


# -- Euclid over GF(p) on packed integers ---------------------------------------

GF_PRIMES = (3, 5, 13, 97, 65537, 2**31 - 1, 2**61 - 1)


@st.composite
def gf_pairs(draw):
    """(p, a, b) reduced mod p, not both zero, of degree at most 64:
    random pairs, a zero side, equal sides, one side dividing the other,
    and pairs with a planted common factor."""
    p = draw(st.sampled_from(GF_PRIMES))

    def poly(max_degree):
        return reduced(draw(st.lists(st.integers(0, p - 1),
                                     max_size=max_degree + 1)), p)

    kind = draw(st.sampled_from(["random", "zero", "equal", "dividing",
                                 "common"]))
    if kind == "random":
        a, b = poly(64), poly(64)
    elif kind == "zero":
        a, b = poly(64), []
    elif kind == "equal":
        a = b = poly(64)
    elif kind == "dividing":
        b = poly(32)
        a = reduced(naive_mul(b, poly(32) or [1]), p)
    else:
        common = poly(21) or [1]
        a = reduced(naive_mul(common, poly(21) or [1]), p)
        b = reduced(naive_mul(common, poly(21) or [1]), p)
    if draw(st.booleans()):
        a, b = b, a
    return p, a, b if a or b else [1]


def gf_sum_of_products(pairs, p):
    out = []
    for x, y in pairs:
        product = naive_mul(x, y) if x and y else []
        out = [u + v for u, v in zip_longest(out, product, fillvalue=0)]
    return reduced(out, p)


@given(gf_pairs())
@example((3, [1] * 65, [2, 1] * 32 + [1]))
@example((2**61 - 1, [5], []))
@example((97, [], [0, 0, 4]))
@settings(max_examples=300, deadline=None)
def test_packed_euclid_matches_list_euclid(case):
    p, a, b = case
    g, s = _gf_gcd(a, b, p, cofactor=True)
    assert g == gf_gcd(a, b, p) == _gf_gcd(a, b, p)[0]
    assert _gf_gcd(a, b, p)[1] == []
    assert s == reduced(s, p) and len(s) <= max(len(b) - 1, 1)
    # g = s*a mod b
    error = gf_sum_of_products([(s, a), ([p - 1], g)], p)
    assert (gf_divmod(error, b, p)[1] if b else error) == []
    if b and len(g) == 1:
        s2, t = _gf_gcdex(a, b, p)
        assert (s2, t) == gf_gcdex(a, b, p) and s2 == s
        assert gf_sum_of_products([(s, a), (t, b)], p) == [1]
    elif b:
        with pytest.raises(RuntimeError):
            _gf_gcdex(a, b, p)


@pytest.mark.parametrize("p", [3, 97, 65537, 2**61 - 1])
def test_packed_euclid_reduces_lazily_on_long_runs(monkeypatch, p):
    """A coprime pair of degree 64 takes a run of Euclid steps long enough
    for the slot bounds to pass the slot width several times; each pass
    reduces a value through ``_unpack_all``, and the answers still match
    the list Euclid."""
    rng = random.Random(p)
    a = [rng.randrange(p) for _ in range(64)] + [1]
    b = [rng.randrange(p) for _ in range(64)] + [1]
    assert gf_gcd(a, b, p) == [1]
    calls = []
    real = zfactor._unpack_all

    def record(value, bits):
        calls.append(bits)
        return real(value, bits)

    monkeypatch.setattr(zfactor, "_unpack_all", record)
    assert _gf_gcd(a, b, p) == ([1], [])
    assert len(calls) >= 2
    assert _gf_gcdex(a, b, p) == gf_gcdex(a, b, p)


@pytest.mark.parametrize("p", [65537, 2**31 - 1])
def test_packed_euclid_finds_a_planted_gcd_on_long_runs(p):
    """Pairs of degree 64 and 60 sharing a planted factor of degree 20 run
    long enough that the divisor is reduced inside the row loop, after
    which its slots below the leading one are read again; the gcd still
    matches the list Euclid."""
    rng = random.Random(p)
    for _ in range(5):
        common = [rng.randrange(p) for _ in range(20)] + [1]
        a = reduced(naive_mul(common, [rng.randrange(p) for _ in range(44)] + [1]), p)
        b = reduced(naive_mul(common, [rng.randrange(p) for _ in range(40)] + [1]), p)
        g = gf_gcd(a, b, p)
        assert len(g) >= 21
        assert _gf_gcd(a, b, p)[0] == g


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


def test_factor_mod_p_matches_sympy_past_2_to_the_40():
    p = 2**40 + 15                     # the least prime above 2^40
    rng = random.Random(40)
    for degree in (2, 5, 9, 16):
        f = [rng.randrange(p) for _ in range(degree)] + [1]
        high_first = [ZZ(c) for c in reversed(f)]
        assert gf_sqf_p(high_first, p, ZZ)
        _, expected = gf_factor_sqf(high_first, p, ZZ)
        assert factor_mod_p(f, p) == sorted(
            ([int(c) for c in reversed(q)] for q in expected),
            key=lambda q: (len(q), q))
    # (t - 1)^2 (t + 2) is not square-free mod p
    assert factor_mod_p([2, p - 3, 0, 1], p) is None


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


@pytest.mark.parametrize("p", [2, 1, 0, -3, 4])
def test_factor_mod_p_refuses_moduli_below_3_or_even(p):
    """In characteristic 2, (p - 1)/2 = 0 and no split is ever found."""
    with pytest.raises(ValueError, match="odd prime"):
        factor_mod_p([1, 1, 1, 1, 1, 1, 1], p)


@pytest.mark.parametrize("f, p, built", [
    ([1, 0, 1], 3, 0),                    # t^2 + 1 is irreducible mod 3
    ([1, 1, 1, 1], 3, 0),                 # (t + 1)(t^2 + 1): degrees 1 and 2
    ([2, 3, 1], 5, 1),                    # (t + 1)(t + 2): two of degree 1
    ([-1] + [0] * 39 + [1], 3, 1),        # t^40 - 1, split in several parts
])
def test_factor_mod_p_seeds_a_generator_only_to_split(monkeypatch, f, p,
                                                      built):
    """A generator is built only when a distinct-degree part holds more than
    one factor, and at most once per call."""
    seeds = []
    real = zfactor.random.Random
    monkeypatch.setattr(zfactor.random, "Random",
                        lambda seed: seeds.append(seed) or real(seed))
    factors = factor_mod_p(f, p)
    assert seeds == [p] * built
    product = [1]
    for q in factors:
        product = reduced(naive_mul(product, q), p)
    assert product == reduced(f, p)


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


# Eisenstein at 2 and irreducible mod 7; times (t+1)(t+2)(t+3)(t+4), it is
# square-free mod 7 with modular factor degrees 1, 1, 1, 1, 17
SKEWED_G = (6, 6, -6, 0, 6, -2, -6, -6, -4, 4, 2, 0, 6, 4, -2, -2, 6, 1)
SKEWED_F = tuple(poly_mul(poly_mul((1, 1), (2, 1)),
                          poly_mul(poly_mul((3, 1), (4, 1)), SKEWED_G)))


def test_hensel_splits_by_degree(monkeypatch):
    """The four linear factors are lifted on one side and the degree-17
    factor on the other, not split two against three; the lifts still meet
    test_hensel_postcondition's invariants."""
    p, k = 7, 6
    modular = factor_mod_p(SKEWED_F, p)
    assert [len(q) - 1 for q in modular] == [1, 1, 1, 1, 17]
    calls = []
    real = zfactor.hensel_lift

    def record(f, factors, p, k):
        calls.append(len(factors))
        return real(f, factors, p, k)

    monkeypatch.setattr(zfactor, "hensel_lift", record)
    lifted = zfactor.hensel_lift(list(SKEWED_F), modular, p, k)
    assert calls[:3] == [5, 4, 2] and calls.count(1) == 5
    modulus = p**k
    product = [SKEWED_F[-1]]
    for big, small in zip(lifted, modular):
        assert big[-1] == 1 and len(big) == len(small)
        assert all(0 <= c < modulus for c in big)
        assert reduced(big, p) == small
        product = naive_mul(product, big)
    assert reduced(product, modulus) == reduced(SKEWED_F, modulus)


def test_skewed_factorization_matches_sympy():
    assert zfactor._modular_factorization(SKEWED_F)[0] == 7
    expected = [((1, 1), 1), ((2, 1), 1), ((3, 1), 1), ((4, 1), 1),
                (SKEWED_G, 1)]
    assert zfactor.factor_primitive(SKEWED_F) == expected
    assert [(q._num, m) for q, m in sympy_factor(
        LaurentPoly(enumerate(SKEWED_F)))] == expected


def test_hensel_rejects_factors_sharing_a_root():
    # (t - 1)^2 mod 3 is not a coprime split
    with pytest.raises(RuntimeError):
        hensel_lift([1, -2, 1], [[2, 1], [2, 1]], 3, 4)


CORRUPTIONS = [
    pytest.param(lambda found: found[:-1], id="factor-dropped"),
    pytest.param(lambda found: [(-found[0][0],) + found[0][1:], *found[1:]],
                 id="sign-flipped"),
    pytest.param(lambda found: found + [(1, 1)], id="factor-added"),
    # Phi_3 and t + 1 bound every coefficient of their product by 3 * 2,
    # and each f below has a coefficient past that
    pytest.param(lambda found: [(1, 1)], id="coefficient-past-the-bound"),
]


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_corrupted_factors_do_not_multiply_back(monkeypatch, corrupt):
    # Phi_3 * (2t + 1)(t + 3)(t - 2): the cyclotomic factor and Zassenhaus's;
    # f has a coefficient -17
    f = poly_mul(poly_mul((1, 1, 1), (3, 7, 2)), (-2, 1))
    real = zfactor._zassenhaus
    monkeypatch.setattr(zfactor, "_zassenhaus",
                        lambda part: corrupt(real(part)))
    with pytest.raises(RuntimeError, match="do not multiply back"):
        zfactor.factor_primitive(f)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
def test_corrupted_closed_form_does_not_multiply_back(monkeypatch, corrupt):
    # Phi_3 * (2t + 1)(t + 3): the cyclotomic factor and the closed form's;
    # f has a coefficient 12
    f = poly_mul((1, 1, 1), (3, 7, 2))
    real = zfactor._closed_form
    monkeypatch.setattr(zfactor, "_closed_form",
                        lambda part: corrupt(real(part)))
    with pytest.raises(RuntimeError, match="do not multiply back"):
        zfactor.factor_primitive(f)


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
def test_zero_constant_term_is_refused(power):
    """Recombination reads constant terms, which a factor t lacks: fed
    t*h1*h2 with no check, it came back as h2 and the reducible t*h1 =
    (0, 1, 0, -10, 0, 1).  A normal form has a nonzero constant term, and
    anything else is refused."""
    h1, h2 = (1, 0, -10, 0, 1), (1, 0, -4, 0, 1)
    f = (0,) * power + tuple(poly_mul(h1, h2))
    with pytest.raises(ValueError, match="constant term"):
        zfactor.factor_primitive(f)


@pytest.mark.parametrize("f", [
    (-3, 0, 0, 1),                                # t^3 - 3 is t^3 mod 3
    tuple(poly_mul((-3, 0, 1), (4, 1, 1))),       # t^2 + t + 4 = (t - 1)^2 mod 3
    # Yun splits f into closed forms, so nothing reaches factor_mod_p
    tuple(poly_mul(poly_mul((-3, 0, 1), (-3, 0, 1)), (5, 1))),
    (-5, 0, 0, 0, 0, 0, 0, 0, 3),                 # lc 3: the first prime is 5
])
def test_no_prime_is_tried_twice(monkeypatch, f):
    """Only square-free parts reach factor_mod_p, each with a given prime
    at most once, whether or not they are square-free mod the first prime.
    factor_primitive itself checks that the factors multiply back."""
    calls = []
    real = zfactor.factor_mod_p

    def record(g, p):
        calls.append((tuple(g), p))
        return real(g, p)

    monkeypatch.setattr(zfactor, "factor_mod_p", record)
    zfactor.factor_primitive(f)
    for g, _ in calls:
        assert all(m == 1 for _, m in sympy_factor(LaurentPoly(enumerate(g))))
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("f", [(2, 4), (1, -1), (5,)],
                         ids=["content-2", "negative-lead", "constant-5"])
def test_input_outside_the_contract_is_refused(f):
    with pytest.raises(ValueError, match="not primitive"):
        zfactor.factor_primitive(f)


# -- closed forms of degree 1 and 2 -------------------------------------------


@st.composite
def quadratics(draw):
    """Primitive polynomials of degree 1 or 2 with positive leading
    coefficient and nonzero constant term, coefficients up to 10^30:
    arbitrary ones, whose discriminant is seldom a square, products of two
    linear forms, and squares of one."""
    size = draw(st.sampled_from([12, 10**15, 10**30]))
    kind = draw(st.sampled_from(["any", "product", "square"]))
    if kind == "any":
        f = [draw(st.integers(-size, size)) for _ in range(3)]
    else:
        half = math.isqrt(size)
        linear = st.tuples(st.integers(-half, half), st.integers(-half, half))
        q = draw(linear)
        f = poly_mul(q, q if kind == "square" else draw(linear))
    while f and not f[-1]:
        f.pop()
    assume(len(f) >= 2 and f[0])
    return tuple(zfactor._primitive(f))


@given(quadratics())
@example((2, -5, 2))            # (2t - 1)(t - 2): D = 9
@example((-3, 0, 1))            # t^2 - 3: D = 12, not a square
@example((1, -4, 4))            # (2t - 1)^2: D = 0
@example((9, 12, 4))            # (2t + 3)^2, not monic
@example((15, 8, 1))            # (t + 3)(t + 5), monic
@example((3, 7, 2))             # (2t + 1)(t + 3)
@example((1, 1, 1))             # Phi_3: D = -3
@example((-1, 1))               # degree 1
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_sympy(f):
    found = zfactor.factor_primitive(f)
    assert found == sorted(collections.Counter(zfactor._closed_form(f)).items(),
                           key=lambda pair: (len(pair[0]), pair[0]))
    p = LaurentPoly(enumerate(f))
    assert [(q._num, m) for q, m in sympy_factor(p)] == found
    if max(map(abs, f)) <= 10**4:
        assert [(q._num, m) for q, m in kronecker_factor(p)] == found


@pytest.mark.parametrize("f, expected, reached", [
    ((2, -5, 2), [((-2, 1), 1), ((-1, 2), 1)], set()),
    (tuple(poly_mul((1, 1, 1), (3, 7, 2))),
     [((1, 2), 1), ((3, 1), 1), ((1, 1, 1), 1)], set()),
    ((-3, 0, 1), [((-3, 0, 1), 1)], set()),
    (tuple(poly_mul(_cyclotomic(12), (1, -4, 4))),
     [((-1, 2), 2), ((1, 0, -1, 0, 1), 1)], set()),
    # Yun splits the rest of degree 5 into 2t + 5 and (t^2 - 3)^2
    (tuple(poly_mul(poly_mul((-3, 0, 1), (-3, 0, 1)), (5, 2))),
     [((5, 2), 1), ((-3, 0, 1), 2)], set()),
    # ... or into t^3 - 3, which goes on, and (t^2 - 3)^2
    (tuple(poly_mul(poly_mul((-3, 0, 1), (-3, 0, 1)), (-3, 0, 0, 1))),
     [((-3, 0, 1), 2), ((-3, 0, 0, 1), 1)], {3}),
    # the rest t^3 - 3 is square-free over Z but not mod 3, and goes on whole
    (tuple(poly_mul((1, 1, 1), (-3, 0, 0, 1))),
     [((1, 1, 1), 1), ((-3, 0, 0, 1), 1)], {3}),
], ids=["rest", "rest-after-phi3", "rest-irreducible", "rest-square",
        "parts", "parts-and-cubic", "cubic-after-phi3"])
def test_small_pieces_skip_the_modular_route(monkeypatch, f, expected,
                                             reached):
    """No square-free part of degree 1 or 2 reaches factor_mod_p, a
    quotient ring, the prime search or lifting and recombination;
    ``reached`` is the set of degrees that do."""
    degrees = set()
    for name in ("factor_mod_p", "_QuotientRing", "_modular_factorization",
                 "_recombine"):
        real = getattr(zfactor, name)
        monkeypatch.setattr(zfactor, name, lambda g, *rest, real=real: (
            degrees.add(len(g) - 1) or real(g, *rest)))
    assert zfactor.factor_primitive(f) == expected
    assert degrees == reached


# -- cyclotomic factors ---------------------------------------------------------


def totients(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def test_cyclotomic_orders_match_brute_force():
    # phi(n) >= sqrt(n/2), so phi(n) <= d forces n <= 2*d^2
    phi = totients(2 * 100**2 + 2)
    for d in [*range(1, 65), 100]:
        expected = sorted((phi[n], n) for n in range(1, 2 * d * d + 3)
                          if phi[n] <= d)
        assert _cyclotomic_orders(d) == [(n, t) for t, n in expected], d


class Drawn:
    """An iterable over items that counts how many were drawn."""

    def __init__(self, items):
        self.items, self.drawn = items, 0

    def __iter__(self):
        for item in self.items:
            self.drawn += 1
            yield item


def test_cyclotomic_prepass_stops_past_the_degree_left(monkeypatch):
    """After a degree-64 input the order table covers phi(n) <= 64, 127
    orders; a degree-2 input reads only the five with phi(n) <= 2 and the
    one after them."""
    monkeypatch.setattr(zfactor, "_ORDERS_BOUND", -1)
    monkeypatch.setattr(zfactor, "_CYCLOTOMIC_ORDERS", [])
    assert zfactor.factor_primitive((1,) + (0,) * 63 + (1,)) == [
        ((1,) + (0,) * 63 + (1,), 1)]                      # Phi_128
    assert zfactor._ORDERS_BOUND == 64
    assert len(zfactor._CYCLOTOMIC_ORDERS) == 127
    orders = Drawn(zfactor._CYCLOTOMIC_ORDERS)
    monkeypatch.setattr(zfactor, "_CYCLOTOMIC_ORDERS", orders)
    assert zfactor.factor_primitive((2, -5, 2)) == [((-2, 1), 1), ((-1, 2), 1)]
    assert orders.drawn <= 6


def test_cyclotomic_polynomials_match_sympy():
    for n, phi in _cyclotomic_orders(64):
        assert _cyclotomic(n) == sympy_cyclotomic(n)._num, n
        assert len(_cyclotomic(n)) == phi + 1


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=12).filter(
           lambda f: f[-1]),
       st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=3),
       st.sampled_from([1, 2, 3, 4, 6]))
@settings(max_examples=200, deadline=None)
def test_root_test_is_exact_for_small_totients(f, planted, n):
    """For the n with phi(n) <= 2, the residue-class sums say that f
    vanishes at a primitive n-th root of unity exactly when Phi_n
    divides f."""
    for m in planted:
        f = poly_mul(f, _cyclotomic(m))
    assert _vanishes_at_root(f, n) == (
        zfactor.exact_div(f, _cyclotomic(n)) is not None)


@st.composite
def cyclotomic_eisenstein_products(draw):
    """{factor: multiplicity} of Phi_n with phi(n) <= 8 and Eisenstein
    polynomials at 2, multiplicities 1-3, total degree <= 36."""
    eisenstein = st.builds(
        eisenstein_coeffs, st.sampled_from([-5, -3, -1, 1, 3, 5]),
        st.lists(st.integers(-3, 3), max_size=3), st.sampled_from([1, 3]))
    prime = st.one_of(
        st.sampled_from([n for n, _ in _cyclotomic_orders(8)]).map(_cyclotomic),
        eisenstein.map(lambda q: q._num))
    planted = {}
    for q, mult in draw(st.lists(st.tuples(prime, st.integers(1, 3)),
                                 max_size=6)):
        degree = sum((len(r) - 1) * m for r, m in planted.items())
        if q not in planted and degree + (len(q) - 1) * mult <= 36:
            planted[q] = mult
    return planted


@given(cyclotomic_eisenstein_products())
@example({(-1, 1): 3, (1, 1): 1, (1, -1, 1): 2, (2, 2, 1): 3, (6, 0, 2, 1): 1})
@settings(max_examples=60, deadline=None)
def test_factor_primitive_splits_cyclotomic_and_other_factors(planted):
    f = [1]
    for q, mult in planted.items():
        for _ in range(mult):
            f = poly_mul(f, q)
    expected = sorted(planted.items(), key=lambda pair: (len(pair[0]), pair[0]))
    assert zfactor.factor_primitive(f) == expected
    assert [(q._num, m) for q, m in sympy_factor(
        LaurentPoly(enumerate(f)))] == expected


@pytest.mark.parametrize("parts, tried", [
    # t - 1 is not tried, since f(1) != 0, nor each factor a second time,
    # since what is left no longer passes the filter at 2
    ([_cyclotomic(17), _cyclotomic(23)], [17, 23]),
    # f(2) = 0 would pass every filter there, so the filter reads f(3)
    ([(-2, 1), _cyclotomic(5), (1, 1, 0, 1)], [5]),
    # f(2) = (-1)(-1) = 1 rules out every Phi_n but t - 1, and f(1) = 35
    ([(-7, 1, 1), (-7, -1, 0, 1)], []),
    # f(2) = 6 passes Phi_2(2) = Phi_6(2) = 3, but Phi_n with phi(n) <= 2 is
    # tested exactly: f(-1) = 3, and f at a sixth root of unity is not 0
    ([(2, 0, 1)], []),
], ids=["phi17-phi23", "root-at-2", "no-cyclotomic-factor", "exact-small-n"])
def test_cyclotomic_prepass_divides_only_past_its_filter(monkeypatch, parts,
                                                         tried):
    f = [1]
    for q in parts:
        f = poly_mul(f, q)
    orders = {_cyclotomic(n): n for n, _ in _cyclotomic_orders(len(f) - 1)}
    calls = []
    real = zfactor.exact_div

    def record(a, b):
        if tuple(b) in orders:
            calls.append(orders[tuple(b)])
        return real(a, b)

    monkeypatch.setattr(zfactor, "exact_div", record)
    expected = sorted(((tuple(q), 1) for q in parts),
                      key=lambda pair: (len(pair[0]), pair[0]))
    assert zfactor.factor_primitive(f) == expected
    assert calls == tried
    assert [(q._num, m) for q, m in sympy_factor(
        LaurentPoly(enumerate(f)))] == expected
