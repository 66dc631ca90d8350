"""Ring arithmetic, canonical forms and factorization over Q[t, t^-1]."""

import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    eisenstein_coeffs,
    laurent_polys,
    nonzero_polys,
    rationals,
    seeded_eisenstein,
    small_primes_st,
)
import ialex.laurent as laurent
from ialex import bounds
from ialex.engine import Perversity
from ialex.exactseq import ModuleSequence, split_primary
from ialex.gmodule import FgGammaModule, GammaMatrix, _require_prime, smith_normal_form
from ialex.laurent import (
    MAX_SPAN,
    BothZero,
    DegreeCapExceeded,
    LaurentPoly,
    SpanCapExceeded,
    ZeroPolynomial,
    divides,
    exact_quotient,
    factor,
    gcd,
    involute,
    is_alexander_type,
    multiplicity,
    normalize,
    parse,
    similar,
)
from ialex.zfactor import _cyclotomic_orders
from oracles import (
    DictLaurent,
    dense_coeffs,
    dense_divmod,
    kronecker_factor,
    laurent_divmod,
    rational_euclid_gcd,
    scan_parse,
    sympy_cyclotomic,
    sympy_factor,
    sympy_swinnerton_dyer,
)

# -- parsing and printing ---------------------------------------------------


def test_parse_grammar_forms():
    assert parse("t") == LaurentPoly({1: 1})
    assert parse("-t^-2") == LaurentPoly({-2: -1})
    assert parse("5") == LaurentPoly({0: 5})
    assert parse("3/2*t^-1 - 3/2") == LaurentPoly({-1: Fraction(3, 2), 0: Fraction(-3, 2)})
    assert parse("t^2-t+1") == parse("1 - t + t^2")
    assert parse("2t") == LaurentPoly({1: 2})  # the * is optional
    assert parse("t - t").is_zero
    assert parse("0").is_zero


def test_parse_rejects_garbage():
    for bad in ["", "t^", "q + 1", "1 +", "+", "t 1", "1..5",
                "2*", "2*+t", "2*-1", "t*t"]:
        with pytest.raises(ValueError):
            parse(bad)


def test_str_descending_exponents():
    assert str(parse("1 - t + t^2")) == "t^2 - t + 1"
    assert str(parse("3/2*t^-1 - 3/2")) == "-3/2 + 3/2*t^-1"
    assert str(LaurentPoly.zero()) == "0"
    assert str(parse("-t^3")) == "-t^3"
    assert str(parse("2*t^2 + 1")) == "2*t^2 + 1"


@given(laurent_polys())
def test_parse_str_round_trip(p):
    assert parse(str(p)) == p


def test_span_cap_checked_before_allocation():
    # a dense tuple for this text would hold 10^9 + 1 slots
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(SpanCapExceeded):
            parse("t^1000000000 + 1")
        best = min(best, time.perf_counter() - start)
    assert best < 0.01
    assert issubclass(SpanCapExceeded, DegreeCapExceeded)
    with pytest.raises(SpanCapExceeded):
        LaurentPoly({10**9: 1, 0: 1})
    far = parse("t^1000000000")  # a unit: one slot
    assert far.degree == 0
    assert far * LaurentPoly({-10**9: 1}) == LaurentPoly.one()
    with pytest.raises(SpanCapExceeded):
        far + LaurentPoly.one()
    with pytest.raises(SpanCapExceeded):
        LaurentPoly.one() - far
    assert parse(f"t^{MAX_SPAN} + 1").degree == MAX_SPAN
    with pytest.raises(SpanCapExceeded):
        parse(f"t^{MAX_SPAN + 1} + 1")
    # terms that cancel do not count
    assert parse("t^1000000000 - t^1000000000 + 1") == LaurentPoly.one()
    assert LaurentPoly({10**9: 0, 0: 1}) == LaurentPoly.one()
    # the cap bounds hi - lo, whatever the sum of the exponents, and a span
    # of exactly MAX_SPAN is within it when read, built from a mapping or
    # made by a sum
    with pytest.raises(SpanCapExceeded):
        LaurentPoly({-40000: 1, 40000: 1})
    with pytest.raises(SpanCapExceeded):
        parse("t^-40000") + parse("t^40000")
    widest = [parse(f"t^{MAX_SPAN} + 1"), LaurentPoly({0: 1, MAX_SPAN: 1}),
              parse(f"t^{MAX_SPAN}") + LaurentPoly.one()]
    assert all(q == widest[0] and q.degree == MAX_SPAN for q in widest)


def test_floats_are_refused():
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.5})
    with pytest.raises(TypeError):
        LaurentPoly(enumerate([1, 2.0]))
    with pytest.raises(TypeError):
        parse("t").scale(0.5)
    assert LaurentPoly({0: "3/4", 1: True}) == parse("t + 3/4")


@pytest.mark.parametrize("terms", [
    {1.5: 1, True: 2},
    [(2.7, 1)],
    {True: 1},
    [("2", 1)],
    {0: 1, 1.0: 0},
])
def test_exponents_must_be_integers(terms):
    """Exponents are ints; a float is not truncated, a boolean or a string
    is not read as a number, and a zero coefficient does not excuse one."""
    with pytest.raises(TypeError, match="an exponent must be an integer"):
        LaurentPoly(terms)


def test_ring_element_builds_no_fraction(monkeypatch):
    """Parsing, ring arithmetic, normalization and comparison run on the
    integer numerator and denominator alone."""
    class Refused(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("the ring element built a Fraction")

    monkeypatch.setattr(laurent, "Fraction", Refused)
    p = parse("3*t^2 - 6*t + 9")
    q = parse("3/4*t^-1 + 5/6 - 7/10*t")
    total, product = p + q, p * q
    assert (total - q) == p and (total - total).is_zero
    rep = normalize(product)
    # (t^2 - 2t + 3) * (42t^2 - 50t - 45)
    assert rep._num == (-135, -60, 181, -134, 42)
    assert rep.degree == product.degree == 4
    assert normalize(rep) is rep
    assert parse("2/3*t^5").is_unit and not q.is_unit
    assert p == parse("9 - 6*t + 3*t^2") and p != q
    assert normalize(p) == normalize(parse("t^2 - 2*t + 3"))
    # Euclidean division and Smith form on rational entries
    quot, rem = laurent._poly_divmod(q, parse("2/3*t^2 + 3"))
    assert (str(quot), str(rem)) == ("-21/20*t^-1", "5/6 + 39/10*t^-1")
    m = GammaMatrix([[q, "2/3*t - 1/2"], ["3/4*t^2 - 3/4", "5/7*t^-1"]])
    det = q * parse("5/7*t^-1") - parse("2/3*t - 1/2") * parse("3/4*t^2 - 3/4")
    assert smith_normal_form(m) == ((LaurentPoly.one(), normalize(det)), 2)


# -- differential test against the dict-of-Fraction element --------------------

# products of 2, 3 and 5, so that denominators share factors with the
# content of the numerator
_SMOOTH = [1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 30]
_smooth_fractions = st.builds(
    Fraction,
    st.one_of(st.integers(-30, 30),
              st.sampled_from(_SMOOTH + [-c for c in _SMOOTH])),
    st.sampled_from(_SMOOTH))


def dict_laurents(max_terms=4):
    return st.dictionaries(st.integers(-4, 4), _smooth_fractions,
                           max_size=max_terms).map(DictLaurent)


@st.composite
def dict_pairs(draw):
    """Two oracle elements; the second may cancel the first in part or in
    full, or be a unit multiple of it."""
    p, q = draw(dict_laurents()), draw(dict_laurents(max_terms=2))
    mode = draw(st.sampled_from(["free", "cancel", "multiple"]))
    if mode == "cancel":
        q = q - p
    elif mode == "multiple":
        q = p.scale(draw(_smooth_fractions)).shift(draw(st.integers(-2, 2)))
    return p, q


def _lift(d: DictLaurent) -> LaurentPoly:
    return LaurentPoly(dict(d.items()))


def _assert_agrees(p: LaurentPoly, d: DictLaurent):
    assert list(p.items()) == d.items()
    assert str(p) == str(d)
    assert p.is_zero == d.is_zero and bool(p) == (not d.is_zero)
    if d.is_zero:
        assert p == LaurentPoly.zero()
        return
    assert (p.min_exp, p.degree, p.is_unit) == (d.min_exp, d.span, d.is_unit)
    assert normalize(p)._num == d.normalize()
    assert parse(str(p)) == p


@given(dict_pairs(), _smooth_fractions, st.integers(-3, 3), st.integers(0, 3))
@settings(max_examples=300)
def test_ring_element_matches_dict_oracle(pair, c, k, n):
    dp, dq = pair
    p, q = _lift(dp), _lift(dq)
    _assert_agrees(p, dp)
    _assert_agrees(q, dq)
    _assert_agrees(p + q, dp + dq)
    _assert_agrees(p - q, dp - dq)
    _assert_agrees(-p, -dp)
    _assert_agrees(p * q, dp * dq)
    _assert_agrees(p.scale(c), dp.scale(c))
    _assert_agrees(p * c, dp.scale(c))
    _assert_agrees(p * LaurentPoly({k: 1}), dp.shift(k))
    _assert_agrees(p.involute(), dp.involute())
    _assert_agrees(p ** n, dp ** n)
    if dp.is_unit:
        _assert_agrees(p.inverse(), dp.inverse())
    assert (p == q) == (dp == dq)
    # equal elements reached by different routes hash alike
    again = (p + q) - q
    assert again == p and hash(again) == hash(p)
    if p == q:
        assert hash(p) == hash(q)


@pytest.mark.parametrize("text", ["t + 2", "1/2*t^-1 - 3*t^2"])
def test_power_takes_the_binary_method_products(monkeypatch, text):
    """x ** n squares floor(log2 n) times and multiplies popcount(n) - 1
    times; x ** 0 and x ** 1 make no product."""
    x = parse(text)
    calls = []
    convolve = laurent._convolve
    monkeypatch.setattr(laurent, "_convolve",
                        lambda a, b: calls.append(1) or convolve(a, b))
    for n in range(10):
        calls.clear()
        got = x ** n
        assert len(calls) == (n.bit_length() - 1 + bin(n).count("1") - 1
                              if n else 0), n
        repeated = LaurentPoly.one()
        for _ in range(n):
            repeated = repeated * x
        assert got == repeated


def _assert_canonical(p: LaurentPoly):
    """(shift, num, den) with nonzero ends and gcd(den, *num) == 1, den > 0."""
    num, den = p._num, p._den
    assert den > 0
    if num:
        assert num[0] and num[-1] and math.gcd(den, *num) == 1
    else:
        assert (p._shift, den) == (0, 1)


@given(dict_laurents(), st.sampled_from([1, -1]), st.integers(-4, 4),
       _smooth_fractions)
@settings(max_examples=300)
def test_signed_monomial_product_matches_dict_oracle(dp, sign, k, c):
    """A unit +-t^k or c*t^k, on either side, as boundary pivots and their
    inverses are: the product agrees with the oracle and stays canonical,
    also when the other operand has a denominator."""
    p = _lift(dp)
    for du in (DictLaurent({k: sign}), DictLaurent({k: c})):
        u = _lift(du)
        for product in (p * u, u * p):
            _assert_agrees(product, dp * du)
            _assert_canonical(product)


@given(dict_laurents())
@settings(max_examples=200)
def test_unit_operands_skip_ring_arithmetic(dp):
    """x * 1 and 1 * x are x itself, and _quotient(x, 1) is x; the
    operands 2, t, t^-1 and 1/2, which are not 1, take the general route,
    and every product agrees with the oracle."""
    x = _lift(dp)
    for one in (LaurentPoly.one(), parse("1")):
        for product in (x * one, one * x):
            # 0 * 1 is the ring's zero, and 1 * 1 may be either operand
            assert product == x
            assert product is x or dp.is_zero or x == one
    for text in ("1", "2", "t", "t^-1", "1/2"):
        u = parse(text)
        for product in (x * u, u * x):
            _assert_agrees(product, dp * DictLaurent(u.items()))
            _assert_canonical(product)
    if dp.is_zero:
        return
    rep = normalize(x)
    assert laurent._quotient(rep, LaurentPoly.one()) is rep
    assert rep == laurent._checked_rep(laurent.exact_div(rep._num, (1,)))
    for text in ("1", "2", "t", "t^-1", "1/2"):
        assert exact_quotient(x, text) == rep


def _term_text(exp: int, num: int, den: int) -> str:
    coef = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
    if exp == 0:
        return coef
    tpart = "t" if exp == 1 else f"t^{exp}"
    return tpart if coef == "1" else f"{coef}*{tpart}"


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-30, 30),
                          st.sampled_from(_SMOOTH)), min_size=1, max_size=6))
def test_parse_matches_dict_oracle(terms):
    """Unreduced terms, repeated exponents and cancellation in the text."""
    text = "-" if terms[0][1] < 0 else ""
    text += _term_text(*terms[0])
    for exp, num, den in terms[1:]:
        text += f" {'-' if num < 0 else '+'} {_term_text(exp, num, den)}"
    expected = DictLaurent([(e, Fraction(c, d)) for e, c, d in terms])
    _assert_agrees(parse(text), expected)
    assert parse(text) == _lift(expected)


# -- parse against the reference scan ----------------------------------------

# edits, with a Unicode minus sign, Arabic-Indic digit three and superscript two;
# both parsers refuse the last two, as digits are ASCII only
_EDITS = " -+*^t/0\u2212\u0663\u00b2\t~"


def _outcome(read, text):
    """The element read, or the type and message of what reading raised."""
    try:
        return read(text)
    except Exception as exc:  # any exception: compared with the oracle's
        return type(exc), str(exc)


@st.composite
def str_texts(draw):
    """str(p), with its spaces removed or not, then 0-3 random edits."""
    text = str(draw(laurent_polys()))
    if draw(st.booleans()):
        text = text.replace(" ", "")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(_EDITS))
        text = draw(st.sampled_from(
            [text[:i] + ch + text[i:], text[:i] + ch + text[i + 1:],
             text[:i] + text[i + 1:]]))
    return text


@settings(max_examples=500)
@given(str_texts())
def test_parse_matches_scan(text):
    assert _outcome(parse, text) == _outcome(scan_parse, text)


@pytest.mark.parametrize("text, value", [
    ("0", {}), ("-0", {}), ("t^-0", {0: 1}), ("01", {0: 1}), ("1*t", {1: 1}),
    ("4/2*t", {1: 2}), ("t - 1 ", {1: 1, 0: -1}), ("t  - 1", {1: 1, 0: -1}),
    ("-3/2 + 3/2*t^-1", {0: Fraction(-3, 2), -1: Fraction(3, 2)}),
    ("1/0*t", ValueError("zero denominator in '1/0'")),
    ("t^70000 + 1",
     SpanCapExceeded(f"exponents 0..70000 span 70000, over the cap {MAX_SPAN}")),
    # terms that cancel, or are zero, do not count towards the span
    ("t^100000 - t^100000 + 1", {0: 1}), ("0*t^100000 + 1", {0: 1}),
    # the zero denominator comes first in the text, so it is the error
    ("1/0*t + x", ValueError("zero denominator in '1/0'")),
    ("2t3", ValueError("missing operator before '3'")),
    # a Unicode minus reads as "-", but digits are ASCII only
    ("\u2212t \u2212 1", {1: -1, 0: -1}),
    ("\u0663\u0664*t^\u0661 - \u0663/\u0664",
     ValueError("cannot parse polynomial at '\u0663\u0664*t^\u0661-\u0663/\u0664'")),
])
def test_parse_matches_scan_frozen(text, value):
    expected = (type(value), str(value)) if isinstance(value, Exception) \
        else LaurentPoly(value)
    assert _outcome(parse, text) == _outcome(scan_parse, text) == expected


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int has no digit limit")
def test_parse_digit_limit_is_worded_by_scan():
    # the exponent of a zero term is read before the term is dropped
    for text in ("7" * 5000 + "*t + 1", "0*t^" + "9" * 5000):
        outcome = _outcome(parse, text)
        assert outcome[0] is ValueError
        assert outcome == _outcome(scan_parse, text)


@given(laurent_polys(max_span=40, max_terms=12, max_coeff=10**30))
def test_parse_str_round_trip_wide(p):
    assert parse(str(p)) == p


# -- normalization and similarity -------------------------------------------


def test_normalize_frozen_cases():
    assert normalize(parse("3/2*t^-1 - 3/2")) == parse("t - 1")
    assert normalize(parse("t^2 - t")) == parse("t - 1")
    assert normalize(parse("-2*t^2 + 2")) == parse("t^2 - 1")
    assert normalize(parse("7")).is_one
    assert str(normalize(parse("-4/3*t^5"))) == "1"


def test_normalize_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        normalize(LaurentPoly.zero())


@given(nonzero_polys())
def test_normal_form(p):
    rep = normalize(p)
    num = rep._num
    assert (rep._shift, rep._den) == (0, 1)
    assert math.gcd(*num) == 1 and num[-1] > 0
    assert similar(rep, p)
    assert normalize(rep) is rep


@given(nonzero_polys(), st.integers(-4, 4),
       st.fractions(min_value=Fraction(-5), max_value=Fraction(5)).filter(bool))
def test_normalize_ignores_units(p, k, q):
    scaled = (p * LaurentPoly({k: 1})).scale(q)
    assert normalize(scaled) == normalize(p)
    assert similar(p, scaled)


@given(nonzero_polys(), nonzero_polys())
def test_normalize_multiplicative(p, q):
    assert normalize(p * q) == normalize(p) * normalize(q)


@given(nonzero_polys(), nonzero_polys())
def test_similar_iff_equal_reps(p, q):
    assert similar(p, q) == (normalize(p) == normalize(q))


def test_similar_with_zero():
    assert similar(LaurentPoly.zero(), LaurentPoly.zero())
    assert not similar(LaurentPoly.zero(), parse("t"))
    assert not similar(parse("t"), LaurentPoly.zero())


# -- involution --------------------------------------------------------------


def test_involute_frozen():
    assert involute(parse("t^2 - t + 1")) == parse("t^-2 - t^-1 + 1")
    assert similar(involute(parse("t^2 - t + 1")), parse("t^2 - t + 1"))
    assert similar(involute(parse("2*t - 1")), parse("t - 2"))
    assert not similar(involute(parse("2*t - 1")), parse("2*t - 1"))


@given(laurent_polys())
def test_involute_is_involution(p):
    assert involute(involute(p)) == p


@given(laurent_polys(), laurent_polys())
def test_involute_ring_morphism(p, q):
    assert involute(p + q) == involute(p) + involute(q)
    assert involute(p * q) == involute(p) * involute(q)


@given(nonzero_polys(), nonzero_polys())
def test_involute_commutes_with_gcd(p, q):
    assert gcd(involute(p), involute(q)) == normalize(involute(gcd(p, q)))


# -- gcd and divisibility ----------------------------------------------------


def test_gcd_frozen():
    assert gcd(parse("t - 1"), parse("t + 1")).is_one
    assert gcd(parse("t^2 - 1"), parse("t^3 - 3*t^2 + 3*t - 1")) == parse("t - 1")
    assert gcd(parse("t^2 - 1"), LaurentPoly.zero()) == parse("t^2 - 1")
    with pytest.raises(BothZero):
        gcd(LaurentPoly.zero(), LaurentPoly.zero())


@given(nonzero_polys(max_terms=4), nonzero_polys(max_terms=4))
def test_gcd_divides_both(p, q):
    g = gcd(p, q)
    assert divides(g, p)
    assert divides(g, q)
    assert gcd(q, p) == g


@given(nonzero_polys(max_terms=4), nonzero_polys(max_terms=4))
def test_gcd_absorbs_multiples(p, q):
    assert gcd(p, p * q) == normalize(p)


@given(nonzero_polys(max_terms=4), nonzero_polys(max_terms=4))
def test_exact_quotient_inverts_product(p, q):
    assert exact_quotient(p * q, p) == normalize(q)
    assert divides(p, p * q)


def test_exact_quotient_failure():
    with pytest.raises(ValueError):
        exact_quotient(parse("t^2 + 1"), parse("t - 1"))


def test_multiplicity_frozen():
    assert multiplicity("t - 1", "t^3 - 3*t^2 + 3*t - 1") == 3
    assert multiplicity("t - 1", "t + 1") == 0
    assert multiplicity("t^2 - t + 1", "t^5 - 3*t^4 + 5*t^3 - 5*t^2 + 3*t - 1") == 2
    with pytest.raises(ValueError):
        multiplicity("3", "t - 1")


# -- integer core against the rational route ----------------------------------


def _rational_quotient(p, d):
    """p/d by rational long division, or None when d does not divide p."""
    q, r = dense_divmod(dense_coeffs(p), dense_coeffs(d))
    return None if r else normalize(LaurentPoly(enumerate(q)))


def _rational_multiplicity(prime, p):
    count, current = 0, p
    while (current := _rational_quotient(current, prime)) is not None:
        count += 1
    return count


@st.composite
def argument_forms(draw, p):
    """p as a LaurentPoly, its text, or its normal form."""
    form = draw(st.sampled_from(["laurent", "str", "rep"]))
    if form == "str":
        return str(p)
    if form == "rep" and not p.is_zero:
        return normalize(p)
    return p


@st.composite
def planted_pairs(draw):
    """Two Laurent polynomials sharing a random factor, rescaled and shifted."""
    common = draw(nonzero_polys(max_span=3, max_terms=3))
    p, q = (common * draw(nonzero_polys(max_span=3, max_terms=4))
            * LaurentPoly({draw(st.integers(-3, 3)): draw(rationals().filter(bool))})
            for _ in range(2))
    return common, p, q


@given(planted_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_integer_core_matches_rational_route(pair, data):
    common, p, q = pair
    cp, pp, qp = (data.draw(argument_forms(x)) for x in (common, p, q))
    assert gcd(pp, qp) == rational_euclid_gcd(p, q)
    assert divides(cp, pp) and divides(cp, qp)
    assert exact_quotient(pp, cp) == _rational_quotient(p, common)
    for d, x, dx, xx in ((p, q, pp, qp), (q, p, qp, pp)):
        expected = _rational_quotient(x, d)
        assert divides(dx, xx) == (expected is not None)
        if expected is None:
            with pytest.raises(ValueError):
                exact_quotient(xx, dx)
        else:
            assert exact_quotient(xx, dx) == expected
    if not normalize(common).is_one:
        assert multiplicity(cp, pp) == _rational_multiplicity(common, p) >= 1


@given(laurent_polys(max_span=8, max_terms=8, max_coeff=40),
       nonzero_polys(max_span=4, max_coeff=40))
@settings(max_examples=200, deadline=None)
def test_poly_divmod_matches_dense_divmod(a, b):
    """Pseudo-division on the integer numerators gives the rational long
    division's quotient and remainder."""
    q, r = laurent._poly_divmod(a, b)
    assert (q, r) == laurent_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_poly_divmod_edges():
    b = parse("-3*t^2 + 2")
    assert laurent._poly_divmod(LaurentPoly.zero(), b) == (LaurentPoly.zero(),) * 2
    short = parse("5/2*t^-3")
    assert laurent._poly_divmod(short, b) == (LaurentPoly.zero(), short)
    assert laurent._poly_divmod(b, parse("-2/3*t^4")) == (parse("9/2*t^-2 - 3*t^-4"),
                                                          LaurentPoly.zero())
    with pytest.raises(ZeroDivisionError):
        laurent._poly_divmod(b, LaurentPoly.zero())


def test_integer_core_zero_and_unit_arguments():
    p = parse("3/2*t^-1 - 3/2*t")
    for zero in ("0", LaurentPoly.zero()):
        with pytest.raises(BothZero):
            gcd(zero, zero)
        assert gcd(p, zero) == gcd(zero, p) == normalize(p)
        assert divides(zero, zero) and divides(p, zero)
        assert not divides(zero, p)
        with pytest.raises(ZeroDivisionError):
            exact_quotient(p, zero)
        with pytest.raises(ZeroDivisionError):
            exact_quotient(zero, zero)
        with pytest.raises(ZeroPolynomial):
            exact_quotient(zero, p)
        with pytest.raises(ZeroPolynomial):
            multiplicity(zero, p)
        with pytest.raises(ZeroPolynomial):
            multiplicity("t - 1", zero)
    for unit in ("-3/4*t^5", LaurentPoly.one(), LaurentPoly({-2: 7})):
        assert gcd(unit, p).is_one and gcd(p, unit).is_one
        assert divides(unit, p)
        assert exact_quotient(p, unit) == normalize(p)
        with pytest.raises(ValueError):
            multiplicity(unit, p)
    assert not divides(p, "5*t^3")
    with pytest.raises(ValueError):
        exact_quotient("5*t^3", p)


def test_integer_core_failing_divisions():
    # divisor of higher degree than the dividend
    assert not divides("t^3 + 1", "t + 1")
    with pytest.raises(ValueError, match="does not divide"):
        exact_quotient("t + 1", "t^3 + 1")
    # the constant terms match, the second long-division step leaves 1/2
    assert not divides("2*t + 1", "4*t^2 + 3*t + 1")
    with pytest.raises(ValueError):
        exact_quotient("4*t^2 + 3*t + 1", "2*t + 1")
    # the leading step leaves 1/2 while the low coefficients cancel
    assert not divides("2*t + 1", "t^2 + 2*t + 1")
    # every step divides, a nonzero remainder is left over
    assert not divides("t + 1", "t^2 + 1")
    assert multiplicity("t + 1", "t^2 + 1") == 0
    # a constant-term mismatch is caught before any step
    assert not divides("2*t + 3", "2*t^2 + 5*t + 1")


# -- factorization ------------------------------------------------------------


def test_factor_frozen_cases():
    assert factor("t^2 - 1") == ((parse("t - 1"), 1), (parse("t + 1"), 1))
    # (t - 1) * (t^2 - t + 1)^2, expanded by hand
    assert factor("t^5 - 3*t^4 + 5*t^3 - 5*t^2 + 3*t - 1") == (
        (parse("t - 1"), 1),
        (parse("t^2 - t + 1"), 2),
    )
    assert factor("7") == ()
    assert factor("t^-3") == ()
    assert factor("t^2 + 1") == ((parse("t^2 + 1"), 1),)
    # content does not leak into the factor list
    assert factor("6*t^2 - 6") == factor("t^2 - 1")


def test_factor_degree_cap():
    with pytest.raises(DegreeCapExceeded):
        factor("t^9 - 1", degree_cap=8)
    assert factor("t^9 - 1", degree_cap=9)  # just under the cap is fine


_STRATA = bounds.StratificationData(7, [bounds.Stratum(3, [bounds.StratumComponent(["t - 1"])])])
_ZERO6 = Perversity.zero(6)


@pytest.mark.parametrize("bad", [1.5, True, None, "8"],
                         ids=["float", "bool", "none", "str"])
@pytest.mark.parametrize("call", [
    lambda v: factor("t + 1", v),
    lambda v: bounds.check_result("t - 1", set(), degree_cap=v),
    lambda v: bounds.allowed_primes_single(2, 7, 4, "t - 2", [], degree_cap=v),
    lambda v: bounds.exclusion_single("t^2 + 1", 2, 4, _ZERO6, "t - 2", [],
                                      degree_cap=v),
    lambda v: bounds.allowed_primes_general(2, "t - 2", _STRATA, degree_cap=v),
    lambda v: bounds.max_power_bound("t - 1", 2, 3, bounds.E2Table({}), 6,
                                     _ZERO6, degree_cap=v),
    lambda v: _require_prime("t - 1", v),
    lambda v: split_primary(ModuleSequence([FgGammaModule.cyclic("t - 1")], []),
                            "t - 1", degree_cap=v),
], ids=["factor", "check_result", "allowed_single", "exclusion_single",
        "allowed_general", "max_power_bound", "require_prime", "split_primary"])
def test_degree_cap_must_be_an_integer(call, bad):
    """Every caller reaches the one comparison with the cap, which refuses a
    non-integer as the constructors' integer fields do."""
    with pytest.raises(TypeError, match="^degree_cap must be an integer"):
        call(bad)


@given(nonzero_polys(max_span=3, max_terms=3, max_coeff=4),
       nonzero_polys(max_span=3, max_terms=3, max_coeff=4))
@settings(max_examples=60, deadline=None)
def test_factor_matches_brute_force_oracle(p, q):
    prod = p * q
    assume(prod.degree <= 6)
    assert factor(prod) == kronecker_factor(prod)


@given(nonzero_polys(max_span=4, max_terms=4))
@settings(max_examples=60, deadline=None)
def test_factor_round_trip(p):
    rep = normalize(p)
    rebuilt = LaurentPoly.one()
    for prime, mult in factor(p):
        assert prime.degree >= 1
        assert normalize(prime) is prime
        rebuilt = rebuilt * prime**mult
    assert rebuilt == rep


@given(nonzero_polys(max_span=3, max_terms=3))
@settings(max_examples=40, deadline=None)
def test_factor_primes_pairwise_nonassociate(p):
    primes = [prime for prime, _ in factor(p)]
    assert len(primes) == len(set(primes))
    for i, a in enumerate(primes):
        for b in primes[i + 1:]:
            assert gcd(a, b).is_one


# -- cyclotomic pre-pass ----------------------------------------------------------


def test_factor_raised_cap():
    phi241 = LaurentPoly(enumerate([1] * 241))
    assert factor(phi241, degree_cap=240) == ((phi241, 1),)
    with pytest.raises(DegreeCapExceeded):
        factor(phi241)


def test_factor_with_root_at_two():
    # t - 2 divides, the value at 2 is 0 and every Phi_n(2) filter passes
    t_minus_2 = parse("t - 2")
    phi17, phi23 = (LaurentPoly(enumerate([1] * n)) for n in (17, 23))
    assert factor(t_minus_2 * phi17 * phi23) == (
        (t_minus_2, 1), (phi17, 1), (phi23, 1))
    eisenstein = parse("t^3 + 2*t^2 + 2")
    phi1, phi2 = parse("t - 1"), parse("t + 1")
    assert factor(t_minus_2**2 * phi1**3 * phi2 * eisenstein) == (
        (t_minus_2, 2), (phi1, 3), (phi2, 1), (eisenstein, 1))


def test_factor_builds_no_sympy_poly(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"factor built a sympy {cls.__name__}")

    monkeypatch.setattr(sympy.Poly, "__new__", refuse)
    monkeypatch.setattr(sympy.Symbol, "__new__", refuse)
    assert factor("t^5 - t - 1") == ((parse("t^5 - t - 1"), 1),)
    assert len(factor("t^12 - 1")) == 6


_CYCLOTOMIC_POOL = [sympy_cyclotomic(n) for n, _ in _cyclotomic_orders(12)]


@st.composite
def eisenstein_polys(draw):
    """Irreducible by Eisenstein's criterion at 2."""
    degree = draw(st.integers(1, 4))
    middle = draw(st.lists(st.sampled_from([-4, -2, 0, 2, 4]),
                           min_size=degree - 1, max_size=degree - 1))
    return LaurentPoly(enumerate([draw(st.sampled_from([-10, -2, 2, 10])),
                                  *middle, draw(st.sampled_from([1, 3]))]))


@st.composite
def planted_factorizations(draw):
    """A Counter of irreducibles with multiplicities 1-3, total degree <= 24."""
    prime = st.one_of(st.sampled_from(_CYCLOTOMIC_POOL), small_primes_st(),
                      eisenstein_polys(), st.just(parse("t - 2")))
    planted = Counter()
    for q, mult in draw(st.lists(st.tuples(prime, st.integers(1, 3)),
                                 max_size=5)):
        degree = sum(r.degree * m for r, m in planted.items())
        if degree + q.degree * mult <= 24:
            planted[q] += mult
    return planted


@given(planted_factorizations(), rationals().filter(bool), st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_factor_matches_sympy_oracle(planted, scale, shift):
    product = LaurentPoly.one()
    for q, mult in planted.items():
        product = product * q**mult
    p = product.scale(scale) * LaurentPoly({shift: 1})
    expected = tuple(sorted(planted.items(), key=lambda kv: kv[0].sort_key()))
    assert factor(p) == sympy_factor(p) == expected


# -- the modular factorizer on what the pre-pass leaves --------------------------


def test_normalize_passes_rep_through():
    rep = parse("t^3 - 2*t^2 + 2")
    assert normalize(rep) is rep


_QUADRATICS = [parse(f"t^2 + {c}") for c in (1, 4, 8, 16)]


@st.composite
def zassenhaus_inputs(draw):
    """A Counter of irreducibles, multiplicities 1-3, total degree <= 64:
    Eisenstein polynomials, some with leading coefficients divisible by 3,
    5 and 7, and quadratics t^2 + c whose products are not square-free mod
    3, 5 or 7 (t^2 + 1 = t^2 + 4 mod 3, t^2 + 16 mod 5, t^2 + 8 mod 7)."""
    planted, budget = Counter(), 64
    for _ in range(draw(st.integers(1, 4))):
        if budget < 2:
            break
        mult = draw(st.integers(1, 3))
        if draw(st.booleans()):
            q = draw(st.sampled_from(_QUADRATICS))
        else:
            degree = draw(st.integers(1, budget))
            q = eisenstein_coeffs(
                draw(st.sampled_from((-5, -3, -1, 1, 3, 5))),
                draw(st.lists(st.integers(-3, 3), min_size=degree - 1,
                              max_size=degree - 1)),
                draw(st.sampled_from((1, 1, 3, 5, 7, 15, 21, 35, 105))))
        mult = min(mult, budget // q.degree)
        if mult:
            planted[q] += mult
            budget -= q.degree * mult
    assume(planted)
    return planted


@given(zassenhaus_inputs())
@example(Counter({_QUADRATICS[0]: 1, _QUADRATICS[1]: 1}))
@example(Counter(dict.fromkeys(_QUADRATICS, 1)))
@settings(max_examples=25, deadline=None)
def test_factor_matches_sympy_oracle_to_degree_64(planted):
    product = LaurentPoly.one()
    for q, mult in planted.items():
        product = product * q**mult
    expected = tuple(sorted(planted.items(), key=lambda kv: kv[0].sort_key()))
    assert factor(product) == sympy_factor(product) == expected


def test_factor_swinnerton_dyer_irreducible():
    # S_4 and S_5 have 8 and 16 factors mod every prime, so recombination
    # tries every subset up to half of them before giving up
    for n in (4, 5):
        s = sympy_swinnerton_dyer(n)
        assert factor(s) == ((s, 1),)


def test_factor_uses_no_sympy_factorizer(monkeypatch):
    import sympy.polys.factortools as factortools

    def refuse(*args, **kwargs):
        raise AssertionError("factor called sympy's factorizer")

    monkeypatch.setattr(factortools, "dup_factor_list", refuse)
    monkeypatch.setattr(factortools, "dup_zz_zassenhaus", refuse)
    assert factor("t^5 - t - 1") == ((parse("t^5 - t - 1"), 1),)
    assert len(factor("t^12 - 1")) == 6
    rng = random.Random(64)
    planted = [seeded_eisenstein(rng, d) for d in (20, 21, 23)]
    assert factor(planted[0] * planted[1] * planted[2]) == tuple(
        (q, 1) for q in sorted(planted, key=LaurentPoly.sort_key))


# -- Alexander type ------------------------------------------------------------


def test_alexander_type_frozen():
    assert is_alexander_type("t^2 - t + 1")
    assert is_alexander_type("t - 2")  # evaluates to -1
    assert is_alexander_type("1")
    assert not is_alexander_type("t - 1")
    assert not is_alexander_type("3*t - 1")
    assert not is_alexander_type("t^2 + t + 1")


@given(nonzero_polys(max_terms=4), nonzero_polys(max_terms=4))
def test_alexander_type_closure(p, q):
    prod_type = is_alexander_type(p * q)
    both = is_alexander_type(p) and is_alexander_type(q)
    # |a*b| = 1 over the integers forces |a| = |b| = 1, so the two agree
    assert prod_type == both
