"""Divisor windows, exclusion certificates, and multiplicity caps."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ialex import cli
from ialex.bounds import (
    DegreeOutOfRange,
    E2Table,
    MissingOrdinaryData,
    StratificationData,
    Stratum,
    StratumComponent,
    allowed_primes_general,
    allowed_primes_single,
    check_result,
    exclusion_single,
    max_power_bound,
)
from ialex.engine import Perversity, ia_product
from ialex.gmodule import NotPrime, order_polynomial
from ialex.laurent import (
    DegreeCapExceeded,
    LaurentPoly,
    ZeroPolynomial,
    divides,
    exact_quotient,
    normalize,
)

from conftest import MIXED_POOL, product_inputs, traditional_perversities
from oracles import factor_check_result

ONE = LaurentPoly.one()
T1 = normalize("t - 1")
ZERO6 = Perversity.zero(6)


_TABLE = E2Table({(0, 2, 0): "t - 1"})
_DATA = StratificationData(7, [Stratum(3, [StratumComponent(["t - 1", "t + 1"])])])


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name, call", [
    ("i", lambda v: allowed_primes_single(v, 7, 4, "t - 2", [])),
    ("n", lambda v: allowed_primes_single(2, v, 4, "t - 2", [])),
    ("k", lambda v: allowed_primes_single(2, 7, v, "t - 2", [])),
    ("i", lambda v: exclusion_single("t^2 + 1", v, 4, ZERO6, "t - 2", [])),
    ("k", lambda v: exclusion_single("t^2 + 1", 2, v, ZERO6, "t - 2", [])),
    ("j", lambda v: allowed_primes_general(v, "1", _DATA)),
    ("j", lambda v: max_power_bound("t - 1", v, 3, _TABLE, 6, ZERO6)),
    ("n", lambda v: max_power_bound("t - 1", 2, 3, _TABLE, v, ZERO6)),
], ids=["single-i", "single-n", "single-k", "exclusion-i", "exclusion-k",
        "general-j", "power-j", "power-n"])
def test_functions_refuse_non_integer_arguments(name, call, bad):
    """Integer arguments are refused as the constructors' integer fields
    are, not truncated or compared."""
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call(bad)


# -- single-stratum window ------------------------------------------------------


def test_allowed_single_trivial_links():
    allowed = allowed_primes_single(2, 7, 4, "t^3 - t^2 + t - 1", ["1", "1", "1"])
    assert allowed == {T1, normalize("t^2 + 1")}


def test_allowed_single_pure_link():
    allowed = allowed_primes_single(2, 7, 4, "1", ["1", "t^2 - t + 1"])
    assert allowed == {normalize("t^2 - t + 1")}


def test_allowed_single_window_filters():
    # n=8, k=5, degree 2: admissible link degrees are s in {1, 2}
    xi = ["t + 1", "1", "1", "t^2 + 1", "t^2 - t + 1"]
    allowed = allowed_primes_single(2, 8, 5, "t - 2", xi)
    assert allowed == {normalize("t - 2")}

    # the same polynomials moved into the window do appear
    xi = ["1", "t^2 + 1", "t^2 - t + 1"]
    allowed = allowed_primes_single(2, 8, 5, "1", xi)
    assert allowed == {normalize("t^2 + 1"), normalize("t^2 - t + 1")}


def test_allowed_single_strips_unit_circle_factor():
    # t - 1 inside a link polynomial never enters; from c_i it does
    allowed = allowed_primes_single(2, 7, 4, "1", ["1", "t^2 - 1"])
    assert allowed == {normalize("t + 1")}
    assert T1 in allowed_primes_single(2, 7, 4, "t - 1", ["1", "1"])


def test_allowed_single_degree_errors():
    with pytest.raises(DegreeOutOfRange):
        allowed_primes_single(0, 7, 4, "1", [])
    with pytest.raises(DegreeOutOfRange):
        allowed_primes_single(6, 7, 4, "1", [])


# -- single-stratum exclusion ---------------------------------------------------


def test_exclusion_certificate_cases():
    xi = ["t - 1", "t^2 + 1", "1", "1"]
    # gamma away from lambda and from every high link degree
    assert exclusion_single("t^2 + 1", 2, 4, ZERO6, "t - 2", xi)
    # gamma divides lambda: no certificate
    assert not exclusion_single("t - 2", 2, 4, ZERO6, "t - 2", xi)
    # gamma sits exactly at the boundary degree k - p(k+1)
    xi_edge = ["1", "1", "t^2 + 1"]
    assert not exclusion_single("t^2 + 1", 2, 2, ZERO6, "t - 2", xi_edge)


def test_exclusion_perversity_moves_boundary():
    # with p(k+1) = 1 the window shrinks by one
    xi = ["1", "1", "1", "t^2 + 1"]
    high = Perversity([0, 0, 0, 1, 1])
    assert not exclusion_single("t^2 + 1", 2, 4, high, "1", xi)
    assert exclusion_single("t^2 + 1", 2, 4, ZERO6, "1", xi)


def test_exclusion_requires_prime():
    with pytest.raises(NotPrime):
        exclusion_single("t^2 - 1", 2, 4, ZERO6, "1", [])
    with pytest.raises(NotPrime):
        exclusion_single("1", 2, 4, ZERO6, "1", [])


# -- general stratification window ------------------------------------------------


def test_allowed_general_empty_strata():
    data = StratificationData(7, [])
    allowed = allowed_primes_general(2, "t^2 - 1", data)
    assert allowed == {T1, normalize("t + 1")}


def test_allowed_general_rejects_degree_equal_dim():
    # j - s = i is outside the window (needs j - s <= i - 1)
    data = StratificationData(8, [
        Stratum(3, [StratumComponent(["t + 1", "t^2 + 1"])])])
    allowed = allowed_primes_general(3, "1", data)
    assert normalize("t + 1") not in allowed       # s=0 has j-s = 3 = dim
    assert normalize("t^2 + 1") in allowed         # s=1 has j-s = 2 <= dim-1


def test_allowed_general_upper_degree_bound():
    # s < n - i - 2: with n=7, dim 3 only s < 2 counts
    data = StratificationData(7, [
        Stratum(3, [StratumComponent(["1", "t + 1", "t^2 + 1"])])])
    allowed = allowed_primes_general(2, "1", data)
    assert allowed == {normalize("t + 1")}


def test_allowed_general_ordinary_variant():
    comp = StratumComponent(["1", "t^2 + 1"], zeta=["1", "t^2 - t + 1"])
    data = StratificationData(8, [Stratum(3, [comp])])
    allowed = allowed_primes_general(2, "1", data, use_ordinary=True)
    assert allowed == {normalize("t^2 - t + 1")}

    bare = StratificationData(8, [Stratum(3, [StratumComponent(["1", "t^2 + 1"])])])
    with pytest.raises(MissingOrdinaryData):
        allowed_primes_general(2, "1", bare, use_ordinary=True)


def test_stratification_validation():
    with pytest.raises(ValueError):
        StratificationData(7, [Stratum(5, [])])       # no room for a link pair
    with pytest.raises(ValueError):
        StratificationData(7, [Stratum(2, []), Stratum(2, [])])
    with pytest.raises(ValueError):                   # grading above link dim
        StratificationData(7, [Stratum(3, [StratumComponent(["1"] * 4)])])
    data = StratificationData(7, [Stratum(3, []), Stratum(0, [])])
    assert [s.dim for s in data.strata] == [0, 3]
    literal = {"n": 7, "strata": [{"dim": 3}, {"dim": 0, "components": []}]}
    assert cli._stratification(literal, "payload.stratification") == data
    linked = StratificationData(8, [Stratum(3, [
        StratumComponent(["1", "t^2 + 1"], zeta=["1", "t^2 - t + 1"]),
        StratumComponent(["t - 1"])])])
    literal = {"n": 8, "strata": [{"dim": 3, "components": [
        {"xi": ["1", "t^2 + 1"], "zeta": ["1", "t^2 - t + 1"]},
        {"xi": ["t - 1"]}]}]}
    assert cli._stratification(literal, "payload.stratification") == linked


@given(st.integers(1, 4), st.integers(6, 12),
       st.lists(st.sampled_from(MIXED_POOL), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_general_refines_single_on_one_stratum(j, n, tail):
    """A single-stratum instance admits no prime under the general window
    that the product-neighborhood window would reject."""
    dim = n - 4
    k = n - dim - 1
    xi = [T1] + tail
    assume(len(xi) <= n - dim - 1 and j < n - 1)
    data = StratificationData(n, [Stratum(dim, [StratumComponent(xi)])])
    general = allowed_primes_general(j, "1", data)
    single = allowed_primes_single(j, n, k, "1", xi)
    assert general <= single


def test_window_composition_closes():
    """Windows iterate through links of links: if degree s of a dimension-i
    stratum's link is admissible, and degree r of that link's own
    dimension-a stratum is admissible within the link, then degree r is
    admissible for the dimension-(i+a+1) stratum of the original sphere."""
    hits = 0
    for n in range(6, 15):
        for j in range(10):
            for i in range(10):
                for s in range(10):
                    if not (0 <= j - s <= i - 1 and 0 <= s < n - i - 2):
                        continue
                    link_dim = n - i - 1
                    for a in range(10):
                        for r in range(10):
                            if not (0 <= s - r <= a - 1
                                    and 0 <= r < link_dim - a - 2):
                                continue
                            hits += 1
                            comp = i + a + 1
                            assert 0 <= j - r <= comp - 1
                            assert 0 <= r < n - comp - 2
    assert hits > 100


def test_nested_link_stratum_admitted():
    # the link of a stratum of a link is a stratum of the sphere: both the
    # direct route (dim 6, s=3) and the composed route (dim 9, r=2) count
    inner = Stratum(9, [StratumComponent(["1", "1", "t^2 - t - 1"])])
    outer = Stratum(6, [StratumComponent(["1", "1", "1", "t^2 + 1"])])
    data = StratificationData(14, [outer, inner])
    allowed = allowed_primes_general(4, "1", data)
    assert normalize("t^2 + 1") in allowed
    assert normalize("t^2 - t - 1") in allowed


# -- multiplicity caps ------------------------------------------------------------


def test_max_power_empty_table():
    assert max_power_bound("t - 1", 2, 5, E2Table({}), 6, ZERO6) == 5


def test_max_power_single_entry():
    table = E2Table({(0, 2, 0): "t - 1"})
    assert max_power_bound("t - 1", 2, 3, table, 6, ZERO6) == 4
    # the same entry feeds the j-1 sum one degree up
    assert max_power_bound("t - 1", 3, 3, table, 6, ZERO6) == 4
    # and is invisible two degrees up
    assert max_power_bound("t - 1", 4, 3, table, 6, ZERO6) == 3


def test_max_power_cone_window():
    # q >= n-i-1-p(n-i) and q != 0 is cut by the cone formula
    dead = E2Table({(2, 0, 3): "t - 1"})
    assert max_power_bound("t - 1", 3, 0, dead, 6, ZERO6) == 0
    # but the same entry counts in the j-1 sum, where no window applies
    assert max_power_bound("t - 1", 4, 0, dead, 6, ZERO6) == 1
    alive = E2Table({(2, 1, 2): "t - 1"})
    assert max_power_bound("t - 1", 3, 0, alive, 6, ZERO6) == 1


@pytest.mark.parametrize("key", [(True, 0, 2), (0, 0.7, 2), (0, 0, "2")])
def test_e2_table_refuses_non_integer_indices(key):
    with pytest.raises(TypeError):
        E2Table({key: "t - 1"})


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_e2_table_entry_refuses_non_integer_indices(at, bad):
    """entry(0.0, 2, 0) and entry(False, 2, 0) would find the (0, 2, 0)
    entry: a float or bool hashes and compares as the int it stands for."""
    index = [0, 2, 0]
    index[at] = bad
    with pytest.raises(TypeError, match="^a table index must be an integer"):
        _TABLE.entry(*index)


@pytest.mark.parametrize("dim", [3.9, True, "3"])
def test_stratum_refuses_non_integer_dimension(dim):
    with pytest.raises(TypeError):
        Stratum(dim, [])


@pytest.mark.parametrize("n", [7.5, "7"])
def test_stratification_refuses_non_integer_ambient_dimension(n):
    with pytest.raises(TypeError):
        StratificationData(n, [])


def test_max_power_requires_prime():
    with pytest.raises(NotPrime):
        max_power_bound("t^2 - 1", 2, 0, E2Table({}), 6, ZERO6)


def test_e2_table_roundtrip():
    table = E2Table({(0, 1, 0): "t - 1", (1, 0, 1): "1", (2, 1, 1): "t + 1"})
    assert table.entry(1, 0, 1).is_one
    assert cli._e2table(table.to_json(), "payload.table") == table
    with pytest.raises(ValueError):
        E2Table({(0, -1, 0): "t - 1"})


@st.composite
def t1_tables(draw):
    keys = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        min_size=1, max_size=5, unique=True))
    return {key: T1 ** draw(st.integers(0, 2)) for key in keys}


@given(t1_tables(), st.integers(0, 5), st.integers(0, 4),
       traditional_perversities(max_codim=6), st.data())
@settings(max_examples=60, deadline=None)
def test_max_power_monotone(entries, j, gamma_j, p, data):
    base = max_power_bound("t - 1", j, gamma_j, E2Table(entries), 6, p)
    assert max_power_bound("t - 1", j, gamma_j + 1, E2Table(entries), 6, p) == base + 1

    key = data.draw(st.sampled_from(sorted(entries)))
    bumped = dict(entries)
    bumped[key] = bumped[key] * T1
    assert max_power_bound("t - 1", j, gamma_j, E2Table(bumped), 6, p) >= base

    doubled = E2Table({k: q * q for k, q in entries.items()})
    twice = max_power_bound("t - 1", j, gamma_j, doubled, 6, p)
    assert twice - gamma_j == 2 * (base - gamma_j)


# -- result checking ---------------------------------------------------------------


def test_check_result_cases():
    assert check_result("1", set()) == {"ok": True}
    allowed = {T1, normalize("t + 1")}
    assert check_result("t^2 - 1", allowed)["ok"]

    out = check_result("t^2 - t + 1", allowed)
    assert out == {"ok": False, "prime": "t^2 - t + 1", "observed": 1, "allowed": 0}

    capped = check_result("t^3 - 3*t^2 + 3*t - 1", {T1}, {T1: 2})
    assert capped == {"ok": False, "prime": "t - 1", "observed": 3, "allowed": 2}


def test_check_result_reducible_allowed_entry_allows_no_prime():
    """Allowed entries are primes: a reducible one matches no factor, so the
    first factor is reported, although the entry divides ia_j exactly."""
    out = check_result("t^2 - 1", {normalize("t^2 - 1")})
    assert out == {"ok": False, "prime": "t - 1", "observed": 1, "allowed": 0}


# irreducibles: t - 1, cyclotomics, non-monic and non-cyclotomic ones, and
# t^4 - 10t^2 + 1, which splits mod every prime
CHECK_POOL = [normalize(q) for q in (
    "t - 1", "t + 1", "t^2 + 1", "t^2 + t + 1", "t^2 - t + 1", "t^4 + 1",
    "2*t - 1", "t - 2", "t^2 - t - 1", "t^4 - 10*t^2 + 1")]
# associates of pool primes, units, and entries coprime to every product
CHECK_EXTRAS = ["2*t - 2", "1 - t^-1", "-t^2 - 1", "3*t^3 - 3*t^2 + 3*t",
                "1", "-3", "t^2", "t^2 + 3", "3*t + 1", "t^3 - t - 1"]


@st.composite
def check_inputs(draw):
    """ia_j a product of 1-4 pool primes, repeats allowed; allowed entries
    from its primes, the pool, products of one of its primes with a pool
    prime, and the extras; caps 0-3, mostly on its primes."""
    primes = draw(st.lists(st.sampled_from(CHECK_POOL), min_size=1, max_size=4))
    ia = LaurentPoly.one()
    for q in primes:
        ia = ia * q
    pool = st.sampled_from(CHECK_POOL)
    entry = st.one_of(
        pool, st.sampled_from(primes),
        st.tuples(st.sampled_from(primes), pool)
        .map(lambda pair: pair[0] * pair[1]),
        st.sampled_from(CHECK_EXTRAS))
    allowed = draw(st.one_of(st.just(primes), st.lists(
        st.sampled_from(primes)))) + draw(st.lists(entry, max_size=6))
    caps = draw(st.dictionaries(entry, st.integers(0, 3), max_size=2))
    caps.update(draw(st.dictionaries(st.sampled_from(primes),
                                     st.integers(0, 3), max_size=4)))
    return ia, allowed, caps


@given(check_inputs())
@settings(max_examples=200, deadline=None)
def test_check_result_matches_factoring_oracle(case):
    ia, allowed, caps = case
    assert check_result(ia, allowed, caps) == factor_check_result(
        ia, allowed, caps)


def power_product(*pairs) -> LaurentPoly:
    out = LaurentPoly.one()
    for text, power in pairs:
        out = out * normalize(text) ** power
    return out


@pytest.mark.parametrize("ia, allowed, caps, expected", [
    # the cofactor prime t + 1 sorts before the over-cap t^2 + 1
    ([("t + 1", 1), ("t^2 + 1", 3)], ["t^2 + 1"], {"t^2 + 1": 2},
     {"ok": False, "prime": "t + 1", "observed": 1, "allowed": 0}),
    # the cofactor prime t^2 + 1 sorts after the over-cap t - 1
    ([("t - 1", 3), ("t^2 + 1", 1)], ["t - 1", "t + 1"], {"t - 1": 2},
     {"ok": False, "prime": "t - 1", "observed": 3, "allowed": 2}),
    # caps are read on associates; t - 1 holds its cap, t + 1 is the first
    # over its own, and t^2 + 1 is over its cap later
    ([("t - 1", 1), ("t + 1", 2), ("t^2 + 1", 2)],
     ["t^2 + 1", "t + 1", "2*t - 2"], {"2 - 2*t": 1, "t + 1": 1, "t^2 + 1": 0},
     {"ok": False, "prime": "t + 1", "observed": 2, "allowed": 1}),
    # a reducible entry allows neither of its primes, though the allowed
    # entry beside it divides ia_j
    ([("t - 1", 1), ("t + 1", 1), ("t^2 + 1", 1)], ["t^2 + 1", "t^2 - 1"], {},
     {"ok": False, "prime": "t - 1", "observed": 1, "allowed": 0}),
])
def test_check_result_reports_the_first_violation(ia, allowed, caps,
                                                  expected):
    ia = power_product(*ia)
    assert check_result(ia, allowed, caps) == expected
    assert factor_check_result(ia, allowed, caps) == expected


@pytest.mark.parametrize("ia, allowed, caps, error", [
    ("t^70 - 1", ["t - 1", "0"], {}, ZeroPolynomial),  # allowed entries first
    ("t^70 - 1", ["t - 1"], {"0": 1}, ZeroPolynomial),  # then the caps
    ("t^70 - 1", ["t - 1"], {"t - 1": 1}, DegreeCapExceeded),  # then ia_j
    ("0", ["t - 1"], {}, ZeroPolynomial),
])
def test_check_result_error_order(ia, allowed, caps, error):
    """Errors come in the factoring route's order, with its messages."""
    with pytest.raises(error) as new:
        check_result(ia, allowed, caps)
    with pytest.raises(error) as old:
        factor_check_result(ia, allowed, caps)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("cap", [True, 0.5, "1"])
def test_check_result_refuses_non_integer_caps(cap):
    with pytest.raises(TypeError):
        check_result("t - 1", [T1], {"t - 1": cap})


@given(product_inputs(realizable=True))
@settings(max_examples=30, deadline=None)
def test_engine_outputs_inside_single_window(inp):
    """Exactly computable product instances stay inside the admissible set."""
    out, _ = ia_product(inp)
    xi = [order_polynomial(m) for m in inp.link_modules]
    for i in range(1, inp.n - 2 + 1):
        allowed = allowed_primes_single(i, inp.n, inp.k, inp.c_at(i), xi)
        assert check_result(out[i], allowed)["ok"]


@given(product_inputs())
@settings(max_examples=30, deadline=None)
def test_engine_outputs_respect_exclusions(inp):
    out, report = ia_product(inp)
    xi = [order_polynomial(m) for m in inp.link_modules]
    probes = MIXED_POOL + [normalize("t^2 + 1")]
    for i in range(1, inp.n - 2 + 1):
        nu = normalize(report[i]["nu"])
        lam = exact_quotient(nu, inp.a_at(i)) * inp.c_at(i)
        for gamma in probes:
            if exclusion_single(gamma, i, inp.k, inp.perversity, lam, xi):
                assert not divides(gamma, out[i])