"""Divisor windows, exclusion certificates, and multiplicity caps."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from ialex.laurent import LaurentPoly, divides, exact_quotient, normalize

from conftest import MIXED_POOL, product_inputs, traditional_perversities

ONE = LaurentPoly.one()
T1 = normalize("t - 1")
ZERO6 = Perversity.zero(6)


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
    assert StratificationData.from_json(data.to_json()) == data


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


def test_max_power_requires_prime():
    with pytest.raises(NotPrime):
        max_power_bound("t^2 - 1", 2, 0, E2Table({}), 6, ZERO6)


def test_e2_table_roundtrip():
    table = E2Table({(0, 1, 0): "t - 1", (1, 0, 1): "1", (2, 1, 1): "t + 1"})
    assert table.entry(1, 0, 1).is_one
    assert E2Table.from_json(table.to_json()) == table
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