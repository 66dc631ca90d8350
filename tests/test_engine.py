"""Perversities, the cone formula, and the closed-form knot computations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ialex.engine import (
    DiskKnotData,
    DivisibilityViolation,
    InvalidPerversity,
    Perversity,
    PerversityOutOfRange,
    ProductSingularityInput,
    SuperperversityNotAllowed,
    cone_ih,
    ia_point,
    ia_product,
    superdual_polynomials,
    validate_normalization,
)
from ialex.exactseq import solve_missing_third
from ialex.gmodule import FgGammaModule, GammaMatrix, NotTorsion
from ialex.laurent import (
    LaurentPoly,
    exact_quotient,
    factor,
    multiplicity,
    normalize,
    similar,
)

from conftest import (
    MIXED_POOL as POOL,
    disk_knot_data,
    product_inputs,
    traditional_perversities,
)
from oracles import kunneth_order, two_pass_ia_product

ONE = LaurentPoly.one()
T1 = normalize("t - 1")


# -- perversity arithmetic ----------------------------------------------------


def test_perversity_validation():
    Perversity([0, 1, 1, 2])
    Perversity([1, 2, 3])
    with pytest.raises(InvalidPerversity):
        Perversity([2, 3])
    with pytest.raises(InvalidPerversity):
        Perversity([0, 2])
    with pytest.raises(InvalidPerversity):
        Perversity([0, 1, 0])
    with pytest.raises(InvalidPerversity):
        Perversity([])


@pytest.mark.parametrize("values", [
    [False, 0.9, 1.2, "2"],
    [0, 1.0],
    [True, 1],
    [0, "1"],
])
def test_perversity_refuses_non_integer_values(values):
    """A boolean, float or string value is refused, not coerced by int()."""
    with pytest.raises(TypeError, match="a perversity value must be an integer"):
        Perversity(values)


def product_input(n, k):
    return ProductSingularityInput(
        n, k, Perversity([0, 0, 0, 0, 0]), [FgGammaModule(1)],
        [FgGammaModule(0, ["t - 1"])], c=[], a_high=[])


@pytest.mark.parametrize("build", [
    lambda: FgGammaModule(1.5),
    lambda: FgGammaModule(True),
    lambda: GammaMatrix([], cols=2.5),
    lambda: GammaMatrix([["1"]], cols=True),
    lambda: GammaMatrix.from_rows([], "2"),
    lambda: DiskKnotData(4.0, ["1"], ["t - 1"], ["1"]),
    lambda: product_input(6.0, 3),
    lambda: product_input(6, 3.0),
    lambda: product_input(6, True),
], ids=["free-rank-float", "free-rank-bool", "cols-float", "cols-bool",
        "cols-str", "disk-knot-n-float", "product-n-float", "product-k-float",
        "product-k-bool"])
def test_constructors_refuse_non_integer_fields(build):
    """Integer fields of the library constructors refuse booleans, floats
    and strings, as LaurentPoly exponents and Perversity values do."""
    with pytest.raises(TypeError, match="must be an integer"):
        build()


@pytest.mark.parametrize("bad", [3.0, True, "3"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("call", [
    lambda n: cone_ih([], n, Perversity([0])),
    lambda n: superdual_polynomials(["t - 1"], n),
    lambda n: validate_normalization(["t - 1", "1"], n),
], ids=["cone-ih-n", "superdual-n", "validate-n"])
def test_functions_refuse_non_integer_arguments(call, bad):
    """Integer arguments of the library functions are refused as the
    constructors' integer fields are, not truncated or compared."""
    with pytest.raises(TypeError, match="n must be an integer"):
        call(bad)


def test_perversity_lookup():
    p = Perversity([0, 0, 1])
    assert p(2) == 0 and p(4) == 1
    assert p.max_codim == 4
    with pytest.raises(PerversityOutOfRange):
        p(5)
    with pytest.raises(PerversityOutOfRange):
        p(1)


def test_superdual_frozen():
    assert Perversity.zero(6).superdual().values == (1, 2, 3, 4, 5)
    assert Perversity.top(6).superdual().values == (1, 1, 1, 1, 1)


@given(traditional_perversities())
def test_superdual_involution(p):
    q = p.superdual()
    assert q.values[0] == 1
    assert q.superdual() == p
    for k in range(2, p.max_codim + 1):
        assert p(k) + q(k) == k - 1


# -- cone formula --------------------------------------------------------------


def test_cone_frozen_circle():
    circle = [FgGammaModule.cyclic("t - 1")]
    out = cone_ih(circle, 2, Perversity.zero(2))
    assert out[0] == FgGammaModule.cyclic("t - 1")
    assert all(m.is_zero for m in out[1:])


def test_cone_zero_perversity_copies_low_degrees():
    link = [FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t + 1"),
            FgGammaModule.free(0), FgGammaModule.cyclic("t^2 + 1")]
    out = cone_ih(link, 5, Perversity.zero(5))
    # cutoff n-1-p = 4: degrees 0..3 copied
    assert list(out) == list(link) + [FgGammaModule.zero()]


def test_cone_truncation():
    link = [FgGammaModule.cyclic("t - 1"), FgGammaModule.zero(),
            FgGammaModule.cyclic("t + 1")]
    p = Perversity([0, 1, 1])
    out = cone_ih(link, 4, p)  # cutoff 4-1-1 = 2 kills degree 2
    assert out[2].is_zero and out[0] == link[0]


def test_cone_errors():
    with pytest.raises(PerversityOutOfRange):
        cone_ih([FgGammaModule.zero()], 9, Perversity.zero(4))
    with pytest.raises(ValueError):
        cone_ih([FgGammaModule.zero()] * 5, 3, Perversity.zero(3))


@given(st.lists(st.sampled_from(
    [FgGammaModule.zero(), FgGammaModule.cyclic("t - 1"),
     FgGammaModule.cyclic("t^2 + 1")]), min_size=1, max_size=5),
    traditional_perversities())
@settings(max_examples=50, deadline=None)
def test_cone_piecewise(link, p):
    n = p.max_codim
    if len(link) > n:
        link = link[:n]
    out = cone_ih(link, n, p)
    cutoff = n - 1 - p(n)
    for i, m in enumerate(out):
        if i == 0:
            assert m == link[0]
        elif i >= cutoff:
            assert m.is_zero
        else:
            assert m == (link[i] if i < len(link) else FgGammaModule.zero())


# -- locally flat --------------------------------------------------------------


def test_locally_flat_identity():
    """Locally flat knots keep their ordinary Alexander polynomials, so
    their closed form is normalization alone."""
    lams = ["t - 1", "t^2 - t + 1", "2 - 2*t^-1"]
    assert [str(normalize(q)) for q in lams] == ["t - 1", "t^2 - t + 1", "t - 1"]
    assert normalize(ONE) == ONE


# -- point singularities ---------------------------------------------------------


def test_disk_knot_data_validation():
    # a nonunit at the top of the a-chain breaks zero-boundedness
    with pytest.raises(ValueError) as info:
        DiskKnotData(5, a=["1", "t - 2"], b=["t - 1", "t + 1"], c=["1", "1"])
    assert str(info.value) == (
        "inconsistent subpolynomial data: boundary splittings must be 1")
    data = DiskKnotData(5, a=["1", "t - 2", "1"], b=["t - 1", "t + 1", "1"],
                        c=["1", "t^2 - t + 1", "1"])
    assert data.mu(2) == normalize("t - 2")
    assert data.a_at(-1).is_one and data.b_at(99).is_one


def test_ia_point_branches():
    data = DiskKnotData(5, a=["1", "t - 2", "1"], b=["t - 1", "t + 1", "1"],
                        c=["1", "t^2 - t + 1", "1"])
    # cut at 1: lambda below, c at, mu above
    out = ia_point(data, Perversity.top(5))
    assert out[0] == data.lam(0) == T1
    assert out[1] == data.c_at(1)
    assert out[2] == data.mu(2)
    assert out[3] == data.mu(3) == ONE

    # zero perversity: cut at n-1 = 4, everything below is lambda
    flat = ia_point(data, Perversity.zero(5))
    assert flat == tuple(data.lam(i) for i in range(4))


def test_ia_point_errors():
    data = DiskKnotData(4, a=["1"], b=["t - 1"], c=["1"])
    with pytest.raises(SuperperversityNotAllowed):
        ia_point(data, Perversity([1, 1, 1]))
    with pytest.raises(PerversityOutOfRange):
        ia_point(data, Perversity.zero(3))


@given(disk_knot_data(), traditional_perversities())
@settings(max_examples=50, deadline=None)
def test_ia_point_piecewise_formula(data, p):
    if p.max_codim < data.n:
        return
    cut = data.n - 1 - p(data.n)
    out = ia_point(data, p)
    for i, q in enumerate(out):
        if i < cut:
            assert q == data.lam(i)
        elif i == cut:
            assert q == data.c_at(i)
        else:
            assert q == data.mu(i)


@given(disk_knot_data(), traditional_perversities())
@settings(max_examples=50, deadline=None)
def test_ia_point_normalization(data, p):
    if p.max_codim < data.n:
        return
    report = validate_normalization(ia_point(data, p), data.n)
    assert all(row["ok"] for row in report)


@given(disk_knot_data())
@settings(max_examples=50, deadline=None)
def test_point_sequence_solvable_from_junctions(data):
    """The mu column is recoverable from nu, lambda and the a-junctions."""
    entries = []
    junctions = {}
    for pos, i in enumerate(range(data.top, -1, -1)):
        entries.extend([data.nu(i), data.lam(i), None])
        junctions[3 * pos] = data.a_at(i)
    polys, _ = solve_missing_third(entries, junctions)
    for pos, i in enumerate(range(data.top, -1, -1)):
        assert polys[3 * pos + 2] == data.mu(i)


# -- product singularities ----------------------------------------------------------


def test_product_input_validation():
    p = Perversity.zero(6)
    links = [FgGammaModule.cyclic("t - 1")]
    free_sigma = [FgGammaModule.free(1)]

    with pytest.raises(ValueError):  # bad link degree 0
        ProductSingularityInput(6, 4, p, free_sigma + [FgGammaModule.zero()],
                                [FgGammaModule.cyclic("t + 1")], [], [])
    with pytest.raises(NotTorsion):  # free link module
        ProductSingularityInput(6, 4, p, free_sigma,
                                [FgGammaModule.cyclic("t - 1"), FgGammaModule.free(1)],
                                [], [])
    with pytest.raises(ValueError):  # link must vanish in degrees >= k-1
        ProductSingularityInput(
            6, 3, p, [FgGammaModule.free(1), FgGammaModule.zero()],
            [FgGammaModule.cyclic("t - 1"), FgGammaModule.zero(),
             FgGammaModule.cyclic("t + 1")], [], [])
    with pytest.raises(ValueError):  # torsion in top sigma degree
        ProductSingularityInput(
            6, 3, p, [FgGammaModule.free(1), FgGammaModule.zero(),
                      FgGammaModule.cyclic("t - 1")],
            [FgGammaModule.cyclic("t - 1")], [], [])
    with pytest.raises(SuperperversityNotAllowed):
        ProductSingularityInput(6, 4, Perversity([1, 1, 1, 1, 1]), free_sigma,
                                [FgGammaModule.cyclic("t - 1")], [], [])


def test_product_divisibility_violation():
    p = Perversity.zero(6)
    inp = ProductSingularityInput(
        6, 4, p, [FgGammaModule.free(1), FgGammaModule.zero()],
        [FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t^2 - t + 1")],
        c=[], a_high=["1", "t + 1"])
    with pytest.raises(DivisibilityViolation):
        ia_product(inp)


@given(product_inputs())
@settings(max_examples=40, deadline=None)
def test_product_stable_ranges(inp):
    out, report = ia_product(inp)
    p = inp.perversity
    s_min = inp.k - p(inp.k + 1)
    for i, q in enumerate(out):
        nu = normalize(report[i]["nu"])
        lam = exact_quotient(nu, inp.a_at(i)) * inp.c_at(i)
        mu = inp.c_at(i) * inp.a_at(i - 1)
        if i < s_min:
            assert q == lam
        if i >= inp.n - p(inp.k + 1) + 1:
            assert q == mu
    if p(inp.k + 1) <= 1:
        for i, q in enumerate(out):
            nu = normalize(report[i]["nu"])
            lam = exact_quotient(nu, inp.a_at(i)) * inp.c_at(i)
            assert q == lam


@given(product_inputs())
@settings(max_examples=30, deadline=None)
def test_product_report_consistent(inp):
    out, report = ia_product(inp)
    for i, row in enumerate(report):
        assert normalize(row["value"]) == out[i]
        # nu = a * b_high * b_low
        nu = inp.a_at(i) * normalize(row["b_high"]) * normalize(row["b_low"])
        assert nu == normalize(row["nu"])


@given(st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.lists(st.sampled_from(POOL), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_product_simple_coefficients(betas, xi_primes):
    """All-free sigma: nu_i is the product of xi_s to the Betti numbers."""
    n, k = 7, 3
    sigma = [FgGammaModule.free(b) for b in betas]
    xi1 = ONE
    for q in xi_primes:
        xi1 = xi1 * q
    links = [FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic(xi1)]
    inp = ProductSingularityInput(
        n, k, Perversity.zero(n), sigma, links,
        c=[], a_high=[], a=None)
    _, report = ia_product(inp)
    xi = [T1, normalize(xi1)]
    for i, row in enumerate(report):
        expected = ONE
        for r, beta in enumerate(betas):
            s = i - r
            if 0 <= s < len(xi):
                expected = expected * xi[s] ** beta
        assert normalize(row["nu"]) == expected


@given(disk_knot_data(n=6), traditional_perversities(max_codim=6))
@settings(max_examples=40, deadline=None)
def test_product_point_sigma_matches_ia_point(data, p):
    n = data.n
    k = n - 1
    expected = ia_point(data, p)
    cut = n - 1 - p(n)

    links = [FgGammaModule.cyclic(data.nu(i)) for i in range(min(data.top + 1, k - 1))]
    a_high = [ONE if i < cut else data.a_at(i) for i in range(n - 1)]
    a_full = [data.a_at(i) for i in range(n - 1)]
    inp = ProductSingularityInput(
        n, k, p, [FgGammaModule.free(1)], links,
        c=[data.c_at(i) for i in range(n - 1)], a_high=a_high, a=a_full)
    got, _ = ia_product(inp)
    assert got == expected


# the four divisibility checks and the free Kunneth term, as each is reported
PLANTS = {
    "a_high-a": "does not divide a =",
    "a_high-high": "does not divide the high Kunneth polynomial",
    "a-nu": "does not divide nu =",
    "b_high-b": "does not divide b =",
    "free": "order polynomial requires a torsion module",
}
FOREIGN = normalize("t^2 + 1")   # divides no Kunneth order drawn from POOL


@st.composite
def planted_product_inputs(draw):
    """(plant, input): a valid product input, with a omitted or explicit,
    or one that breaks the check `plant` names at a drawn degree and
    nowhere before it."""
    inp = draw(product_inputs())
    plant = draw(st.sampled_from([None, *PLANTS]))
    perversity, a_high, a = inp.perversity, list(inp.a_high), list(inp.a)

    def split(p):
        return [kunneth_order(inp.sigma_homology, inp.link_modules, j,
                              inp.k - p(inp.k + 1)) for j in range(inp.n - 1)]

    parts, degrees = split(perversity), range(inp.n - 1)
    if plant == "b_high-b":
        wide = [j for j in degrees if parts[j][1] != a_high[j]]
        if not wide:
            # the top perversity cuts at link degree 1, and unit kernels
            # leave b_high = high
            perversity = Perversity.top(inp.n)
            parts = split(perversity)
            a_high, a = [ONE] * (inp.n - 1), [ONE] * (inp.n - 1)
            wide = [j for j in degrees if not parts[j][1].is_one]
        degrees = wide or degrees
    i = draw(st.sampled_from(degrees))
    low, high = parts[i]
    if plant == "a_high-a":
        a_high[i] = a_high[i] * FOREIGN
    elif plant == "a_high-high":
        a_high[i], a[i] = a_high[i] * FOREIGN, a[i] * FOREIGN
    elif plant == "a-nu":
        a[i] = a[i] * FOREIGN
    elif plant == "b_high-b":
        # a prime of b_high moved into a once more than b_low can take
        primes = factor(exact_quotient(high, a_high[i]))
        if not primes:
            plant = None
        else:
            q = primes[draw(st.integers(0, len(primes) - 1))][0]
            b_low = exact_quotient(low, exact_quotient(a[i], a_high[i]))
            a[i] = a[i] * q ** (multiplicity(q, b_low) + 1)
    if plant is None and draw(st.booleans()):
        a = None
    out = ProductSingularityInput(inp.n, inp.k, perversity,
                                  inp.sigma_homology, inp.link_modules,
                                  inp.c, a_high, a)
    if plant == "free":
        # the constructor refuses free link modules, so plant past it
        sigma0 = inp.sigma_homology[0]
        object.__setattr__(out, "sigma_homology", (
            FgGammaModule(sigma0.free_rank + 1, sigma0.torsion),
            *inp.sigma_homology[1:]))
        object.__setattr__(out, "link_modules",
                           (FgGammaModule.free(1), *inp.link_modules[1:]))
    return plant, out


@given(planted_product_inputs())
@settings(max_examples=120, deadline=None)
def test_product_matches_two_pass_route(planted):
    """One Kunneth pass and three quotients give the two-pass route's
    polynomials and report rows, or its exception and message."""
    plant, inp = planted
    try:
        expected = two_pass_ia_product(inp)
    except (DivisibilityViolation, NotTorsion) as exc:
        assert plant is not None and PLANTS[plant] in str(exc)
        with pytest.raises(type(exc)) as info:
            ia_product(inp)
        assert str(info.value) == str(exc)
    else:
        assert plant is None
        assert ia_product(inp) == expected


# -- superduality and normalization ------------------------------------------------


def test_superdual_polynomials_frozen():
    out = superdual_polynomials(["t - 1", "t^2 - t + 1"], 4)
    assert [str(q) for q in out] == ["1", "1", "t^2 - t + 1", "t - 1"]


def test_superdual_polynomials_refuse_nonunits_without_a_dual_degree():
    """Degrees at or above n have no dual degree: units there drop out,
    a nonunit there is an error rather than a silent loss."""
    out = superdual_polynomials(["t - 1", "t + 1", "1", "-3*t^2"], 2)
    assert [str(q) for q in out] == ["t + 1", "t - 1"]
    with pytest.raises(ValueError, match=r"degree 2 holds t\^2 \+ 1,"):
        superdual_polynomials(["t - 1", "t + 1", "t^2 + 1", "t - 2"], 2)


@given(st.lists(st.sampled_from(POOL + [ONE]), min_size=1, max_size=5),
       st.integers(5, 8))
@settings(max_examples=50, deadline=None)
def test_superdual_double_application(polys, n):
    if len(polys) > n:
        polys = polys[:n]
    twice = superdual_polynomials(superdual_polynomials(polys, n), n)
    for i, q in enumerate(polys):
        assert similar(twice[i], q)


def test_validate_normalization_frozen():
    report = validate_normalization(["t - 1", "t^2 - t + 1", "1", "1"], 3)
    assert all(row["ok"] for row in report)

    report = validate_normalization(["t - 1", "3*t - 1"], 4)
    assert report[0]["ok"] and not report[1]["ok"]

    # degree n - 1 is the first that must be a unit, though t - 2 is of
    # Alexander type
    report = validate_normalization(["t - 1", "t^2 - t + 1", "t - 2"], 3)
    assert report[2] == {"degree": 2, "requirement": "similar to 1",
                         "value": "t - 2", "ok": False}


def test_disk_knots_start_in_dimension_three():
    assert DiskKnotData(3, ["1"], ["t - 1"], ["1"]).n == 3
    with pytest.raises(ValueError, match="at least 3"):
        DiskKnotData(2, ["1"], ["t - 1"], ["1"])


@given(disk_knot_data(), traditional_perversities())
@settings(max_examples=40, deadline=None)
def test_superdual_of_passing_sequence_passes_super(data, p):
    if p.max_codim < data.n:
        return
    ia = ia_point(data, p)
    assert all(row["ok"] for row in validate_normalization(ia, data.n))
    dual = superdual_polynomials(ia, data.n)
    assert all(row["ok"] for row in
               validate_normalization(dual, data.n, super_variant=True))