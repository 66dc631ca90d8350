"""Smith reduction, canonical modules and the tensor/Tor calculus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    diagonal_matrix,
    fg_modules,
    gamma_matrices,
    nonzero_polys,
    prime_products,
    seeded_eisenstein,
    small_primes_st,
    torsion_modules,
)
from ialex.gmodule import (
    FgGammaModule,
    GammaMatrix,
    NotPrime,
    NotTorsion,
    cokernel,
    kunneth_order,
    order_polynomial,
    primary_component,
    smith_normal_form,
    tensor,
    tor,
)
from ialex.laurent import (
    LaurentPoly,
    _unit_quotient,
    divides,
    involute,
    normalize,
    parse,
    similar,
)
from oracles import (
    conjugate,
    determinantal_invariant_factors,
    kernel_basis,
    kunneth,
    leading_columns,
    simplex_closure,
    snf_transforms,
    solve_left,
    support_primes,
    transpose,
)

# -- sparse storage ------------------------------------------------------------


@given(gamma_matrices(max_rows=4, max_cols=4))
def test_sparse_rows_match_the_dense_grid(m):
    """Built from its dense grid or from {column: entry} rows, zeros
    included and keys in any order, a matrix stores no zero cell and has
    one value, hash, grid and JSON form."""
    rows = [dict(enumerate(row)) for row in m.entries]
    for sparse in (GammaMatrix.from_rows(rows, m.cols),
                   GammaMatrix.from_rows([dict(reversed(r.items())) for r in rows],
                                         m.cols)):
        for matrix in (m, sparse):
            assert all(e for row in matrix._rows for e in row.values())
        assert sparse == m and hash(sparse) == hash(m)
        assert sparse.entries == m.entries and sparse.to_json() == m.to_json()
        assert (sparse.rows, sparse.cols, str(sparse)) == (m.rows, m.cols, str(m))


def test_from_rows_rejects_a_column_outside_the_matrix():
    for column in (-1, 2):
        with pytest.raises(ValueError):
            GammaMatrix.from_rows([{column: "t"}], 2)


# -- Smith normal form ---------------------------------------------------------


@given(nonzero_polys(max_span=6, max_coeff=60))
def test_unit_quotient_makes_the_representative(v):
    u = _unit_quotient(v)
    assert u.is_unit
    assert u * v == normalize(v)


def test_snf_frozen_cases():
    factors, rank = smith_normal_form(diagonal_matrix([1, 1]))
    assert [str(f) for f in factors] == ["1", "1"] and rank == 2

    factors, rank = smith_normal_form(diagonal_matrix(["t - 1", "t - 1"]))
    assert [str(f) for f in factors] == ["t - 1", "t - 1"] and rank == 2

    factors, rank = smith_normal_form(GammaMatrix([["t - 1", "1"], ["0", "t + 1"]]))
    assert [str(f) for f in factors] == ["1", "t^2 - 1"] and rank == 2

    # a diagonal that is not a chain
    m = diagonal_matrix(["t^2 - 1", "t - 1", "3*t + 3", "t^2 + 1"])
    factors, rank = smith_normal_form(m)
    assert [str(f) for f in factors] == ["1", "1", "t^2 - 1", "t^4 - 1"] and rank == 4

    factors, rank = smith_normal_form(GammaMatrix([], cols=4))
    assert factors == () and rank == 0

    factors, rank = smith_normal_form(GammaMatrix.from_rows([{}, {}], 3))
    assert factors == () and rank == 0


@given(gamma_matrices(max_rows=3, max_cols=3, max_span=1, max_coeff=2))
@settings(max_examples=60, deadline=None)
def test_snf_matches_determinantal_oracle(m):
    factors, rank = smith_normal_form(m)
    oracle = determinantal_invariant_factors([list(row) for row in m.entries])
    assert list(factors) == oracle
    assert rank == len(oracle)


def boundary_pattern(simplices, p):
    """Signs of the degree-p simplicial boundary; rows are p-simplices."""
    closure = simplex_closure(simplices)
    bottom = [s for s in closure if len(s) == p]
    index = {s: i for i, s in enumerate(bottom)}
    grid = []
    for s in (s for s in closure if len(s) == p + 1):
        row = [0] * len(bottom)
        for j in range(p + 1):
            row[index[s[:j] + s[j + 1:]]] = (-1) ** j
        grid.append(row)
    return grid


TETRAHEDRON = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
PATTERNS = [
    boundary_pattern([[0, 1], [1, 2], [0, 2]], 1),
    boundary_pattern([[0, 1], [1, 2], [2, 3], [0, 3]], 1),
    boundary_pattern([[0, 1, 2], [1, 2, 3]], 2),
    boundary_pattern(TETRAHEDRON, 1),
    boundary_pattern(TETRAHEDRON, 2),
]
_UNIT = st.builds(lambda sign, q, k: LaurentPoly({k: sign * q}),
                  st.sampled_from([1, -1]),
                  st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3)]),
                  st.integers(-2, 2))
_NONUNIT = st.sampled_from(["t - 1", "t + 1", "2*t - 1", "t^2 + 1"]).map(parse)


@st.composite
def unit_heavy_matrices(draw):
    """A small simplicial boundary matrix with every sign scaled by a random
    unit q*t^k; in "mixed" mode some entries, in "none" mode all of them,
    are also multiplied by a nonunit."""
    pattern = draw(st.sampled_from(PATTERNS))
    mode = draw(st.sampled_from(["all", "mixed", "none"]))
    grid = []
    for signs in pattern:
        row = []
        for sign in signs:
            entry = LaurentPoly.zero()
            if sign:
                entry = draw(_UNIT).scale(sign)
                if mode == "none" or (mode == "mixed" and draw(st.booleans())):
                    entry = entry * draw(_NONUNIT)
            row.append(entry)
        grid.append(row)
    m = GammaMatrix(grid)
    return transpose(m) if draw(st.booleans()) else m


@given(unit_heavy_matrices())
@settings(max_examples=60, deadline=None)
def test_snf_matches_determinantal_oracle_on_unit_entries(m):
    factors, rank = smith_normal_form(m)
    oracle = determinantal_invariant_factors([list(row) for row in m.entries])
    assert list(factors) == oracle
    assert rank == len(oracle)


@pytest.mark.parametrize("grid,expected", [
    pytest.param(boundary_pattern(TETRAHEDRON, 1), ["1", "1", "1"], id="all-units"),
    # every entry a unit, but a circle twisted by t leaves a nonunit
    pytest.param([["-1", "1", "0"], ["-1", "0", "t"], ["0", "-1", "1"]],
                 ["1", "1", "t - 1"], id="units-leaving-a-nonunit"),
    pytest.param([["t - 1", "0"], ["t^2 - 1", "t^2 - 1"]], ["t - 1", "t^2 - 1"],
                 id="no-units"),
    # the pivot t - 1 leaves the remainder 2 in its own row
    pytest.param([["t - 1", "t + 1"]], ["1"], id="remainder-in-pivot-row"),
    # and in its own column
    pytest.param([["t - 1"], ["t + 1"]], ["1"], id="remainder-in-pivot-column"),
    # no unit anywhere: Euclid leaves remainders of span 2, 1 and 0 before
    # the first pivot splits off
    pytest.param([["-t^3 - t^2 + t - 1", "-t^3 - 2*t - 1"],
                  ["2*t^3 - 2*t^2 - 1", "-t^3 - 2*t^2 + 2*t - 2"]],
                 ["1", "3*t^6 + t^5 + 3*t^4 - 4*t^3 + 4*t^2 - 6*t + 1"],
                 id="several-euclidean-rounds"),
])
def test_snf_elimination_cases(grid, expected):
    m = GammaMatrix(grid)
    factors, rank = smith_normal_form(m)
    assert [str(f) for f in factors] == expected and rank == len(expected)
    assert list(factors) == determinantal_invariant_factors(
        [list(row) for row in m.entries])


# pairwise non-associate irreducibles: small ones, and Eisenstein polynomials
# at 2 of higher degree
_RNG = random.Random(20031)
HIGHDEG_PRIMES = [normalize(p) for p in ("t - 1", "t + 1", "2*t - 1", "t^2 + 1",
                                         "t^2 - t + 1", "t^2 - t - 1")]
HIGHDEG_PRIMES += [seeded_eisenstein(_RNG, d, lead)
                   for d, lead in ((5, 1), (9, 3), (16, 1))]
_LINEAR = st.lists(st.integers(-2, 2), min_size=1, max_size=2).map(
    lambda cs: LaurentPoly(enumerate(cs)))
_GAMMA_UNIT = st.builds(lambda c, k: LaurentPoly({k: c}),
                        st.sampled_from([1, -1, 2, Fraction(-1, 3)]),
                        st.integers(-2, 2))


def _prime_product(exponents) -> LaurentPoly:
    out = LaurentPoly.one()
    for p, e in zip(HIGHDEG_PRIMES, exponents):
        out = out * p**e
    return out


@st.composite
def planted_highdeg(draw):
    """A diagonal of products of HIGHDEG_PRIMES, of total degree at most 64
    and in any slot order, so mostly not a divisibility chain; then n
    elementary row or column operations over Z[t] and a unit scaling of
    every row, unless the diagonal is kept as it is.  Returns the matrix
    and its invariant factors, which sorting every prime's exponents over
    the slots gives."""
    n = draw(st.integers(2, 4))
    exponents, room = [], 64
    for _ in range(n):
        row = []
        for p in HIGHDEG_PRIMES:
            e = draw(st.integers(0, min(3, room // p.degree)))
            row.append(e)
            room -= e * p.degree
        exponents.append(row)
    exponents = draw(st.permutations(exponents))
    grid = [[_prime_product(es) if i == j else LaurentPoly.zero()
             for j in range(n)] for i, es in enumerate(exponents)]
    if draw(st.booleans()):
        for _ in range(n):
            src, dst = draw(st.permutations(range(n)))[:2]
            f = draw(_LINEAR)
            if draw(st.booleans()):      # row dst += f * row src
                grid[dst] = [a + f * b for a, b in zip(grid[dst], grid[src])]
            else:                        # column dst += f * column src
                for row in grid:
                    row[dst] = row[dst] + f * row[src]
        for i in range(n):
            u = draw(_GAMMA_UNIT)
            grid[i] = [u * a for a in grid[i]]
    chain = zip(*(sorted(es[k] for es in exponents)
                  for k in range(len(HIGHDEG_PRIMES))))
    return GammaMatrix(grid), tuple(_prime_product(es) for es in chain)


@given(planted_highdeg())
@settings(max_examples=100, deadline=None)
def test_snf_recovers_planted_highdeg_chain(case):
    m, expected = case
    assert smith_normal_form(m) == (expected, len(expected))


@given(gamma_matrices(max_rows=3, max_cols=3))
@settings(max_examples=50, deadline=None)
def test_snf_factors_form_chain(m):
    factors, _ = smith_normal_form(m)
    for a, b in zip(factors, factors[1:]):
        assert divides(a, b)


@given(gamma_matrices(max_rows=3, max_cols=3))
@settings(max_examples=50, deadline=None)
def test_snf_transforms_reconstruct(m):
    u, s, v = snf_transforms(m)
    assert u * m * v == s
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.entry(i, j).is_zero
    # the transforms are invertible: their Smith forms are all units
    for q in (u, v):
        qf, qrank = smith_normal_form(q)
        assert qrank == q.rows and all(f.is_one for f in qf)


@given(gamma_matrices(max_rows=3, max_cols=3))
@settings(max_examples=50, deadline=None)
def test_kernel_basis_annihilates_and_is_complete(m):
    k = kernel_basis(m)
    assert k.cols == m.rows
    if k.rows:
        assert not any(e for row in (k * m).entries for e in row)
    _, rank = smith_normal_form(m)
    assert k.rows == m.rows - rank


@given(gamma_matrices(max_rows=3, max_cols=3),
       gamma_matrices(max_rows=2, max_cols=3))
@settings(max_examples=40, deadline=None)
def test_solve_left_round_trip(m, x):
    if x.cols != m.rows:
        x = GammaMatrix([row[: m.rows] + (LaurentPoly.zero(),) * (m.rows - len(row))
                         for row in x.entries] if x.rows else [], cols=m.rows)
    b = x * m
    solved = solve_left(m, b)
    assert solved * m == b


def test_solve_left_unsolvable():
    m = GammaMatrix([["t - 1"]])
    with pytest.raises(ValueError):
        solve_left(m, GammaMatrix([["1"]]))


# -- cokernel and canonical form -------------------------------------------------


def test_cokernel_frozen_cases():
    assert cokernel(GammaMatrix([["t - 1"]])) == FgGammaModule(0, ["t - 1"])
    assert cokernel(GammaMatrix([], cols=3)) == FgGammaModule.free(3)
    assert cokernel(GammaMatrix([["t - 1", "1"], ["0", "t + 1"]])) == \
        FgGammaModule(0, ["t^2 - 1"])


def test_module_validation():
    with pytest.raises(ValueError):
        FgGammaModule(0, ["t + 1", "t - 1"])  # no divisibility
    with pytest.raises(ValueError):
        FgGammaModule(0, ["5"])  # unit coefficient
    with pytest.raises(ValueError):
        FgGammaModule(-1)
    assert FgGammaModule.cyclic("7").is_zero


def test_module_json_round_trip():
    m = FgGammaModule(2, ["t - 1", "t^2 - 1"])
    assert FgGammaModule.from_json(m.to_json()) == m
    assert m.to_json() == {"free": 2, "torsion": ["t - 1", "t^2 - 1"]}


@given(st.lists(prime_products(), min_size=0, max_size=4))
@settings(max_examples=50, deadline=None)
def test_from_summands_is_canonical(orders):
    m = FgGammaModule.from_summands(0, orders)
    total = LaurentPoly.one()
    for c in orders:
        total = total * c
    assert order_polynomial(m) == total


@st.composite
def order_lists(draw):
    """Orders with units, repeats and coprime pairs, as reps or text."""
    pool = draw(st.lists(prime_products(), min_size=1, max_size=3))
    units = ["1", "-3/2", "t^2"]
    orders = draw(st.lists(st.sampled_from(pool) | st.sampled_from(units),
                           min_size=0, max_size=6))
    return [str(c) if draw(st.booleans()) else c for c in orders]


@given(order_lists(), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_from_summands_matches_diagonal_cokernel(orders, free):
    diagonal = diagonal_matrix(orders)
    expected = cokernel(diagonal) if orders else FgGammaModule.zero()
    m = FgGammaModule.from_summands(free, orders)
    assert m == FgGammaModule(free + expected.free_rank, expected.torsion)


def test_from_summands_units_repeats_coprime():
    assert FgGammaModule.from_summands(0, ["1", "-3/2*t", "t^2"]).is_zero
    assert FgGammaModule.from_summands(0, ["t - 1", "t + 1"]) == \
        FgGammaModule.cyclic("t^2 - 1")
    assert FgGammaModule.from_summands(2, ["t - 1", "t - 1", "1"]) == \
        FgGammaModule(2, ["t - 1", "t - 1"])


# -- order polynomial -------------------------------------------------------------


def test_order_polynomial_frozen():
    assert str(order_polynomial(FgGammaModule.cyclic("t - 1"))) == "t - 1"
    assert order_polynomial(FgGammaModule.zero()).is_one
    two = FgGammaModule.from_summands(0, ["t - 1", "t^2 - t + 1"])
    assert order_polynomial(two) == normalize(parse("t - 1") * parse("t^2 - t + 1"))
    with pytest.raises(NotTorsion):
        order_polynomial(FgGammaModule.free(1))


@given(torsion_modules(), torsion_modules())
@settings(max_examples=50, deadline=None)
def test_order_multiplicative_over_sums(a, b):
    assert order_polynomial(a.direct_sum(b)) == order_polynomial(a) * order_polynomial(b)


# -- primary decomposition ----------------------------------------------------------


def test_primary_component_frozen():
    amb = FgGammaModule.cyclic(parse("t - 1") ** 2 * parse("t + 1"))
    assert primary_component(amb, "t - 1") == FgGammaModule.cyclic(parse("t - 1") ** 2)
    assert primary_component(amb, "t^2 - t + 1").is_zero

    two = FgGammaModule.from_summands(0, ["t - 1", str(parse("t - 1") * parse("t + 1"))])
    assert primary_component(two, "t - 1") == \
        FgGammaModule.from_summands(0, ["t - 1", "t - 1"])


def test_primary_component_errors():
    with pytest.raises(NotTorsion):
        primary_component(FgGammaModule.free(1), "t - 1")
    with pytest.raises(NotPrime):
        primary_component(FgGammaModule.cyclic("t - 1"), "t^2 - 1")
    with pytest.raises(NotPrime):
        primary_component(FgGammaModule.cyclic("t - 1"), "3")


@given(torsion_modules())
@settings(max_examples=50, deadline=None)
def test_primary_reassembly(m):
    rebuilt = FgGammaModule.zero()
    for p in support_primes(m):
        rebuilt = rebuilt.direct_sum(primary_component(m, p))
    assert rebuilt == m


# -- conjugation ------------------------------------------------------------------


def test_conjugate_frozen():
    assert conjugate(FgGammaModule.cyclic("t - 1")) == FgGammaModule.cyclic("t - 1")
    assert conjugate(FgGammaModule.cyclic("2*t - 1")) == FgGammaModule.cyclic("t - 2")
    assert conjugate(FgGammaModule.free(3)) == FgGammaModule.free(3)


@given(fg_modules())
@settings(max_examples=50, deadline=None)
def test_conjugate_involution(m):
    assert conjugate(conjugate(m)) == m
    assert conjugate(m).free_rank == m.free_rank


@given(torsion_modules())
@settings(max_examples=50, deadline=None)
def test_conjugate_order(m):
    assert similar(order_polynomial(conjugate(m)),
                   involute(order_polynomial(m)))


# -- tensor, Tor, Kunneth ------------------------------------------------------------


def test_tensor_frozen():
    assert tensor(FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t + 1")).is_zero
    assert tensor(FgGammaModule.free(1), FgGammaModule.cyclic("t - 1")) == \
        FgGammaModule.cyclic("t - 1")
    big_a = FgGammaModule.cyclic(parse("t - 1") * parse("t + 1"))
    big_b = FgGammaModule.cyclic(parse("t - 1") * parse("t^2 - t + 1"))
    assert tensor(big_a, big_b) == FgGammaModule.cyclic("t - 1")


def test_tor_frozen():
    assert tor(FgGammaModule.free(1), FgGammaModule.cyclic("t - 1")).is_zero
    assert tor(FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t - 1")) == \
        FgGammaModule.cyclic("t - 1")
    assert tor(FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t + 1")).is_zero


@given(fg_modules(), fg_modules())
@settings(max_examples=40, deadline=None)
def test_tensor_tor_symmetric(a, b):
    assert tensor(a, b) == tensor(b, a)
    assert tor(a, b) == tor(b, a)


@given(fg_modules(max_free=1, max_summands=2),
       fg_modules(max_free=1, max_summands=2),
       fg_modules(max_free=1, max_summands=2))
@settings(max_examples=30, deadline=None)
def test_tensor_tor_additive(a, b, c):
    assert tensor(a.direct_sum(b), c) == tensor(a, c).direct_sum(tensor(b, c))
    assert tor(a.direct_sum(b), c) == tor(a, c).direct_sum(tor(b, c))


def test_kunneth_frozen():
    point = [FgGammaModule.cyclic("t - 1")]
    assert kunneth_order(point, point, 0) == normalize("t - 1")
    assert kunneth_order(point, point, 1) == normalize("t - 1")
    assert kunneth_order(point, point, 2).is_one

    sphere = [FgGammaModule.free(1), FgGammaModule.zero(), FgGammaModule.free(1)]
    assert kunneth_order(sphere, point, 2) == normalize("t - 1")

    assert kunneth_order([FgGammaModule.cyclic("t + 1")], point, 0).is_one
    assert kunneth_order([FgGammaModule.cyclic("t + 1")], point, 1).is_one

    # the window drops every term with right-hand degree below s_min
    two = [FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t^2 - 1")]
    assert kunneth_order(two, two, 1) == normalize("t^3 - 3*t^2 + 3*t - 1")
    assert kunneth_order(two, two, 1, 1) == normalize("t - 1")
    assert kunneth_order(two, two, 1, 2).is_one

    # free (x) free has no order, but outside the window it does not count
    circle = [FgGammaModule.free(1), FgGammaModule.free(1)]
    with pytest.raises(NotTorsion):
        kunneth_order(circle, circle, 2)
    assert kunneth_order(circle, [FgGammaModule.free(1)], 1, 1).is_one
    with pytest.raises(NotTorsion):
        kunneth_order(circle, [FgGammaModule.zero(), FgGammaModule.free(1)], 1, 1)


@given(st.lists(fg_modules(max_free=1, max_summands=2), min_size=1, max_size=3),
       st.lists(fg_modules(max_free=1, max_summands=2), min_size=1, max_size=3),
       st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_kunneth_order_matches_module_valued_kunneth(left, right, i, s_min):
    for window in (0, s_min):
        try:
            expected = order_polynomial(kunneth(left, right, i, window))
        except NotTorsion:
            with pytest.raises(NotTorsion):
                kunneth_order(left, right, i, window)
        else:
            assert kunneth_order(left, right, i, window) == expected


# -- subquotient support --------------------------------------------------------------


def _submodule_relations(gens: GammaMatrix, diag: list) -> GammaMatrix:
    """Relations on the rows of gens as elements of cokernel(diag).

    A combination x of the generators dies in the quotient exactly when
    x*gens lies in the span of the diagonal relations, so the relation
    lattice is the projection of the kernel of the stacked matrix; the
    projection of a kernel basis is again a basis because the nonsingular
    diagonal determines the second block uniquely.
    """
    p = diagonal_matrix(diag)
    ker = kernel_basis(gens.stack(p))
    return leading_columns(ker, gens.rows)


@given(gamma_matrices(max_rows=2, max_cols=3, max_span=1, max_coeff=2),
       st.lists(prime_products(max_factors=2), min_size=3, max_size=3),
       gamma_matrices(max_rows=2, max_cols=2, max_span=1, max_coeff=2))
@settings(max_examples=30, deadline=None)
def test_subquotient_order_divides_ambient(gens, diag, extra):
    from ialex.laurent import factor

    ambient_order = LaurentPoly.one()
    for c in diag:
        ambient_order = ambient_order * c

    # generators must be vectors in the rank-3 ambient module
    zero_pad = LaurentPoly.zero()
    gens = GammaMatrix(
        [tuple(row[:3]) + (zero_pad,) * max(3 - gens.cols, 0) for row in gens.entries],
        cols=3)
    rel = _submodule_relations(gens, diag)
    sub = cokernel(rel)
    assert sub.is_torsion

    # quotient the submodule by extra random relations on the same generators
    zero = LaurentPoly.zero()
    extra_rows = [tuple(row[: gens.rows]) + (zero,) * max(gens.rows - extra.cols, 0)
                  for row in extra.entries]
    quotient = cokernel(rel.stack(GammaMatrix(extra_rows, cols=gens.rows)))

    for sq in (sub, quotient):
        for prime, _ in factor(order_polynomial(sq)):
            assert divides(prime, ambient_order)
