"""Polynomial exact-sequence calculus and primary splitting of module sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cokernel,
    diagonal_matrix,
    gamma_matrices,
    prime_products,
    small_primes_st,
)
from ialex.exactseq import (
    MissingSplitting,
    ModuleSequence,
    NonDividingSplitting,
    NotExactCompatible,
    check_alternating_product,
    solve_missing_third,
    split_primary,
    subpolynomials,
)
from ialex.gmodule import (
    FgGammaModule,
    GammaMatrix,
    NotPrime,
    order_polynomial,
)
from ialex.laurent import LaurentPoly, normalize, parse
from oracles import kernel_basis, leading_columns, stack

A = normalize("t - 1")
B = normalize("t + 1")
C = normalize("t^2 - t + 1")
A2 = normalize("t - 2")

# -- alternating product ---------------------------------------------------------


def test_alternating_product_frozen():
    assert check_alternating_product([A, A])
    assert check_alternating_product([A, A * B, B])
    assert not check_alternating_product([A, B])
    with pytest.raises(ValueError):
        check_alternating_product([])


# -- subpolynomial extraction ------------------------------------------------------


def test_subpolynomials_frozen():
    assert subpolynomials([A, A * B, B]) == (LaurentPoly.one(), A, B, LaurentPoly.one())
    with pytest.raises(NotExactCompatible):
        subpolynomials([A, B])


def test_subpolynomials_five_term():
    # built from the delta chain [1, a, b, c, a', b'=1]
    polys = [A, A * B, B * C, C * A2, A2]
    assert subpolynomials(polys) == (
        LaurentPoly.one(), A, B, C, A2, LaurentPoly.one())


def test_subpolynomials_nonclosing():
    # divisions all succeed but the final delta is t - 1, not a unit
    with pytest.raises(NotExactCompatible):
        subpolynomials([A, A * A])


def _chain_to_polys(deltas):
    return [deltas[i] * deltas[i + 1] for i in range(len(deltas) - 1)]


@given(st.lists(prime_products(max_factors=2), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_extraction_recovers_deltas(interior):
    deltas = [LaurentPoly.one()] + interior + [LaurentPoly.one()]
    polys = _chain_to_polys(deltas)
    assert subpolynomials(polys) == tuple(deltas)
    assert check_alternating_product(polys)


@given(st.lists(prime_products(max_factors=2), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=10),
       small_primes_st())
@settings(max_examples=50, deadline=None)
def test_perturbed_sequence_detected(interior, pos, extra):
    deltas = [LaurentPoly.one()] + interior + [LaurentPoly.one()]
    polys = _chain_to_polys(deltas)
    polys[pos % len(polys)] = polys[pos % len(polys)] * extra
    # one extra prime factor unbalances the alternating product, and the
    # delta extraction can never close
    assert not check_alternating_product(polys)
    with pytest.raises(NotExactCompatible):
        subpolynomials(polys)


# -- missing third ---------------------------------------------------------------


def test_solve_missing_third_point_pattern():
    # two Mayer-Vietoris blocks nu, lambda, mu with the mu entries unknown;
    # junction deltas are the a_i at the block boundaries
    nu1, lam1 = LaurentPoly.one() * B, B * C          # a_1 = 1, b_1 = t+1
    mu1 = C * A2                                       # c_1 = t^2-t+1, a_0 = t-2
    nu0, lam0 = A2 * A, A                              # b_0 = t-1, c_0 = 1
    mu0 = LaurentPoly.one()
    polys, splittings = solve_missing_third(
        [nu1, lam1, None, nu0, lam0, None],
        {0: LaurentPoly.one(), 3: A2, 6: LaurentPoly.one()})
    assert polys == (nu1, lam1, mu1, nu0, lam0, mu0)
    assert splittings == (
        LaurentPoly.one(), B, C, A2, A, LaurentPoly.one(), LaurentPoly.one())


def test_solve_missing_third_all_ones():
    polys, _ = solve_missing_third([LaurentPoly.one(), LaurentPoly.one(), None])
    assert polys == (LaurentPoly.one(),) * 3


def test_solve_missing_third_window():
    # [nu, lambda, ?] with a non-unit junction on the left boundary
    nu, lam = A * B, B * C
    polys, splittings = solve_missing_third([nu, lam, None], {0: A})
    assert polys == (nu, lam, C)
    assert splittings is None  # window: not a zero-bounded sequence


@st.composite
def zero_bounded_fills(draw):
    """Entries d_i * d_(i+1) of planted deltas with d_0 = d_n = 1, unknown
    entries at some positions congruent to r mod 3, and the junction delta
    given at every index congruent to r, which fixes every other delta."""
    n = draw(st.integers(1, 8))
    deltas = [LaurentPoly.one(),
              *(draw(prime_products()) for _ in range(n - 1)),
              LaurentPoly.one()]
    r = draw(st.integers(0, 2))
    entries = [None if i % 3 == r and draw(st.booleans())
               else deltas[i] * deltas[i + 1] for i in range(n)]
    junctions = {i: deltas[i] for i in range(1, n)
                 if i % 3 == r or draw(st.booleans())}
    return entries, junctions, deltas


@given(zero_bounded_fills())
@settings(max_examples=80, deadline=None)
def test_zero_bounded_fill_returns_every_delta(case):
    entries, junctions, deltas = case
    polys, splittings = solve_missing_third(entries, junctions)
    assert splittings == tuple(deltas)
    assert polys == tuple(a * b for a, b in zip(deltas, deltas[1:]))


def test_solve_missing_third_errors():
    with pytest.raises(ValueError):
        solve_missing_third([A, None, None, A])  # unknowns at 1 and 2 mod 3
    with pytest.raises(MissingSplitting):
        solve_missing_third([A * B, B * C, None, A2 * A, A, None, A * B, B],
                            {0: A})  # no junction at position 3 or 6
    with pytest.raises(NonDividingSplitting):
        solve_missing_third([parse("t^2 - 1"), None, A], {0: C})
    with pytest.raises(NonDividingSplitting):
        # junction conflicts with the knowns: (t-1)(t+1) != (t-1)*(t-1)
        solve_missing_third([parse("t^2 - 1"), None], {0: A, 1: A})


@pytest.mark.parametrize("key", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_junction_index_must_be_an_integer(key):
    """True is not read as index 1, nor 1.0 as a list index."""
    with pytest.raises(TypeError, match="^a junction index must be an integer"):
        solve_missing_third([A * B, B * C, None], {key: B})


@given(st.lists(st.tuples(prime_products(max_factors=1),
                          prime_products(max_factors=1),
                          prime_products(max_factors=1)),
                min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_missing_third_round_trip(blocks):
    # delta chain [1, b_m, c_m, a_{m-1}, b_{m-1}, ..., c_0, 1] built from
    # random block deltas (a, b, c); the leading a and trailing junction are 1
    deltas = [LaurentPoly.one()]
    for idx, (a, b, c) in enumerate(blocks):
        if idx:
            deltas.append(a)
        deltas.append(b)
        deltas.append(c)
    deltas.append(LaurentPoly.one())
    polys = _chain_to_polys(deltas)
    blanked = [None if i % 3 == 2 else p for i, p in enumerate(polys)]
    junctions = {i: deltas[i] for i in range(0, len(deltas), 3)}
    assert solve_missing_third(blanked, junctions) == (tuple(polys), tuple(deltas))


# -- module sequences and primary splitting -------------------------------------------


def _divisor_sequence(m: LaurentPoly, d: LaurentPoly) -> ModuleSequence:
    """0 -> G/(d) -> G/(m) -> G/(m/d) -> 0 with the multiplication maps."""
    from ialex.laurent import exact_quotient

    q = exact_quotient(m, d)
    mods = [FgGammaModule.cyclic(d), FgGammaModule.cyclic(m), FgGammaModule.cyclic(q)]
    maps = []
    pairs = [(mods[0], mods[1], q), (mods[1], mods[2], LaurentPoly.one())]
    for src, dst, mult in pairs:
        if src.rank and dst.rank:
            maps.append(GammaMatrix([[mult]]))
        else:
            maps.append(GammaMatrix([[] for _ in range(src.rank)], cols=dst.rank))
    return ModuleSequence(mods, maps)


def test_split_primary_frozen():
    seq = _divisor_sequence(A * B, A)
    at_a = split_primary(seq, A)
    assert [m.to_json()["torsion"] for m in at_a.modules] == [["t - 1"], ["t - 1"], []]
    at_c = split_primary(seq, C)
    assert all(m.is_zero for m in at_c.modules)
    with pytest.raises(NotPrime):
        split_primary(seq, parse("t^2 - 1"))


def test_module_sequence_validation():
    good = _divisor_sequence(A * B, A)
    assert check_alternating_product(good.order_polynomials())
    with pytest.raises(ValueError):
        ModuleSequence([FgGammaModule.cyclic(A)], [GammaMatrix([["1"]])])
    with pytest.raises(ValueError):
        # projection G/(t-1) -> G/(t+1) by 1 is not well defined
        ModuleSequence([FgGammaModule.cyclic(A), FgGammaModule.cyclic(B)],
                       [GammaMatrix([["1"]])])
    with pytest.raises(ValueError):
        # identity then identity does not compose to zero on G/((t-1)^2)
        big = FgGammaModule.cyclic(A * A)
        ModuleSequence([big, big, big],
                       [GammaMatrix([["1"]]), GammaMatrix([["1"]])])


@given(prime_products(max_factors=3), st.integers(min_value=0, max_value=63))
@settings(max_examples=50, deadline=None)
def test_split_reassembly(m, seed):
    from ialex.laurent import factor

    parts = factor(m)
    d = LaurentPoly.one()
    for idx, (p, e) in enumerate(parts):
        d = d * p ** ((seed >> idx) % (e + 1))
    seq = _divisor_sequence(m, d)

    rebuilt = [FgGammaModule.zero() for _ in seq.modules]
    for p, _ in parts:
        piece = split_primary(seq, p)
        assert check_alternating_product(piece.order_polynomials())
        for i, comp in enumerate(piece.modules):
            rebuilt[i] = rebuilt[i].direct_sum(comp)
    assert rebuilt == list(seq.modules)

    # per-prime order products recover the original orders
    for i, mod in enumerate(seq.modules):
        total = LaurentPoly.one()
        for p, _ in parts:
            total = total * order_polynomial(split_primary(seq, p).modules[i])
        assert total == order_polynomial(mod)


@given(gamma_matrices(max_rows=2, max_cols=3, max_span=1, max_coeff=2),
       st.lists(prime_products(max_factors=2), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None)
def test_short_exact_order_multiplicativity(gens, diag):
    """order(M) ~ order(N) * order(M/N) for a random submodule N of M."""
    zero = LaurentPoly.zero()
    gens = GammaMatrix(
        [tuple(row[:3]) + (zero,) * max(3 - gens.cols, 0) for row in gens.entries],
        cols=3)
    presentation = diagonal_matrix(diag)
    ambient = cokernel(presentation)

    ker = kernel_basis(stack(gens, presentation))
    sub_rel = leading_columns(ker, gens.rows)
    sub = cokernel(sub_rel)
    quotient = cokernel(stack(presentation, gens))

    assert order_polynomial(sub) * order_polynomial(quotient) == \
        order_polynomial(ambient)
