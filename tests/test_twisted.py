"""Twisted simplicial homology and the neighborhood second pages."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ialex import twisted
from ialex.bounds import E2Table
from ialex.engine import Perversity
from ialex.gmodule import FgGammaModule, order_polynomial
from ialex.laurent import LaurentPoly, divides, normalize, parse
from ialex.twisted import (
    CocycleViolation,
    EmptyComplex,
    NotTorsionEntry,
    TwistedComplex,
    abutment_divisor_bound,
    e2_cone_page,
    e2_link_page,
    twisted_homology,
)

from oracles import (
    kernel_solve_homology,
    snf_free_homology,
    stalk_boundary_matrix,
    untwisted_betti,
)

CIRCLE = [[0, 1], [1, 2], [0, 2]]
SPHERE = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
RP2 = [[0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 3, 5], [0, 4, 5],
       [1, 2, 5], [1, 3, 4], [1, 4, 5], [2, 3, 4], [2, 3, 5]]


def torus():
    def v(i, j):
        return (i % 3) * 3 + (j % 3)

    tris = []
    for i in range(3):
        for j in range(3):
            tris.append([v(i, j), v(i + 1, j), v(i, j + 1)])
            tris.append([v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)])
    return tris


TORUS = torus()
CORPUS = [CIRCLE, SPHERE, TORUS, RP2]


def ngon(n, loop_unit="t"):
    """A circle with n vertices and the loop unit on one edge."""
    edges = [[i, i + 1] for i in range(n - 1)] + [[0, n - 1]]
    return TwistedComplex(edges, {f"0-{n - 1}": loop_unit})


# -- construction and validation ---------------------------------------------------


def test_complex_closure_and_orders():
    tc = TwistedComplex(SPHERE)
    assert len(tc.simplices) == 4 + 6 + 4
    assert tc.dimension == 2
    assert tc.simplices_of_dim(0) == ((0,), (1,), (2,), (3,))


def test_monodromy_normalization():
    tc = TwistedComplex(CIRCLE, {"1-0": "t^-1"})
    assert tc.transport(0, 1) == parse("t")
    assert tc.transport(1, 0) == parse("t^-1")
    assert tc.transport(0, 0) == LaurentPoly.one()
    # consistent double entry is accepted, conflicting one is not
    TwistedComplex(CIRCLE, {"0-1": "t", "1-0": "t^-1"})
    with pytest.raises(ValueError):
        TwistedComplex(CIRCLE, {"0-1": "t", "1-0": "t"})


def test_complex_validation_errors():
    with pytest.raises(EmptyComplex):
        TwistedComplex([])
    with pytest.raises(ValueError):
        TwistedComplex([[0, 0, 1]])
    with pytest.raises(ValueError):
        TwistedComplex(CIRCLE, {"0-1": "t + 1"})       # not a unit
    with pytest.raises(ValueError):
        TwistedComplex(CIRCLE, {"0-3": "t"})           # not an edge
    with pytest.raises(CocycleViolation):
        TwistedComplex([[0, 1, 2]], {"0-1": "t"})
    # a consistent triangle assignment passes
    TwistedComplex([[0, 1, 2]], {"0-1": "t", "1-2": "t", "0-2": "t^2"})


def test_json_round_trip():
    tc = TwistedComplex(CIRCLE, {"0-1": "2*t^3"},
                        FgGammaModule.cyclic("t^2 - t + 1"))
    again = TwistedComplex.from_json(tc.to_json())
    assert again == tc


# -- frozen circle computations ------------------------------------------------------


def test_circle_loop_t_free_stalk():
    h0, h1 = twisted_homology(ngon(3))
    assert h0 == FgGammaModule.cyclic("t - 1")
    assert h1.is_zero


def test_circle_trivial_monodromy():
    h0, h1 = twisted_homology(TwistedComplex(CIRCLE))
    assert h0 == FgGammaModule.free(1)
    assert h1 == FgGammaModule.free(1)


def test_circle_loop_t_torsion_stalk():
    tc = TwistedComplex(ngon(3).simplices, ngon(3).monodromy,
                        FgGammaModule.cyclic("t^2 - t + 1"))
    h0, h1 = twisted_homology(tc)
    assert h0.is_zero and h1.is_zero


def test_circle_loop_inside_stalk_support():
    # loop t, stalk Gamma/(t - 1): the twist acts trivially on the stalk
    tc = TwistedComplex(ngon(3).simplices, ngon(3).monodromy, FgGammaModule.cyclic("t - 1"))
    h0, h1 = twisted_homology(tc)
    assert h0 == FgGammaModule.cyclic("t - 1")
    assert h1 == FgGammaModule.cyclic("t - 1")


def test_zero_stalk_kills_everything():
    homology = twisted_homology(
        TwistedComplex(SPHERE, stalk=FgGammaModule.zero()))
    assert all(h.is_zero for h in homology)


# -- untwisted comparisons -------------------------------------------------------------


@pytest.mark.parametrize("simplices", CORPUS)
def test_trivial_monodromy_matches_betti(simplices):
    betti = untwisted_betti(simplices)
    homology = twisted_homology(TwistedComplex(simplices))
    assert [h.free_rank for h in homology] == betti
    assert all(not h.torsion for h in homology)

    doubled = twisted_homology(
        TwistedComplex(simplices, stalk=FgGammaModule.free(2)))
    assert [h.free_rank for h in doubled] == [2 * b for b in betti]


@pytest.mark.parametrize("simplices", CORPUS)
@pytest.mark.parametrize("order", ["t - 1", "t^3 - 2*t^2 + 2*t - 1"])
def test_trivial_monodromy_torsion_stalk(simplices, order):
    stalk = FgGammaModule.cyclic(order)
    homology = twisted_homology(TwistedComplex(simplices, stalk=stalk))
    for h, b in zip(homology, untwisted_betti(simplices)):
        assert h == FgGammaModule.from_summands(0, [order] * b)


_POTENTIALS = st.tuples(
    st.sampled_from([Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]),
    st.integers(-2, 2))


@given(st.lists(_POTENTIALS, min_size=6, max_size=6),
       st.sampled_from([normalize("t - 1"), normalize("t^2 + 1")]))
@settings(max_examples=10, deadline=None)
def test_coboundary_twist_is_invisible(potentials, order):
    """Edge units of the form phi(v)/phi(u) are a change of chain basis, so
    homology matches the untwisted answer for free and torsion stalks alike."""
    def gauged(simplices):
        mono = {}
        for u, v in TwistedComplex(simplices).simplices_of_dim(1):
            (cu, ku), (cv, kv) = potentials[u], potentials[v]
            mono[(u, v)] = LaurentPoly({kv - ku: cv / cu})
        return mono

    for simplices in (SPHERE, RP2):
        betti = untwisted_betti(simplices)
        free = twisted_homology(TwistedComplex(simplices, gauged(simplices)))
        assert [h.free_rank for h in free] == betti
        assert all(not h.torsion for h in free)

        tc = TwistedComplex(simplices, gauged(simplices),
                            FgGammaModule.cyclic(order))
        for h, b in zip(twisted_homology(tc), betti):
            assert h == FgGammaModule.from_summands(0, [order] * b)


# -- universal coefficients against the kernel-and-solve oracle -----------------------


_UNITS = st.builds(lambda q, k: LaurentPoly({k: q}),
                   st.sampled_from([Fraction(1), Fraction(-1), Fraction(2)]),
                   st.integers(-2, 2))


@st.composite
def random_ngons(draw):
    """An n-gon with a random unit on every edge: any assignment is a
    cocycle on a graph, and the loop product may or may not be a t-power."""
    n = draw(st.integers(3, 6))
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    units = draw(st.lists(_UNITS, min_size=n, max_size=n))
    return TwistedComplex(edges, dict(zip(edges, units)))


@st.composite
def random_tori(draw, m=3):
    """The m x m torus with holonomies x, y around its two loops, spread
    over the edges through a random gauge phi: the unit on the step a -> b
    is phi(b)/phi(a) times x (resp. y) per wrap of the first (second)
    coordinate, which composes around every triangle."""
    x, y = draw(_UNITS), draw(_UNITS)
    phi = draw(st.lists(_UNITS, min_size=m * m, max_size=m * m))

    def v(i, j):
        return (i % m) * m + (j % m)

    tris, mono = [], {}
    for i in range(m):
        for j in range(m):
            for mid in ((1, 0), (0, 1)):
                corners = [(i, j), (i + mid[0], j + mid[1]), (i + 1, j + 1)]
                tris.append([v(*c) for c in corners])
                for (ai, aj), (bi, bj) in itertools.combinations(corners, 2):
                    a, b = v(ai, aj), v(bi, bj)
                    mono[(a, b)] = (phi[b] * phi[a].inverse()
                                    * x ** (bi // m - ai // m)
                                    * y ** (bj // m - aj // m))
    return TwistedComplex(tris, mono)


@st.composite
def gauged_complexes(draw):
    """A sphere or projective plane whose edge units are a coboundary."""
    simplices = draw(st.sampled_from([SPHERE, RP2]))
    phi = draw(st.lists(_UNITS, min_size=6, max_size=6))
    edges = TwistedComplex(simplices).simplices_of_dim(1)
    return TwistedComplex(simplices, {(u, v): phi[v] * phi[u].inverse()
                                      for u, v in edges})


# orders sharing factors with x - 1 for the units x above, so that the Tor
# terms of the universal coefficient formula come out nonzero
_ORDERS = st.sampled_from(["t - 1", "t + 1", "t^2 - 1", "t^2 + 1", "2*t - 1",
                           "t^2 - t + 1"])
_STALKS = st.one_of(
    st.just(FgGammaModule.zero()),
    st.integers(1, 2).map(FgGammaModule.free),
    st.lists(_ORDERS, min_size=1, max_size=2).map(
        lambda orders: FgGammaModule.from_summands(0, orders)),
    _ORDERS.map(lambda order: FgGammaModule.from_summands(1, [order])),
)


@given(st.one_of(random_ngons(), random_tori(), gauged_complexes()), _STALKS)
@settings(max_examples=30, deadline=None)
def test_universal_coefficients_match_kernel_solve(tc, stalk):
    tc = TwistedComplex(tc.simplices, tc.monodromy, stalk)
    assert twisted_homology(tc) == kernel_solve_homology(tc)


@given(st.one_of(random_ngons(), random_tori(), gauged_complexes()))
@settings(max_examples=30, deadline=None)
def test_boundary_rows_hold_their_faces_only(tc):
    """Each row of a boundary matrix stores exactly the p + 1 signed units
    of its simplex's faces, columns ascending, and the matrix equals the
    dense one the kernel-and-solve oracle builds."""
    for p in range(1, tc.dimension + 1):
        faces = tc.simplices_of_dim(p - 1)
        m = twisted._boundary_matrix(tc, p, {s: i for i, s in enumerate(faces)})
        for row in m._rows:
            assert len(row) == p + 1 and list(row) == sorted(row)
            assert all(e.is_unit for e in row.values())
        assert m == stalk_boundary_matrix(tc, p, 1)


@given(st.one_of(random_ngons(), random_tori(), gauged_complexes()))
@settings(max_examples=20, deadline=None)
def test_boundary_rows_keep_only_indexed_faces(tc):
    """A face outside the index loses its column and nothing else changes:
    the kept columns of the full boundary, renumbered."""
    faces = tc.simplices_of_dim(1)
    kept = faces[::2]
    m = twisted._boundary_matrix(tc, 2, {s: i for i, s in enumerate(kept)})
    full = stalk_boundary_matrix(tc, 2, 1)
    assert m.cols == len(kept)
    assert m.entries == tuple(tuple(row[faces.index(s)] for s in kept)
                              for row in full.entries)


# -- the spanning-forest reduction against full Smith forms ---------------------------


_LOOP_UNITS = st.sampled_from(["t", "t^2", "t^3", "-t", "t^-1", "2*t^2",
                               "2", "1/2", "-1", "1"]).map(parse)


@st.composite
def disjoint_unions(draw):
    """Components that are wedges of one or two loops, each loop with a
    random unit on its closing edge, plus isolated vertices, the vertices
    relabelled at random so that roots and search order vary."""
    simplices, mono, size = [], {}, 0
    for wedge in draw(st.lists(st.lists(_LOOP_UNITS, min_size=1, max_size=2),
                               min_size=1, max_size=3)):
        centre = size
        size += 1
        for unit in wedge:
            path = [centre] + list(range(size, size + draw(st.integers(2, 3))))
            size = path[-1] + 1
            simplices += [[a, b] for a, b in zip(path, path[1:])]
            simplices.append([path[-1], centre])
            mono[(path[-1], centre)] = unit
    isolated = draw(st.integers(0, 2))
    simplices += [[v] for v in range(size, size + isolated)]
    label = draw(st.permutations(range(size + isolated)))
    return TwistedComplex([[label[v] for v in s] for s in simplices],
                          {(label[a], label[b]): unit
                           for (a, b), unit in mono.items()})


@st.composite
def point_sets(draw):
    """A 0-dimensional complex: vertices and no edges."""
    vertices = draw(st.sets(st.integers(0, 9), min_size=1, max_size=4))
    return TwistedComplex([[v] for v in vertices])


@st.composite
def tetrahedra(draw):
    """The boundary of the 3-simplex or the solid 3-simplex, with edge units
    from a random gauge (every local system on them is one)."""
    simplices = draw(st.sampled_from([SPHERE, [[0, 1, 2, 3]]]))
    phi = draw(st.lists(_UNITS, min_size=4, max_size=4))
    edges = TwistedComplex(simplices).simplices_of_dim(1)
    return TwistedComplex(simplices, {(u, v): phi[v] * phi[u].inverse()
                                      for u, v in edges})


_FOREST_CASES = st.one_of(disjoint_unions(), point_sets(), tetrahedra(),
                          random_ngons(), random_tori(), gauged_complexes())


@given(_FOREST_CASES)
@settings(max_examples=60, deadline=None)
def test_forest_reduction_matches_full_smith_form(tc):
    assert twisted._free_homology(tc) == snf_free_homology(tc)


@given(st.one_of(disjoint_unions(), point_sets(), tetrahedra()), _STALKS)
@settings(max_examples=30, deadline=None)
def test_forest_reduction_matches_kernel_solve(tc, stalk):
    tc = TwistedComplex(tc.simplices, tc.monodromy, stalk)
    assert twisted_homology(tc) == kernel_solve_homology(tc)


@given(disjoint_unions(), st.lists(_ORDERS, min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_link_page_over_disconnected_base(base, orders):
    links = [FgGammaModule.cyclic(order) for order in orders]
    page = e2_link_page(base, links)
    for q, module in enumerate(links):
        stalked = TwistedComplex(base.simplices, base.monodromy, module)
        for p, h in enumerate(kernel_solve_homology(stalked)):
            assert page.entry(0, p, q) == order_polynomial(h)


def test_disjoint_loops_pair_their_orders():
    loops = TwistedComplex([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]],
                           {"0-2": "t^2", "3-5": "t^3"})
    h0, h1 = twisted_homology(loops)
    assert h0 == FgGammaModule(0, ["t - 1", "t^4 + t^3 - t - 1"])
    assert h1.is_zero


def test_wedge_of_loops_takes_the_gcd():
    wedge = TwistedComplex([[0, 1], [1, 2], [0, 2], [0, 3], [3, 4], [0, 4]],
                           {"0-2": "t^2", "0-4": "t^3"})
    h0, h1 = twisted_homology(wedge)
    assert h0 == FgGammaModule.cyclic("t - 1")
    assert h1 == FgGammaModule.free(1)


@pytest.mark.parametrize("unit", ["2", "1/2", "-1"])
def test_rational_unit_loop_is_acyclic(unit):
    """h - 1 is a nonzero constant, a unit: the gcd stops there."""
    tc = TwistedComplex(CIRCLE + [[7]], {"0-2": unit})
    h0, h1 = twisted_homology(tc)
    assert h0 == FgGammaModule.free(1) and h1.is_zero


def test_point_set_homology_is_free():
    assert twisted_homology(TwistedComplex([[3], [0], [5]])) == (
        FgGammaModule.free(3),)


# -- complex-size cap ------------------------------------------------------------------


def test_face_closure_cap_is_checked_before_building():
    with pytest.raises(twisted.ComplexTooLarge, match="1099511627775 faces"):
        TwistedComplex([list(range(40))])
    with pytest.raises(twisted.ComplexTooLarge):
        TwistedComplex([[0, 1]] * (twisted.MAX_FACES // 3 + 1))


def test_large_torus_under_the_cap():
    m = 24

    def v(i, j):
        return (i % m) * m + (j % m)

    tris = [[v(i, j), v(i + a, j + 1 - a), v(i + 1, j + 1)]
            for i in range(m) for j in range(m) for a in (0, 1)]
    tc = TwistedComplex(tris, stalk=FgGammaModule.cyclic("t - 1"))
    assert len(tc.simplices) == 3456
    h0, h1, h2 = twisted_homology(tc)
    assert (h0, h1, h2) == (FgGammaModule.cyclic("t - 1"),
                            FgGammaModule(0, ["t - 1", "t - 1"]),
                            FgGammaModule.cyclic("t - 1"))


# -- conservation laws -----------------------------------------------------------------


@pytest.mark.parametrize("simplices,mono", [
    (CIRCLE, {"0-1": "t"}),
    (SPHERE, {}),
    (TORUS, {}),
    (RP2, {}),
])
def test_euler_characteristic_free_stalk(simplices, mono):
    tc = TwistedComplex(simplices, mono)
    chi_chains = sum((-1) ** p * len(tc.simplices_of_dim(p))
                     for p in range(tc.dimension + 1))
    chi_homology = sum((-1) ** p * h.free_rank
                       for p, h in enumerate(twisted_homology(tc)))
    assert chi_chains == chi_homology


@pytest.mark.parametrize("simplices,mono,order", [
    (CIRCLE, {"0-1": "t"}, "t^2 - 1"),
    (CIRCLE, {"0-1": "-t^2"}, "t^3 - 2*t^2 + 2*t - 1"),
    (SPHERE, {}, "t - 1"),
    (RP2, {}, "t^2 - t + 1"),
])
def test_alternating_order_conservation(simplices, mono, order):
    """Order polynomials are multiplicative in exact sequences, so the
    alternating product over chains equals the one over homology."""
    stalk_order = normalize(order)
    tc = TwistedComplex(simplices, mono, FgGammaModule.cyclic(order))
    homology = twisted_homology(tc)
    even = LaurentPoly.one()
    odd = LaurentPoly.one()
    for p in range(tc.dimension + 1):
        chains = stalk_order ** len(tc.simplices_of_dim(p))
        ranks = order_polynomial(homology[p])
        if p % 2 == 0:
            even, odd = even * chains, odd * ranks
        else:
            even, odd = even * ranks, odd * chains
    assert even == odd


# -- subdivision invariance --------------------------------------------------------------


@pytest.mark.parametrize("stalk,expected", [
    (FgGammaModule.free(1),
     (FgGammaModule.cyclic("t - 1"), FgGammaModule.zero())),
    (FgGammaModule.cyclic("t^2 - t + 1"),
     (FgGammaModule.zero(), FgGammaModule.zero())),
    (FgGammaModule.cyclic("t - 1"),
     (FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t - 1"))),
])
def test_circle_subdivision_invariance(stalk, expected):
    for n in range(3, 8):
        tc = ngon(n)
        assert twisted_homology(TwistedComplex(tc.simplices, tc.monodromy, stalk)) == expected


def test_loop_unit_spread_over_edges():
    # total monodromy around the loop is t, however it is distributed
    edges = [[0, 1], [1, 2], [2, 3], [0, 3]]
    mono = {"0-1": "2*t^2", "1-2": "1/3*t^-1", "2-3": "3", "0-3": "2"}
    tc = TwistedComplex(edges, mono)
    assert twisted_homology(tc) == twisted_homology(ngon(4))


# -- second pages -------------------------------------------------------------------------


def test_link_page_point_base():
    point = TwistedComplex([[0]])
    links = [FgGammaModule.cyclic("t - 1"),
             FgGammaModule.from_summands(0, ["t + 1", "t + 1"])]
    page = e2_link_page(point, links)
    assert page == E2Table({(0, 0, 0): "t - 1",
                            (0, 0, 1): "t^2 + 2*t + 1"})
    shifted = e2_link_page(point, links, stratum_dim=2)
    assert shifted.entry(2, 0, 0) == normalize("t - 1")
    assert shifted.entry(0, 0, 0) == LaurentPoly.one()


def test_link_page_acyclic_twist_is_empty():
    page = e2_link_page(ngon(3), [FgGammaModule.cyclic("t^2 - t + 1")])
    assert page == E2Table({})


def test_link_page_trivial_monodromy_torus():
    links = [FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t - 1")]
    page = e2_link_page(TwistedComplex(TORUS), links)
    t1 = normalize("t - 1")
    for q in range(2):
        assert page.entry(0, 0, q) == t1
        assert page.entry(0, 1, q) == t1 ** 2
        assert page.entry(0, 2, q) == t1


def test_link_page_free_entry_raises():
    point = TwistedComplex([[0]])
    with pytest.raises(NotTorsionEntry):
        e2_link_page(point, [FgGammaModule.free(1)])


def test_link_page_per_degree_monodromy():
    family = [ngon(3), TwistedComplex(CIRCLE)]
    links = [FgGammaModule.cyclic("t^2 - t + 1"),
             FgGammaModule.cyclic("t - 1")]
    page = e2_link_page(family, links)
    assert page == E2Table({(0, 0, 1): "t - 1", (0, 1, 1): "t - 1"})


def test_link_page_computes_free_homology_once_per_base(monkeypatch):
    bases = []
    real = twisted._free_homology

    def counting(tc):
        bases.append(tc)
        return real(tc)

    monkeypatch.setattr(twisted, "_free_homology", counting)
    links = [FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t + 1"),
             FgGammaModule.cyclic("t^2 + 1")]
    shared = e2_link_page(TwistedComplex(TORUS), links)
    assert len(bases) == 1
    assert shared.entry(0, 1, 2) == normalize("t^2 + 1") ** 2

    bases.clear()
    family = [ngon(3), TwistedComplex(CIRCLE), ngon(3)]
    e2_link_page(family, links)
    assert len(bases) == 2


def test_link_page_family_validation():
    links = [FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t - 1")]
    with pytest.raises(ValueError):
        e2_link_page([ngon(3)], links)
    with pytest.raises(ValueError):
        e2_link_page([ngon(3), ngon(4)], links)


def test_cone_page_truncates_high_degrees():
    links = [FgGammaModule.cyclic("t - 1"),
             FgGammaModule.cyclic("t + 1"),
             FgGammaModule.cyclic("t^2 + 1")]
    point = TwistedComplex([[0]])
    page = e2_cone_page(links, 4, Perversity([0, 1, 1]), point)
    assert page == E2Table({(0, 0, 0): "t - 1", (0, 0, 1): "t + 1"})
    full = e2_cone_page(links, 4, Perversity.zero(4), point)
    assert full.entry(0, 0, 2) == normalize("t^2 + 1")


def test_abutment_bound_frozen():
    table = E2Table({(0, 0, 0): "t - 1", (0, 1, 1): "t^2 - t + 1",
                     (1, 2, 0): "t + 1", (0, 0, 2): "2*t - 1"})
    assert abutment_divisor_bound(table, 0) == normalize("t - 1")
    assert abutment_divisor_bound(table, 1) == LaurentPoly.one()
    expected = (normalize("t^2 - t + 1") * normalize("t + 1")
                * normalize("2*t - 1"))
    assert abutment_divisor_bound(table, 2) == expected


def test_abutment_bound_dominates_collapsed_tables():
    # entries of any later page divide those of the second, so the bound
    # computed there divides this one
    table = E2Table({(0, 0, 1): "t^2 - 1", (0, 1, 0): "t^2 - t + 1"})
    collapsed = E2Table({(0, 0, 1): "t - 1"})
    for j in range(4):
        assert divides(abutment_divisor_bound(collapsed, j),
                       abutment_divisor_bound(table, j))


def test_abutment_bound_from_point_page_is_exact():
    links = [FgGammaModule.cyclic("t - 1"),
             FgGammaModule.from_summands(0, ["t + 1", "t^2 + 1"])]
    page = e2_link_page(TwistedComplex([[0]]), links)
    for j, module in enumerate(links):
        assert abutment_divisor_bound(page, j) == order_polynomial(module)
