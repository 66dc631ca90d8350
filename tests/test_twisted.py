"""Twisted simplicial homology and the neighborhood second pages."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ialex import cli, twisted
from ialex.bounds import E2Table
from ialex.engine import Perversity
from ialex.gmodule import FgGammaModule, _diagonalise, order_polynomial
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
    first_cocycle_violation,
    forest_free_homology,
    heap_diagonalise,
    kernel_solve_homology,
    snf_free_homology,
    stalk_boundary_matrix,
    untwisted_betti,
)

CIRCLE = [[0, 1], [1, 2], [0, 2]]
SPHERE = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
RP2 = [[0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 3, 5], [0, 4, 5],
       [1, 2, 5], [1, 3, 4], [1, 4, 5], [2, 3, 4], [2, 3, 5]]
# the edges of RP2 that carry -1 in a cocycle whose class is not a
# coboundary: the sign of its fundamental group Z/2
RP2_SIGN_EDGES = {(1, 4), (1, 5), (2, 3), (2, 5), (3, 4)}
# the 7-vertex torus: the plane lattice triangulation modulo the kernel of
# (a, b) -> a + 2b mod 7, so the step from u to v is e1, e2 or e1 + e2
# when v - u is 1, 2 or 3 mod 7
SEVEN_TORUS = ([[i, (i + 1) % 7, (i + 3) % 7] for i in range(7)]
               + [[i, (i + 2) % 7, (i + 3) % 7] for i in range(7)])


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
    # simplices given as one-shot iterators are each read once
    assert TwistedComplex(iter(s) for s in SPHERE) == tc


def test_monodromy_normalization():
    # an edge is stored once, lower vertex first, with the unit turned round
    tc = TwistedComplex(CIRCLE, {"1-0": "t^-1"})
    assert tc.monodromy == {(0, 1): parse("t")}
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


@pytest.mark.parametrize("simplices, monodromy, error", [
    (CIRCLE, {" 0-1 ": "t"}, ValueError),         # padded key
    (CIRCLE, {"0-+1": "t"}, ValueError),
    (CIRCLE, {(True, 0.5): "t"}, TypeError),      # a bool and a float
    ([[0, 1.5]], {}, TypeError),                  # a float vertex
])
def test_complex_refuses_non_integer_vertices(simplices, monodromy, error):
    with pytest.raises(error):
        TwistedComplex(simplices, monodromy)


def test_json_round_trip():
    tc = TwistedComplex(CIRCLE, {"0-1": "2*t^3"},
                        FgGammaModule.cyclic("t^2 - t + 1"))
    literal = {"simplices": CIRCLE, "monodromy": {"0-1": "2*t^3"},
               "stalk": {"torsion": ["t^2 - t + 1"]}}
    assert cli._complex(literal, "payload") == tc


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


# -- the cocycle check against the all-triangle oracle ------------------------------


_GAUGES = st.sampled_from(["1", "t", "-t^-1"]).map(parse)


@st.composite
def unit_assignments(draw):
    """Triangles and edges on at most six vertices with the edge units
    phi(v)/phi(u) of a potential phi, so that every triangle composes; in
    half the draws one edge's unit is then multiplied by a unit other than
    1, which breaks the triangles on that edge.  Returns the simplices, the
    units keyed (u, v) with u < v, and the same units keyed in a random
    orientation, reversed keys carrying the inverse."""
    n = draw(st.integers(3, 6))
    faces = [st.sampled_from(list(itertools.combinations(range(n), k)))
             for k in (2, 3)]
    simplices = [list(s) for s in draw(st.lists(faces[1], min_size=1,
                                                max_size=6))
                 + draw(st.lists(faces[0], max_size=3))]
    edges = sorted({e for s in simplices for e in itertools.combinations(s, 2)})
    phi = draw(st.lists(_GAUGES, min_size=n, max_size=n))
    mono = {(u, v): phi[v] * phi[u].inverse() for u, v in edges}
    if draw(st.booleans()):
        edge = draw(st.sampled_from(edges))
        mono[edge] = mono[edge] * draw(_UNITS.filter(lambda q: not q.is_one))
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    keyed = dict(((v, u), q.inverse()) if flip else ((u, v), q)
                 for ((u, v), q), flip in zip(mono.items(), flips))
    return simplices, mono, keyed


@given(unit_assignments())
@settings(max_examples=200, deadline=None)
def test_cocycle_check_matches_all_triangle_oracle(case):
    """Checking only triangles with a twisted edge finds the same first bad
    triangle as checking all of them, and accepts exactly the cocycles."""
    simplices, mono, keyed = case
    bad = first_cocycle_violation(simplices, mono)
    if bad is None:
        tc = TwistedComplex(simplices, keyed)
        assert tc.monodromy == {e: q for e, q in mono.items() if not q.is_one}
    else:
        with pytest.raises(CocycleViolation) as info:
            TwistedComplex(simplices, keyed)
        assert str(info.value) == (
            f"edge units around triangle {bad} do not compose")


def test_only_triangles_with_a_twisted_edge_are_multiplied(monkeypatch):
    """The untwisted torus takes no ring product to build; with the gauge t
    at vertex 0, only its six triangles at vertex 0 take one each."""
    products = []
    real = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__",
                        lambda a, b: products.append(a) or real(a, b))
    TwistedComplex(TORUS)
    assert products == []
    star = {f"0-{v}": "t^-1" for v in range(1, 9)
            if any(0 in s and v in s for s in TORUS)}
    TwistedComplex(TORUS, star)
    assert len(products) == 6


# -- the coreduction pass against the spanning forest and full Smith forms ----------


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


@st.composite
def full_simplices(draw):
    """The full k-simplex for k <= 7, edge units from a random gauge."""
    k = draw(st.integers(0, 7))
    phi = draw(st.lists(_UNITS, min_size=k + 1, max_size=k + 1))
    return TwistedComplex([range(k + 1)], {
        (u, v): phi[v] * phi[u].inverse()
        for u, v in itertools.combinations(range(k + 1), 2)})


@st.composite
def twisted_surfaces(draw):
    """RP2 or the 7-vertex torus with a local system whose class need
    not be trivial, spread over the edges by a random gauge phi.  On RP2
    the class is the sign of Z/2 or trivial; on the torus it is the lattice
    character with units x and y on e1 and e2, so the step from u to v
    carries x, y or xy when v - u is 1, 2 or 3 mod 7, and its inverse when
    u - v is."""
    phi = draw(st.lists(_UNITS, min_size=7, max_size=7))
    if draw(st.booleans()):
        simplices = RP2
        sign = draw(st.sampled_from([1, -1]))
        base = {e: LaurentPoly.constant(sign) for e in RP2_SIGN_EDGES}
    else:
        simplices = SEVEN_TORUS
        x, y = draw(_UNITS), draw(_UNITS)
        steps = {1: x, 2: y, 3: x * y}
        base = {(u, v): steps[(v - u) % 7] if (v - u) % 7 in steps
                else steps[(u - v) % 7].inverse()
                for u, v in itertools.combinations(range(7), 2)}
    edges = TwistedComplex(simplices).simplices_of_dim(1)
    return TwistedComplex(simplices, {
        (u, v): base.get((u, v), LaurentPoly.one()) * phi[v] * phi[u].inverse()
        for u, v in edges})


_FOREST_CASES = st.one_of(disjoint_unions(), point_sets(), tetrahedra(),
                          random_ngons(), random_tori(), gauged_complexes(),
                          full_simplices(), twisted_surfaces())


@given(_FOREST_CASES)
@settings(max_examples=60, deadline=None)
def test_forest_reduction_matches_full_smith_form(tc):
    """The two oracles agree: the spanning-forest route and the Smith
    form of every full boundary."""
    assert forest_free_homology(tc) == snf_free_homology(tc)


@given(_FOREST_CASES)
@settings(max_examples=80, deadline=None)
def test_coreduction_matches_both_oracles(tc):
    free = twisted._free_homology(tc)
    assert free == snf_free_homology(tc)
    assert free == forest_free_homology(tc)


@given(st.one_of(full_simplices(), twisted_surfaces()))
@settings(max_examples=30, deadline=None)
def test_boundary_pivot_scan_matches_heap_elimination(tc):
    """On every full boundary of a full simplex, RP2 or the 7-vertex
    torus, the pivot scan and the heap-ordered elimination return the
    same diagonal in the same order."""
    for p in range(1, tc.dimension + 1):
        m = stalk_boundary_matrix(tc, p, 1)
        assert _diagonalise(m) == heap_diagonalise(m)


def test_twelve_vertex_simplex_is_contractible():
    """A frozen 12-vertex simplex, 4095 cells under a gauge: Gamma in
    degree 0 and zero above, with a torsion stalk as with a free one."""
    phi = [LaurentPoly({v % 5 - 2: Fraction((-1) ** v * 2 ** (v % 3))})
           for v in range(12)]
    mono = {(u, v): phi[v] * phi[u].inverse()
            for u, v in itertools.combinations(range(12), 2)}
    tc = TwistedComplex([range(12)], mono)
    assert len(tc.simplices) == 4095
    assert twisted._free_homology(tc) == (
        (FgGammaModule.free(1),) + (FgGammaModule.zero(),) * 11)
    stalk = FgGammaModule.cyclic("t - 1")
    assert twisted_homology(TwistedComplex([range(12)], mono, stalk)) == (
        (stalk,) + (FgGammaModule.zero(),) * 11)


def test_twisted_surfaces_carry_their_class():
    """The sign on RP2 and the lattice character on the 7-vertex torus
    are cocycles that are not coboundaries.  The sign is the orientation
    system of RP2, so H_0 = Gamma/(2) is zero and H_2 is free of rank 1.
    On the torus with x = t and y = 1 the holonomies t^7 and t^-2 make
    H_0 and H_1 Gamma/(t - 1), the gcd of t^7 - 1 and t^-2 - 1."""
    sign = TwistedComplex(RP2, {e: "-1" for e in RP2_SIGN_EDGES})
    assert twisted_homology(sign) == (
        FgGammaModule.zero(), FgGammaModule.zero(), FgGammaModule.free(1))
    steps = {1: LaurentPoly({1: 1}), 2: LaurentPoly.one(), 3: LaurentPoly({1: 1})}
    mono = {(u, v): steps[(v - u) % 7] if (v - u) % 7 in steps
            else steps[(u - v) % 7].inverse()
            for u, v in itertools.combinations(range(7), 2)}
    h0, h1, h2 = twisted_homology(TwistedComplex(SEVEN_TORUS, mono))
    assert h0 == FgGammaModule.cyclic("t - 1")
    assert h1 == FgGammaModule.cyclic("t - 1") and h2.is_zero


@given(st.one_of(disjoint_unions(), point_sets(), tetrahedra()), _STALKS)
@settings(max_examples=30, deadline=None)
def test_forest_reduction_matches_kernel_solve(tc, stalk):
    """On the shapes the spanning-forest route was first checked on,
    universal coefficients over the coreduction pass match kernels and
    solves on stalk-valued chains."""
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


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=["float", "bool", "str"])
def test_abutment_bound_refuses_non_integer_degree(bad):
    table = E2Table({(0, 1, 1): "t - 1"})
    with pytest.raises(TypeError, match="^a total degree must be an integer"):
        abutment_divisor_bound(table, bad)


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
