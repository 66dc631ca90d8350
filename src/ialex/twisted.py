"""Simplicial homology with rank-one twisted coefficients over Q[t, t^-1].

A local system on a finite complex is stored as a unit of the ring on every
oriented edge, subject to the cocycle condition on triangles, together with
one coefficient module shared by all vertices.  Chains with coefficients in
the ring itself form a complex of free modules whose boundary picks up the
edge unit on the face opposite the leading vertex.  Contracting a spanning
forest of the 1-skeleton gives H_0 in closed form, from the holonomy of
each edge outside the forest, and leaves a smaller complex with the same
homology; the Smith form of each of its boundary matrices above degree 1
gives the rest from ranks and invariant factors alone.  The stalk enters
afterwards, by the universal coefficient theorem over a principal ideal
domain (Hatcher, Algebraic Topology, 3.A):
H_p(X; M) = H_p(X; Gamma) (x) M  +  Tor(H_{p-1}(X; Gamma), M).

On top of the homology sit the second-page tables of the neighborhood
spectral sequence: one row per coefficient degree of a link, with the cone
variant truncating the stalks, and the antidiagonal product that bounds the
order polynomial of whatever the pages converge to.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Mapping, Optional, Sequence

from ialex.bounds import E2Table, _strict_int
from ialex.engine import Perversity, cone_ih
from ialex.gmodule import (
    FgGammaModule,
    GammaMatrix,
    kunneth_order,
    smith_normal_form,
    tensor,
    tor,
)
from ialex.laurent import (
    LaurentPoly,
    as_laurent,
    gcd,
    normalize,
)

__all__ = [
    "CocycleViolation",
    "ComplexTooLarge",
    "EmptyComplex",
    "MAX_FACES",
    "NotTorsionEntry",
    "TwistedComplex",
    "abutment_divisor_bound",
    "e2_cone_page",
    "e2_link_page",
    "twisted_homology",
]


# the most faces a complex's input may close to, counted as the sum of
# 2^|s| - 1 over its simplices before any face is built
MAX_FACES = 2**16


class ComplexTooLarge(ValueError):
    """Closing the input under faces could exceed MAX_FACES simplices."""


class CocycleViolation(ValueError):
    """Edge units fail to compose along a triangle."""


class EmptyComplex(ValueError):
    """A complex with no simplices has no chain groups to speak of."""


class NotTorsionEntry(ValueError):
    """A page entry came out with positive free rank, so it has no order
    polynomial."""


def _edge_key(raw) -> tuple[int, int]:
    """An edge key "u-v" of two digit strings, or a pair of integers."""
    if isinstance(raw, str):
        if not re.fullmatch(r"[0-9]+-[0-9]+", raw):
            raise ValueError(f"edge key {raw!r} is not of the form \"u-v\"")
        u, _, v = raw.partition("-")
        return int(u), int(v)
    u, v = raw
    return _strict_int(u, "an edge vertex"), _strict_int(v, "an edge vertex")


class TwistedComplex:
    """A finite simplicial complex with edge units and a coefficient module.

    Simplices are sorted tuples of non-negative integer vertices; the input
    list is closed under faces automatically, unless the sum of 2^|s| - 1
    over its simplices s exceeds MAX_FACES (`ComplexTooLarge`).  The
    monodromy map assigns a unit q*t^k to each oriented edge, keyed "u-v"
    or (u, v); the reverse orientation is the inverse and absent edges
    carry 1.  Triangles must satisfy the cocycle condition, checked at
    construction.

    >>> circle = TwistedComplex([[0, 1], [1, 2], [0, 2]], {"0-1": "t"})
    >>> circle.dimension
    1
    >>> circle.transport(1, 0)
    LaurentPoly('t^-1')
    """

    __slots__ = ("simplices", "monodromy", "stalk", "_by_dim")

    def __init__(self, simplices: Iterable[Iterable[int]],
                 monodromy: Optional[Mapping] = None,
                 stalk: FgGammaModule = FgGammaModule.free(1)):
        given = []
        for raw in simplices:
            simplex = tuple(sorted(_strict_int(v, "a vertex") for v in raw))
            if len(set(simplex)) != len(simplex):
                raise ValueError(f"repeated vertex in simplex {raw}")
            if simplex and simplex[0] < 0:
                raise ValueError("vertices must be non-negative integers")
            given.append(simplex)
        bound = sum(2 ** len(s) - 1 for s in given)
        if bound > MAX_FACES:
            raise ComplexTooLarge(
                f"closing the simplices under faces could give {bound} "
                f"faces, over the cap {MAX_FACES}")
        faces: list[set] = []                   # faces[p]: the p-simplices
        for simplex in given:
            faces += [set() for _ in range(len(simplex) - len(faces))]
            for k in range(1, len(simplex) + 1):
                faces[k - 1].update(itertools.combinations(simplex, k))
        if not faces:
            raise EmptyComplex("the complex has no simplices")
        by_dim = tuple(tuple(sorted(f)) for f in faces)
        object.__setattr__(self, "_by_dim", by_dim)
        object.__setattr__(self, "simplices", tuple(itertools.chain(*by_dim)))

        edges = faces[1] if len(faces) > 1 else set()
        table: dict[tuple[int, int], LaurentPoly] = {}
        for raw_key, value in dict(monodromy or {}).items():
            u, v = _edge_key(raw_key)
            unit = as_laurent(value)
            if not unit.is_unit:
                raise ValueError(f"monodromy on edge ({u}, {v}) is not a unit")
            if u == v:
                raise ValueError("monodromy is defined on edges, not vertices")
            if u > v:
                u, v, unit = v, u, unit.inverse()
            if (u, v) not in edges:
                raise ValueError(f"({u}, {v}) is not an edge of the complex")
            if (u, v) in table and table[(u, v)] != unit:
                raise ValueError(f"inconsistent monodromy on edge ({u}, {v})")
            if unit != LaurentPoly.one():
                table[(u, v)] = unit
        object.__setattr__(self, "monodromy", table)
        if not isinstance(stalk, FgGammaModule):
            raise TypeError("stalk must be an FgGammaModule")
        object.__setattr__(self, "stalk", stalk)

        for tri in self.simplices_of_dim(2):
            u, v, w = tri
            if self.transport(u, v) * self.transport(v, w) != self.transport(u, w):
                raise CocycleViolation(
                    f"edge units around triangle {tri} do not compose")

    def __setattr__(self, name, value):
        raise AttributeError("TwistedComplex is immutable")

    @property
    def dimension(self) -> int:
        return len(self.simplices[-1]) - 1

    def simplices_of_dim(self, p: int) -> tuple:
        return self._by_dim[p] if 0 <= p < len(self._by_dim) else ()

    def transport(self, u: int, v: int) -> LaurentPoly:
        """The unit carried by the oriented edge from u to v."""
        if u == v:
            return LaurentPoly.one()
        key = (min(u, v), max(u, v))
        unit = self.monodromy.get(key, LaurentPoly.one())
        return unit if u < v else unit.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistedComplex):
            return NotImplemented
        return (self.simplices, self.monodromy, self.stalk) == (
            other.simplices, other.monodromy, other.stalk)

    def __repr__(self) -> str:
        return (f"TwistedComplex({len(self.simplices)} simplices, "
                f"dim {self.dimension}, stalk {self.stalk})")


def _boundary_matrix(tc: TwistedComplex, p: int,
                     index: Mapping[tuple, int]) -> GammaMatrix:
    """The degree-p boundary on chains with coefficients in the ring; rows
    are sources, columns targets.  `index` numbers the (p-1)-faces kept as
    columns: a row holds the signed units of its simplex's faces in
    `index`, p + 1 of them when every face is kept."""
    signs = (LaurentPoly.one(), -LaurentPoly.one())
    rows = []
    for simplex in tc.simplices_of_dim(p):
        row = {}
        for j in range(p + 1):
            face = index.get(simplex[:j] + simplex[j + 1:])
            if face is not None:
                row[face] = (tc.transport(simplex[0], simplex[1]) if j == 0
                             else signs[j % 2])
        rows.append(row)
    return GammaMatrix.from_rows(rows, len(index))


def _spanning_forest(tc: TwistedComplex) -> tuple[FgGammaModule, int, dict]:
    """H_0 with coefficients in the ring, the rank of the reduced degree-1
    boundary, and the column index of the edges outside a spanning forest.

    A search from the least vertex of each component gives every vertex v
    its potential phi(v), the transport along the tree path from the root.
    A tree edge with the vertex it reaches is a reduction pair (its
    boundary holds that vertex with a unit coefficient), so contracting the
    forest leaves one generator per root, related by h(e) - 1 for each
    non-tree edge e = (u, v) with holonomy h(e) = phi(u) T(u, v) / phi(v).
    A component is Gamma when every h(e) is 1 and Gamma/(g) otherwise, with
    g the gcd of its h(e) - 1; the gcd stops at a unit.
    """
    one = LaurentPoly.one()
    neighbours: dict[int, list[int]] = {v: [] for (v,) in tc.simplices_of_dim(0)}
    for u, v in tc.simplices_of_dim(1):
        neighbours[u].append(v)
        neighbours[v].append(u)
    potential: dict[int, LaurentPoly] = {}
    root: dict[int, int] = {}
    tree: set[tuple[int, int]] = set()
    for start in neighbours:
        if start in potential:
            continue
        potential[start], root[start] = one, start
        stack = [start]
        while stack:
            u = stack.pop()
            for v in neighbours[u]:
                if v not in potential:
                    potential[v] = potential[u] * tc.transport(u, v)
                    root[v] = start
                    tree.add((u, v) if u < v else (v, u))
                    stack.append(v)

    orders: dict[int, LaurentPoly] = {}    # root -> gcd of its h(e) - 1
    index = {}
    for edge in tc.simplices_of_dim(1):
        if edge in tree:
            continue
        index[edge] = len(index)
        u, v = edge
        g = orders.get(root[u])
        if g is not None and g.is_one:
            continue
        carried = potential[u] * tc.transport(u, v)
        if carried != potential[v]:
            loop = carried * potential[v].inverse() - one
            orders[root[u]] = normalize(loop) if g is None else gcd(g, loop)
    h0 = FgGammaModule.from_summands(len(potential) - len(tree) - len(orders),
                                     orders.values())
    return h0, len(orders), index


def _free_homology(tc: TwistedComplex) -> tuple[FgGammaModule, ...]:
    """Homology with coefficients in the ring, ignoring the stalk.

    Contracting a spanning forest of the 1-skeleton (`_spanning_forest`,
    after Kaczynski, Mrozek and Slusarek, Comput. Math. Appl. 35, 1998)
    gives H_0 in closed form and leaves a complex with the same homology:
    the roots in degree 0, the non-tree edges in degree 1, and every
    simplex above; the degree-2 boundary just loses its tree-edge columns.
    With r_p the rank of a reduced boundary and c_p the number of reduced
    p-cells, H_p has free rank c_p - r_p - r_{p+1}, and its torsion is that
    of the cokernel of the degree-(p+1) boundary, i.e. that boundary's
    nonunit invariant factors: chains modulo cycles embed in the free
    (p-1)-chains, so the cycles split off the chains as a direct summand.
    """
    dim = tc.dimension
    h0, rank_below, index = _spanning_forest(tc)
    out = [h0]
    for p in range(2, dim + 2):
        factors, rank = (smith_normal_form(_boundary_matrix(tc, p, index))
                         if p <= dim else ((), 0))
        out.append(FgGammaModule(len(index) - rank_below - rank,
                                 [f for f in factors if not f.is_one]))
        index = {s: i for i, s in enumerate(tc.simplices_of_dim(p))}
        rank_below = rank
    return tuple(out)


def _universal_coefficients(free: Sequence[FgGammaModule],
                            stalk: FgGammaModule) -> tuple[FgGammaModule, ...]:
    """H_p (x) M  +  Tor(H_{p-1}, M), degree by degree, from the homology
    H_* with coefficients in the ring and the stalk M."""
    below = FgGammaModule.zero()
    out = []
    for h in free:
        out.append(tensor(h, stalk).direct_sum(tor(below, stalk)))
        below = h
    return tuple(out)


def twisted_homology(tc: TwistedComplex) -> tuple[FgGammaModule, ...]:
    """Homology of the stalk-valued chain complex, degree by degree.

    The chain groups with coefficients in the ring are free and the edge
    units act invertibly, so the homology with coefficients in the ring
    comes from a spanning-forest contraction and one Smith form per
    boundary matrix above degree 1, and the stalk enters by the universal
    coefficient theorem.

    >>> circle = TwistedComplex([[0, 1], [1, 2], [0, 2]], {"0-1": "t"})
    >>> twisted_homology(circle)
    (FgGammaModule(free=0, torsion=['t - 1']), FgGammaModule(free=0, torsion=[]))
    >>> twisted_homology(TwistedComplex([[0, 1], [1, 2], [0, 2]]))
    (FgGammaModule(free=1, torsion=[]), FgGammaModule(free=1, torsion=[]))
    """
    return _universal_coefficients(_free_homology(tc), tc.stalk)


def _family(base, length: int) -> list[TwistedComplex]:
    if isinstance(base, TwistedComplex):
        return [base] * length
    family = list(base)
    if len(family) < length:
        raise ValueError(
            f"need monodromy data for {length} coefficient degrees, "
            f"got {len(family)}")
    for tc in family[1:]:
        if tc.simplices != family[0].simplices:
            raise ValueError("the family must share one underlying complex")
    return family[:length]


def e2_link_page(base, link_modules: Sequence[FgGammaModule],
                 stratum_dim: int = 0) -> E2Table:
    """Second-page table of a stratum with link coefficients.

    Entry (stratum_dim, p, q) is the order polynomial of the degree-p
    homology of the base with stalk the degree-q link module, under the
    degree-q monodromy.  `base` is one TwistedComplex (shared monodromy) or
    a sequence of them sharing a complex, one per degree; their own stalks
    are ignored.

    >>> point = TwistedComplex([[0]])
    >>> page = e2_link_page(point, [FgGammaModule.cyclic("t - 1"),
    ...                             FgGammaModule.cyclic("t + 1")])
    >>> page.entry(0, 0, 1)
    LaurentPoly('t + 1')
    """
    family = _family(base, len(link_modules))
    free: dict[tuple, tuple[FgGammaModule, ...]] = {}
    entries = {}
    for q, module in enumerate(link_modules):
        key = tuple(sorted(family[q].monodromy.items()))
        if key not in free:
            free[key] = _free_homology(family[q])
        for p, h in enumerate(free[key]):
            if h.free_rank * module.free_rank:
                raise NotTorsionEntry(f"page entry (p={p}, q={q}) has free "
                                      f"rank {h.free_rank * module.free_rank}")
            entries[(stratum_dim, p, q)] = kunneth_order(free[key], [module], p)
    return E2Table(entries)


def e2_cone_page(link_modules: Sequence[FgGammaModule], codim: int,
                 p: Perversity, base, stratum_dim: int = 0) -> E2Table:
    """Second-page table with cone coefficients: the link stalks truncated
    by the cone formula for a cone of the given codimension.

    >>> point = TwistedComplex([[0]])
    >>> links = [FgGammaModule.cyclic("t - 1"), FgGammaModule.cyclic("t + 1")]
    >>> page = e2_cone_page(links, 3, Perversity([0, 1]), point)
    >>> page.entry(0, 0, 1)
    LaurentPoly('1')
    >>> page.entry(0, 0, 0)
    LaurentPoly('t - 1')
    """
    coned = cone_ih(link_modules, codim, p)[:len(link_modules)]
    return e2_link_page(base, coned, stratum_dim)


def abutment_divisor_bound(table: E2Table, j: int) -> LaurentPoly:
    """Product of the degree-j antidiagonal of a page.

    Whatever the page converges to has, in total degree j, an order
    polynomial dividing this product: limit entries are subquotients of the
    page entries, and the abutment's polynomial is the product over its
    filtration grades.

    >>> point = TwistedComplex([[0]])
    >>> page = e2_link_page(point, [FgGammaModule.cyclic("t^2 - 1")])
    >>> abutment_divisor_bound(page, 0)
    LaurentPoly('t^2 - 1')
    >>> abutment_divisor_bound(page, 5)
    LaurentPoly('1')
    """
    out = LaurentPoly.one()
    for (_, p, q), poly in table.items():
        if p + q == j:
            out = out * poly
    return out
