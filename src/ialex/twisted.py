"""Simplicial homology with rank-one twisted coefficients over Q[t, t^-1].

A local system on a finite complex is stored as a unit of the ring on every
oriented edge, subject to the cocycle condition on triangles, together with
one coefficient module shared by all vertices.  Chains with coefficients in
the ring itself form a complex of free modules whose boundary picks up the
edge unit on the face opposite the leading vertex.  One coreduction pass
over the whole complex pairs each cell it can with a face whose
coefficient is a unit, and leaves a small complex of critical cells with
the same homology; the Smith forms of its boundaries give every H_p from
ranks and invariant factors alone.  The stalk enters afterwards, by the
universal coefficient theorem over a principal ideal domain (Hatcher,
Algebraic Topology, 3.A):
H_p(X; M) = H_p(X; Gamma) (x) M  +  Tor(H_{p-1}(X; Gamma), M),
the Kunneth sum (`kunneth_summands`) with M as its one right-hand term,
read for every p from one table cut at the dimension of X.

On top of the homology sit the second-page tables of the neighborhood
spectral sequence: one row per coefficient degree of a link, with the cone
variant truncating the stalks, and the antidiagonal product that bounds the
order polynomial of whatever the pages converge to.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Iterable, Mapping, Optional, Sequence

from ialex.bounds import E2Table
from ialex.engine import Perversity, cone_ih
from ialex.gmodule import (
    FgGammaModule,
    GammaMatrix,
    kunneth_summands,
    smith_normal_form,
)
from ialex.laurent import LaurentPoly, _ONE, _Record, _strict_int, as_laurent

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


class TwistedComplex(_Record):
    """A finite simplicial complex with edge units and a coefficient module.

    Simplices are sorted tuples of non-negative integer vertices; the input
    list is closed under faces automatically, unless the sum of 2^|s| - 1
    over its simplices s exceeds MAX_FACES (`ComplexTooLarge`).  The
    monodromy map assigns a unit q*t^k to each oriented edge, keyed "u-v"
    or (u, v); the reverse orientation is the inverse and absent edges
    carry 1.  Triangles must satisfy the cocycle condition, checked at
    construction on each triangle that carries a twisted edge.

    >>> circle = TwistedComplex([[0, 1], [1, 2], [0, 2]], {"0-1": "t"})
    >>> circle.dimension
    1
    """

    __slots__ = ("simplices", "monodromy", "stalk", "_by_dim")

    def __init__(self, simplices: Iterable[Iterable[int]],
                 monodromy: Optional[Mapping] = None,
                 stalk: FgGammaModule = FgGammaModule.free(1)):
        given = [tuple(raw) for raw in simplices]
        # one type test for all vertices; if it fails, _strict_int names one
        strict = not all(type(v) is int
                         for v in itertools.chain.from_iterable(given))
        for i, cell in enumerate(given):
            simplex = tuple(sorted(
                [_strict_int(v, "a vertex") for v in cell] if strict else cell))
            if len(set(simplex)) != len(simplex):
                raise ValueError(f"repeated vertex in simplex {list(cell)}")
            if simplex and simplex[0] < 0:
                raise ValueError("vertices must be non-negative integers")
            given[i] = simplex
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
        parsed: dict[str, LaurentPoly] = {}      # each unit string read once
        for raw_key, value in dict(monodromy or {}).items():
            u, v = _edge_key(raw_key)
            if type(value) is not str:
                unit = as_laurent(value)
            elif (unit := parsed.get(value)) is None:
                unit = parsed[value] = as_laurent(value)
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
            if unit != _ONE:
                table[(u, v)] = unit
        object.__setattr__(self, "monodromy", table)
        if not isinstance(stalk, FgGammaModule):
            raise TypeError("stalk must be an FgGammaModule")
        object.__setattr__(self, "stalk", stalk)

        # None is 1: a triangle with no twisted edge holds as 1 * 1 = 1
        twist = table.get
        for tri in self.simplices_of_dim(2) if table else ():
            u, v, w = tri
            uv, vw, uw = twist((u, v)), twist((v, w)), twist((u, w))
            if (uv or vw or uw) and (uv or _ONE) * (vw or _ONE) != (uw or _ONE):
                raise CocycleViolation(
                    f"edge units around triangle {tri} do not compose")

    @property
    def dimension(self) -> int:
        return len(self.simplices[-1]) - 1

    def simplices_of_dim(self, p: int) -> tuple:
        return self._by_dim[p] if 0 <= p < len(self._by_dim) else ()

    def __repr__(self) -> str:
        return (f"TwistedComplex({len(self.simplices)} simplices, "
                f"dim {self.dimension}, stalk {self.stalk})")


def _free_homology(tc: TwistedComplex) -> tuple[FgGammaModule, ...]:
    """Homology with coefficients in the ring, ignoring the stalk.

    One coreduction pass (Mrozek and Batko, Discrete Comput. Geom. 41,
    2009) takes algebraic reduction pairs out of the whole complex
    (Kaczynski, Mrozek and Slusarek, Comput. Math. Appl. 35, 1998).  A cell
    is live until it is paired or set aside as critical.  A live cell b
    with exactly one live face a pairs with it: the coefficient u of a in
    the boundary of b is still a unit, since the reduction has only added
    chains of critical cells to that boundary, so a flows to -1/u times the
    rest of it, a chain of critical cells, and b to zero.  When no cell has
    exactly one live face, the least live cell becomes critical; its faces
    come before it, so none is live.  The boundaries of the critical cells,
    each face replaced by its image, make a complex with the same homology.
    With r_p the rank of its degree-p boundary and c_p its number of
    p-cells, H_p has free rank c_p - r_p - r_{p+1}, and its torsion is the
    nonunit invariant factors of the degree-(p+1) boundary: chains modulo
    cycles embed in the free (p-1)-chains, so the cycles split off.
    """
    cells, monodromy = tc.simplices, tc.monodromy
    face_index = {s: i for i, s in enumerate(cells)}.__getitem__
    faces: list[tuple[int, ...]] = [()] * len(tc.simplices_of_dim(0))
    cofaces: list[list[int]] = [[] for _ in cells]
    for b in range(len(faces), len(cells)):
        faces.append(tuple(map(face_index, itertools.combinations(
            cells[b], len(cells[b]) - 1))))
        for a in faces[b]:
            cofaces[a].append(b)
    # live faces per cell, counted down as the cells that leave are popped
    # (a vertex has none and is never counted); an image is a chain
    # {critical position: coefficient}, None while the cell is live, and
    # is never changed once made, so one chain may serve several cells
    live = list(map(len, cells))
    image: list[Optional[dict]] = [None] * len(cells)
    nothing: dict = {}

    def boundary_image(b: int, pivot: Optional[int] = None) -> dict:
        # face i leaves out vertex top - i, with coefficient the edge unit
        # for vertex 0 and (-1)^j for vertex j; a pivot face with
        # coefficient c is left out and the rest multiplied by -1/c
        fs, unit = faces[b], monodromy.get(cells[b][:2])   # None means 1
        top = len(fs) - 1
        factor, parity = None, top
        if pivot is not None:
            k = top - fs.index(pivot)
            factor, parity = ((unit and unit.inverse(), top + 1) if k == 0
                              else (None, top + k + 1))
        terms = []
        for i, f in enumerate(fs):
            if f != pivot and image[f]:
                terms.append((unit if i == top else factor, (i + parity) % 2,
                              image[f]))
        if not terms:
            return nothing
        if len(terms) == 1 and terms[0][0] is None and not terms[0][1]:
            return terms[0][2]
        out: dict = {}
        for scale, negate, chain in terms:
            for c, e in chain.items():
                if scale is not None:
                    e = e * scale
                if negate:
                    e = -e
                if c in out:
                    e = out[c] + e
                    if not e:
                        del out[c]
                        continue
                out[c] = e
        return out

    dim = tc.dimension
    critical: list[list[dict]] = [[] for _ in range(dim + 1)]
    for c in range(len(cells)):
        if image[c] is not None:
            continue
        rows = critical[len(cells[c]) - 1]
        rows.append(boundary_image(c))
        image[c] = {len(rows) - 1: _ONE}
        left = [c]
        while left:
            for b in cofaces[left.pop()]:
                live[b] -= 1
                if live[b] != 1 or image[b] is not None:
                    continue
                for a in faces[b]:
                    if image[a] is None:
                        break
                else:
                    continue            # its last live face has left too
                image[a], image[b] = boundary_image(b, a), nothing
                left += (a, b)
    out, rank_below = [], 0
    for p, rows in enumerate(critical):
        above = critical[p + 1] if p < dim else ()
        factors, rank = (smith_normal_form(GammaMatrix.from_rows(above, len(rows)))
                         if any(above) else ((), 0))
        out.append(FgGammaModule(len(rows) - rank_below - rank,
                                 [f for f in factors if not f.is_one]))
        rank_below = rank
    return tuple(out)


def twisted_homology(tc: TwistedComplex) -> tuple[FgGammaModule, ...]:
    """Homology of the stalk-valued chain complex, degree by degree.

    The chain groups with coefficients in the ring are free and the edge
    units act invertibly, so the homology with coefficients in the ring
    comes from one coreduction pass and the Smith forms of the complex of
    critical cells it leaves, and the stalk enters by the universal
    coefficient theorem.

    >>> circle = TwistedComplex([[0, 1], [1, 2], [0, 2]], {"0-1": "t"})
    >>> twisted_homology(circle)
    (FgGammaModule(free=0, torsion=['t - 1']), FgGammaModule(free=0, torsion=[]))
    >>> twisted_homology(TwistedComplex([[0, 1], [1, 2], [0, 2]]))
    (FgGammaModule(free=1, torsion=[]), FgGammaModule(free=1, torsion=[]))
    """
    free = _free_homology(tc)
    return tuple(FgGammaModule.from_summands(rank, orders) for rank, _, orders
                 in kunneth_summands(free, [tc.stalk])[:len(free)])


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
        sums = kunneth_summands(free[key], [module])[:len(free[key])]
        for p, (rank, _, orders) in enumerate(sums):
            if rank:
                raise NotTorsionEntry(f"page entry (p={p}, q={q}) has free "
                                      f"rank {rank}")
            entries[(stratum_dim, p, q)] = math.prod(orders, start=_ONE)
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
    j = _strict_int(j, "a total degree")
    return math.prod((poly for (_, p, q), poly in table.items() if p + q == j),
                     start=_ONE)
