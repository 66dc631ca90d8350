"""Finitely generated modules over Q[t, t^-1] via presentation matrices.

A matrix presents its cokernel: rows are relations, columns are generators.
`GammaMatrix` stores only the nonzero entries, one dict per row, so the
boundary matrices of simplicial complexes, with p + 1 entries in a row of
any length, go into the elimination without a dense pass.

Smith normal form over the Euclidean domain (norm = degree of the normal
form) reduces every module to the canonical shape
free rank + invariant-factor chain, which the classification theorem makes a
complete invariant.  It runs in two steps: one sparse Euclidean elimination
diagonalises, unit pivots being the pivots of least degree, then gcd/lcm
pairing, Gamma/(a) + Gamma/(b) = Gamma/(gcd) + Gamma/(lcm), turns the
diagonal into the chain, the same step that canonicalises a direct sum of
cyclic modules.  On top of that normal form sit the order polynomial, the
prime check of primary decomposition and the one closed form of the Kunneth
sum, `kunneth_summands`: the free rank and cyclic orders of every degree of
a product, split at a right-hand degree, from one pass over the pairs of
degrees and without building a module.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from ialex.laurent import (
    DEFAULT_DEGREE_CAP,
    LaurentPoly,
    PolyLike,
    _ONE,
    _ZERO,
    _Record,
    _poly_divmod,
    _strict_int,
    _unit_quotient,
    as_laurent,
    divides,
    exact_quotient,
    factor,
    gcd,
    normalize,
)

__all__ = [
    "FgGammaModule",
    "GammaMatrix",
    "NotPrime",
    "NotTorsion",
    "kunneth_summands",
    "order_polynomial",
    "smith_normal_form",
]


class NotTorsion(ValueError):
    """An operation needing a torsion module met positive free rank."""


class NotPrime(ValueError):
    """The polynomial passed as a prime is a unit or reducible."""


class GammaMatrix(_Record):
    """A sparse matrix over Q[t, t^-1]; rows are relations, columns generators.

    Only nonzero entries are stored, one {column: entry} dict per row with
    columns ascending, the form `_diagonalise` eliminates on; the dense grid
    `entries` is built only when asked for.

    >>> m = GammaMatrix([["t - 1", "1"], ["0", "t + 1"]])
    >>> m.rows, m.cols
    (2, 2)
    >>> print(m.entry(0, 1))
    1
    >>> m == GammaMatrix.from_rows([{0: "t - 1", 1: "1"}, {1: "t + 1"}], 2)
    True
    """

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable[PolyLike]], cols: int | None = None):
        grid = [tuple(row) for row in entries]
        if len({len(row) for row in grid}) > 1:
            raise ValueError("ragged rows in matrix")
        if grid and cols not in (None, len(grid[0])):
            raise ValueError("cols does not match the entry grid")
        width = cols if cols is not None else len(grid[0]) if grid else 0
        self._fill([dict(enumerate(row)) for row in grid], width)

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[int, PolyLike]], cols: int) -> "GammaMatrix":
        """The matrix with the given {column: entry} rows; zeros are dropped."""
        m = object.__new__(cls)
        m._fill(rows, cols)
        return m

    def _fill(self, rows: Iterable[Mapping[int, PolyLike]], cols: int):
        if _strict_int(cols, "a column count") < 0:
            raise ValueError("a matrix cannot have a negative column count")
        out = []
        for row in rows:
            keys = sorted(row)
            if keys and not 0 <= keys[0] <= keys[-1] < cols:
                raise ValueError(f"a column lies outside a {cols}-column matrix")
            sparse = {j: as_laurent(row[j]) for j in keys}
            if not all(sparse.values()):
                sparse = {j: e for j, e in sparse.items() if e}
            out.append(sparse)
        object.__setattr__(self, "_rows", tuple(out))
        object.__setattr__(self, "rows", len(out))
        object.__setattr__(self, "cols", cols)

    @property
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        return tuple(tuple(row.get(j, _ZERO) for j in range(self.cols))
                     for row in self._rows)

    def entry(self, i: int, j: int) -> LaurentPoly:
        if not 0 <= i < self.rows:
            raise IndexError("row index out of range")
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return self._rows[i].get(j, _ZERO)

    def __mul__(self, other: "GammaMatrix") -> "GammaMatrix":
        if not isinstance(other, GammaMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * "
                             f"{other.rows}x{other.cols}")
        out = []
        for row in self._rows:
            acc: dict[int, LaurentPoly] = {}
            for k, a in row.items():
                for j, b in other._rows[k].items():
                    acc[j] = acc.get(j, _ZERO) + a * b
            out.append(acc)
        return GammaMatrix.from_rows(out, other.cols)

    def to_json(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.entries]

    def _key(self) -> tuple:
        return (self.rows, self.cols, tuple(tuple(row.items()) for row in self._rows))

    def __repr__(self) -> str:
        return f"GammaMatrix({self.to_json()!r})"


# -- Smith normal form -------------------------------------------------------


def _diagonalise(m: GammaMatrix) -> list[LaurentPoly]:
    """Diagonalise by sparse Euclidean pivoting; returns the nonzero diagonal.

    It works on copies of the matrix's sparse rows.  Each round pivots on an
    entry of least degree, found by one scan of the rows left: the row with
    the least (degree, length, index), then in it the column held by the
    fewest rows, which keeps fill-in low; units are the pivots of degree 0
    (Dumas, Saunders and Villard, JSC 2001).  Row
    operations clear the pivot column through the inverse of a unit, or else
    by Euclidean division once the pivot row is scaled to make the pivot
    primitive, which keeps coefficients tame.  A column left holding only
    the pivot lets column operations reduce the pivot row without touching
    any other row, and a pivot left alone splits off.  A remainder has less
    degree than every entry, so each round without a split lowers the least
    degree.
    `_invariant_chain` turns the diagonal into a divisibility chain.
    """
    rows = {i: dict(row) for i, row in enumerate(m._rows) if row}
    diagonal = []
    while rows:
        i = min(rows, key=lambda k: (min([e.degree for e in rows[k].values()]),
                                     len(rows[k]), k))
        pivot_row = rows[i]
        col = min(pivot_row, key=lambda j: (
            pivot_row[j].degree, sum(j in row for row in rows.values()), j))
        pivot = pivot_row.pop(col)
        scale, unit = _unit_quotient(pivot), pivot.is_unit
        if not unit:                          # a unit's row splits off at once
            pivot = scale * pivot
            rows[i] = pivot_row = {j: scale * e for j, e in pivot_row.items()}
        alone = True                          # the column holds only the pivot
        for k, row in [(k, row) for k, row in rows.items() if col in row]:
            entry = row.pop(col)
            q, r = (entry * scale, _ZERO) if unit else _poly_divmod(entry, pivot)
            if not r.is_zero:
                row[col] = r
                alone = False
            for j, e in pivot_row.items():
                value = row[j] - q * e if j in row else -(q * e)
                if value.is_zero:
                    del row[j]
                else:
                    row[j] = value
            if not row:
                del rows[k]
        if alone:
            for j, e in list(pivot_row.items()):
                r = _ZERO if unit else _poly_divmod(e, pivot)[1]
                if r.is_zero:
                    del pivot_row[j]
                else:
                    pivot_row[j] = r
            if not pivot_row:
                diagonal.append(pivot)
                del rows[i]
                continue
        pivot_row[col] = pivot
    return diagonal


def smith_normal_form(m: GammaMatrix) -> tuple[tuple[LaurentPoly, ...], int]:
    """Invariant factors of a presentation matrix, plus the rank.

    The factors include unit pivots and form a divisibility chain; the second
    value (the matrix rank, equal to the number of factors) is what the
    column count loses when passing to the cokernel's free rank.  One sparse
    Euclidean elimination (`_diagonalise`) splits off the diagonal, unit
    pivots first; each unit is a factor 1, and the gcd/lcm chain of the
    other entries gives the remaining factors.  A matrix with one row
    or one column skips the elimination: its one factor is the gcd of its
    entries, which stops at the first unit.

    >>> factors, rank = smith_normal_form(GammaMatrix([["t - 1", "1"], ["0", "t + 1"]]))
    >>> [str(f) for f in factors], rank
    (['1', 't^2 - 1'], 2)
    """
    if m.rows == 1 or m.cols == 1:    # one factor: the gcd of the entries
        entries = [e for row in m._rows for e in row.values()]
        if not entries:
            return (), 0
        g = entries[0]
        for e in entries[1:]:
            if g.is_unit:
                break
            g = gcd(g, e)
        return (normalize(g),), 1
    diagonal = _diagonalise(m)
    nonunits = [normalize(d) for d in diagonal if not d.is_unit]
    ones = (LaurentPoly.one(),) * (len(diagonal) - len(nonunits))
    return ones + tuple(_invariant_chain(nonunits)), len(diagonal)


def _invariant_chain(reps: list[LaurentPoly]) -> list[LaurentPoly]:
    """The invariant-factor chain of a diagonal, units first.

    Gamma/(a) + Gamma/(b) = Gamma/(gcd) + Gamma/(lcm), so pairing each
    slot with every later one leaves gcds in front of lcms: every prime's
    exponents end up sorted, which makes the slots a divisibility chain and
    puts the units in front.  A unit slot pairs to no change.

    >>> chain = _invariant_chain([normalize(p) for p in ("t^2 - 1", "t - 1", "t + 1")])
    >>> [str(c) for c in chain]
    ['1', 't^2 - 1', 't^2 - 1']
    """
    chain = list(reps)
    for i, a in enumerate(chain):
        if a.is_one:
            continue
        for j in range(i + 1, len(chain)):
            b = chain[j]
            g = gcd(a, b)
            chain[j] = a * exact_quotient(b, g)
            a = g
        chain[i] = a
    return chain


# -- canonical modules --------------------------------------------------------


class FgGammaModule(_Record):
    """A finitely generated module in canonical form.

    The canonical form is a free rank together with the invariant-factor
    chain of the torsion part; each factor is a nonunit primitive
    representative dividing the next.

    >>> FgGammaModule(0, ["t - 1", "t^2 - 1"])
    FgGammaModule(free=0, torsion=['t - 1', 't^2 - 1'])
    >>> FgGammaModule(0, ["t + 1", "t - 1"])
    Traceback (most recent call last):
        ...
    ValueError: torsion coefficients must form a divisibility chain
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Iterable[PolyLike] = ()):
        if _strict_int(free_rank, "a free rank") < 0:
            raise ValueError("free rank must be non-negative")
        chain = tuple(normalize(t) for t in torsion)
        for t in chain:
            if t.degree < 1:
                raise ValueError("torsion coefficients must be nonunits")
        for a, b in zip(chain, chain[1:]):
            if not divides(a, b):
                raise ValueError("torsion coefficients must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", chain)

    @classmethod
    def zero(cls) -> "FgGammaModule":
        return cls(0)

    @classmethod
    def free(cls, rank: int) -> "FgGammaModule":
        return cls(rank)

    @classmethod
    def cyclic(cls, order: PolyLike) -> "FgGammaModule":
        """Gamma/(order); the zero module when the order is a unit."""
        rep = normalize(order)
        return cls(0) if rep.is_one else cls(0, [rep])

    @classmethod
    def from_summands(cls, free_rank: int, orders: Iterable[PolyLike]) -> "FgGammaModule":
        """Canonicalize a direct sum of cyclic pieces and a free part: the
        gcd/lcm chain of the orders (`_invariant_chain`) without its units.

        >>> FgGammaModule.from_summands(1, ["t + 1", "t^2 - 1", "t - 1", "3"])
        FgGammaModule(free=1, torsion=['t^2 - 1', 't^2 - 1'])
        """
        chain = _invariant_chain([normalize(c) for c in orders])
        return cls(free_rank, [c for c in chain if not c.is_one])

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_torsion(self) -> bool:
        return self.free_rank == 0

    @property
    def rank(self) -> int:
        """Number of generators in the canonical presentation."""
        return self.free_rank + len(self.torsion)

    def direct_sum(self, other: "FgGammaModule") -> "FgGammaModule":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return FgGammaModule.from_summands(
            self.free_rank + other.free_rank,
            list(self.torsion) + list(other.torsion))

    def to_json(self) -> dict:
        return {"free": self.free_rank, "torsion": [str(t) for t in self.torsion]}

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"free^{self.free_rank}")
        parts.extend(f"({t})" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return (f"FgGammaModule(free={self.free_rank}, "
                f"torsion={[str(t) for t in self.torsion]!r})")


def order_polynomial(m: FgGammaModule) -> LaurentPoly:
    """Product of the torsion coefficients; 1 for the zero module.

    >>> order_polynomial(FgGammaModule(0, ["t - 1", "t^2 - 1"]))
    LaurentPoly('t^3 - t^2 - t + 1')
    """
    if m.free_rank:
        raise NotTorsion("order polynomial requires a torsion module")
    return math.prod(m.torsion, start=_ONE)


def _require_prime(prime: PolyLike,
                   degree_cap: int = DEFAULT_DEGREE_CAP) -> LaurentPoly:
    rep = normalize(prime)
    if rep.is_one or factor(rep, degree_cap) != ((rep, 1),):
        raise NotPrime(f"{rep} is not irreducible")
    return rep


def kunneth_summands(left: Sequence[FgGammaModule], right: Sequence[FgGammaModule],
                     split: int = 0) -> list[tuple[int, list, list]]:
    """The homology of a product: for each degree 0 .. len(left) +
    len(right) - 1, (free, low, high), its free rank and the nonunit orders
    of its cyclic summands split by right-hand degree below `split` and at
    or above it.  Gamma/(x) (x) Gamma/(y) and its Tor are both
    Gamma/(gcd(x, y)), so each pair of degrees (r, s) takes its gcds once,
    for degree r + s and for r + s + 1; a free summand tensored with
    Gamma/(x) is a copy of it.  r falls, so tensor terms come before Tor.

    >>> seq = [FgGammaModule.free(1), FgGammaModule.cyclic("t - 1")]
    >>> kunneth_summands(seq, seq, split=1)[1]
    (0, [LaurentPoly('t - 1')], [LaurentPoly('t - 1')])
    """
    size = len(left) + len(right)
    free = [0] * size
    parts = [([], []) for _ in range(size)]     # (low, high) per degree
    for s, b in enumerate(right):
        side = s >= split
        for r in reversed(range(len(left))):
            a = left[r]
            orders = parts[r + s][side]
            free[r + s] += a.free_rank * b.free_rank
            orders.extend(x for x in a.torsion for _ in range(b.free_rank))
            orders.extend(y for y in b.torsion for _ in range(a.free_rank))
            gcds = [g for x in a.torsion for y in b.torsion
                    if not (g := x if x == y else gcd(x, y)).is_one]
            orders.extend(gcds)
            parts[r + s + 1][side].extend(gcds)
    return [(f, low, high) for f, (low, high) in zip(free, parts)]
