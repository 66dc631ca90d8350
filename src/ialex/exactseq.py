"""Exact sequences of polynomials and of torsion modules.

An exact sequence of torsion modules bounded by zeros forces its order
polynomials Delta_i into a rigid pattern: consecutive entries share a
subpolynomial delta (Delta_i ~ delta_i * delta_{i+1}, with delta = 1 off both
ends), the alternating product of the Delta_i is a unit, and knowing every
Delta except a periodic third of them plus the junction deltas determines the
rest.  This module implements that calculus, and the companion operation of
splitting a sequence of actual modules into its p-primary restrictions.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from ialex.gmodule import (
    FgGammaModule,
    GammaMatrix,
    NotPrime,
    NotTorsion,
    _require_prime,
    order_polynomial,
)
from ialex.laurent import (
    DEFAULT_DEGREE_CAP,
    LaurentPoly,
    PolyLike,
    _poly_divmod,
    divides,
    exact_quotient,
    multiplicity,
    normalize,
)

__all__ = [
    "MissingSplitting",
    "ModuleSequence",
    "NonDividingSplitting",
    "NotExactCompatible",
    "PolySequence",
    "check_alternating_product",
    "solve_missing_third",
    "split_primary",
    "subpolynomials",
]


class NotExactCompatible(ValueError):
    """The polynomials cannot be the orders of a bounded exact sequence."""


class MissingSplitting(ValueError):
    """Reconstruction needs a junction subpolynomial that was not supplied."""


class NonDividingSplitting(ValueError):
    """A supplied or derived subpolynomial fails to divide its sequence entry."""


class PolySequence:
    """Order polynomials of a bounded exact sequence, with optional deltas.

    The splittings, when present, interleave the polynomials: entry i of the
    sequence factors as splittings[i] * splittings[i+1], and both end
    splittings are 1 (the sequence is zero-bounded).

    >>> PolySequence(["t - 1", "t^2 - 1", "t + 1"], ["1", "t - 1", "t + 1", "1"])
    PolySequence(['t - 1', 't^2 - 1', 't + 1'], splittings=['1', 't - 1', 't + 1', '1'])
    """

    __slots__ = ("polys", "splittings")

    def __init__(self, polys: Iterable[PolyLike],
                 splittings: Optional[Iterable[PolyLike]] = None):
        ps = tuple(normalize(p) for p in polys)
        ds = None
        if splittings is not None:
            ds = tuple(normalize(d) for d in splittings)
            if len(ds) != len(ps) + 1:
                raise ValueError("need exactly one splitting per junction")
            if not ds[0].is_one or not ds[-1].is_one:
                raise ValueError("boundary splittings must be 1")
            for i, p in enumerate(ps):
                if ds[i] * ds[i + 1] != p:
                    raise ValueError(
                        f"entry {i} does not factor as its adjacent splittings")
        object.__setattr__(self, "polys", ps)
        object.__setattr__(self, "splittings", ds)

    def __setattr__(self, name, value):
        raise AttributeError("PolySequence is immutable")

    def __len__(self) -> int:
        return len(self.polys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySequence):
            return NotImplemented
        return (self.polys, self.splittings) == (other.polys, other.splittings)

    def __hash__(self) -> int:
        return hash((self.polys, self.splittings))

    def __repr__(self) -> str:
        inner = [str(p) for p in self.polys]
        if self.splittings is None:
            return f"PolySequence({inner!r})"
        return (f"PolySequence({inner!r}, "
                f"splittings={[str(d) for d in self.splittings]!r})")


def check_alternating_product(polys: Sequence[PolyLike]) -> bool:
    """Whether the alternating product of the entries is a unit.

    For the orders of a bounded exact sequence the product over odd positions
    equals the product over even positions up to a unit; as canonical
    representatives the two products are simply equal.

    >>> check_alternating_product(["t - 1", "t^2 - 1", "t + 1"])
    True
    >>> check_alternating_product(["t - 1", "t + 1"])
    False
    """
    if not polys:
        raise ValueError("empty sequence")
    even = odd = LaurentPoly.one()
    for i, p in enumerate(polys):
        if i % 2 == 0:
            even = even * normalize(p)
        else:
            odd = odd * normalize(p)
    return even == odd


def subpolynomials(polys: Sequence[PolyLike]) -> tuple[LaurentPoly, ...]:
    """Recover the deltas by dividing in from the left end.

    delta_0 = 1 and delta_{i+1} = Delta_i / delta_i; the run must close with
    a final delta of 1, otherwise no bounded exact sequence has these orders.

    >>> [str(d) for d in subpolynomials(["t - 1", "t^2 - 1", "t + 1"])]
    ['1', 't - 1', 't + 1', '1']
    >>> subpolynomials(["t - 1", "t + 1"])
    Traceback (most recent call last):
        ...
    ialex.exactseq.NotExactCompatible: entry 1 is not divisible by its left delta
    """
    deltas = [LaurentPoly.one()]
    for i, p in enumerate(polys):
        rep = normalize(p)
        if not divides(deltas[-1], rep):
            raise NotExactCompatible(
                f"entry {i} is not divisible by its left delta")
        deltas.append(exact_quotient(rep, deltas[-1]))
    if not deltas[-1].is_one:
        raise NotExactCompatible(
            f"sequence does not close: final delta is {deltas[-1]}")
    return tuple(deltas)


def solve_missing_third(
    entries: Sequence[Optional[PolyLike]],
    junctions: Mapping[int, PolyLike] | None = None,
) -> PolySequence:
    """Fill unknown entries (every third position) from the junction deltas.

    ``entries`` contains polynomials with ``None`` at the unknown slots;
    unknown slots must be congruent to one another mod 3.  ``junctions`` maps
    delta indices (0..len(entries)) to known subpolynomials; both boundary
    deltas default to 1 when not supplied.  Deltas propagate through known
    entries (the missing delta next to a known one is the exact quotient),
    after which each unknown entry is the product of its two flanking deltas.

    >>> seq = solve_missing_third(["t^2 - 1", "t^2 + 3*t + 2", None], {0: "t - 1"})
    >>> [str(p) for p in seq.polys]
    ['t^2 - 1', 't^2 + 3*t + 2', 't + 2']
    """
    junctions = dict(junctions or {})
    polys: list[Optional[LaurentPoly]] = [
        None if p is None else normalize(p) for p in entries]
    if not polys:
        raise ValueError("empty sequence")
    unknown = [i for i, p in enumerate(polys) if p is None]
    if len({i % 3 for i in unknown}) > 1:
        raise ValueError("unknown positions must be congruent mod 3")

    n = len(polys)
    deltas: list[Optional[LaurentPoly]] = [None] * (n + 1)
    deltas[0] = LaurentPoly.one()
    deltas[n] = LaurentPoly.one()
    for idx, value in junctions.items():
        if not 0 <= idx <= n:
            raise ValueError(f"junction index {idx} out of range")
        deltas[idx] = normalize(value)

    def quotient(entry: LaurentPoly, delta: LaurentPoly, where: int) -> LaurentPoly:
        if not divides(delta, entry):
            raise NonDividingSplitting(
                f"delta {delta} does not divide entry {where} ({entry})")
        return exact_quotient(entry, delta)

    changed = True
    while changed:
        changed = False
        for i, p in enumerate(polys):
            if p is None:
                continue
            left, right = deltas[i], deltas[i + 1]
            if left is not None and right is None:
                deltas[i + 1] = quotient(p, left, i)
                changed = True
            elif right is not None and left is None:
                deltas[i] = quotient(p, right, i)
                changed = True
            elif left is not None and right is not None:
                if left * right != p:
                    raise NonDividingSplitting(
                        f"entry {i} ({p}) is not the product of its deltas "
                        f"{left} and {right}")

    for i in unknown:
        left, right = deltas[i], deltas[i + 1]
        if left is None or right is None:
            raise MissingSplitting(
                f"cannot determine entry {i}: flanking deltas unknown")
        polys[i] = left * right

    filled = [p for p in polys if p is not None]
    if len(filled) != n:
        raise RuntimeError(f"completion filled {len(filled)} of {n} entries")
    # the alternating product test applies to zero-bounded sequences; a
    # window cut out of a longer sequence has non-unit boundary deltas and
    # legitimately fails it
    if deltas[0].is_one and deltas[n].is_one:
        if not check_alternating_product(filled):
            raise NonDividingSplitting(
                "completed sequence fails the alternating product test")
        if all(d is not None for d in deltas):
            return PolySequence(filled, deltas)
    return PolySequence(filled)


# -- module sequences ----------------------------------------------------------


class ModuleSequence:
    """A zero-bounded sequence of torsion modules with presented maps.

    Map i sends module i to module i+1; its matrix has one row per generator
    of the source (the canonical invariant-factor generators) and one column
    per generator of the target.  Construction checks that shapes compose,
    that each map respects the relations, and that adjacent maps compose to
    zero in the target module.
    """

    __slots__ = ("modules", "maps")

    def __init__(self, modules: Iterable[FgGammaModule],
                 maps: Iterable[GammaMatrix]):
        mods = tuple(modules)
        mats = tuple(maps)
        for m in mods:
            if not m.is_torsion:
                raise NotTorsion("module sequences must consist of torsion modules")
        if len(mats) != max(len(mods) - 1, 0):
            raise ValueError("need exactly one map between consecutive modules")
        for i, t in enumerate(mats):
            src, dst = mods[i], mods[i + 1]
            if t.rows != src.rank or t.cols != dst.rank:
                raise ValueError(
                    f"map {i} has shape {t.rows}x{t.cols}, expected "
                    f"{src.rank}x{dst.rank}")
            for j, cj in enumerate(src.torsion):
                for l, dl in enumerate(dst.torsion):
                    if not divides(dl, cj * t.entry(j, l)):
                        raise ValueError(
                            f"map {i} does not respect relation {j} of its source")
        for i in range(len(mats) - 1):
            comp = mats[i] * mats[i + 1]
            target = mods[i + 2]
            for r in range(comp.rows):
                for l, dl in enumerate(target.torsion):
                    if not divides(dl, comp.entry(r, l)):
                        raise ValueError(
                            f"maps {i} and {i + 1} do not compose to zero")
        object.__setattr__(self, "modules", mods)
        object.__setattr__(self, "maps", mats)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleSequence is immutable")

    def __len__(self) -> int:
        return len(self.modules)

    def order_polynomials(self) -> tuple[LaurentPoly, ...]:
        return tuple(order_polynomial(m) for m in self.modules)

    def __repr__(self) -> str:
        return f"ModuleSequence({list(self.modules)!r})"


def split_primary(seq: ModuleSequence, prime: PolyLike,
                  degree_cap: int = DEFAULT_DEGREE_CAP) -> ModuleSequence:
    """Restrict a module sequence to the p-primary summands.

    Each module splits off the summand supported at the prime; the restricted
    maps are the original matrices on the surviving generators (maps between
    coprime primary parts vanish), with entries reduced mod the target order.

    >>> from ialex.gmodule import FgGammaModule, GammaMatrix
    >>> seq = ModuleSequence(
    ...     [FgGammaModule.cyclic("t - 1"),
    ...      FgGammaModule.cyclic("t^2 - 1"),
    ...      FgGammaModule.cyclic("t + 1")],
    ...     [GammaMatrix([["t + 1"]]), GammaMatrix([["1"]])])
    >>> [m.to_json()["torsion"] for m in split_primary(seq, "t - 1").modules]
    [['t - 1'], ['t - 1'], []]
    """
    rep = _require_prime(prime, degree_cap)
    kept_indices: list[list[int]] = []
    components: list[FgGammaModule] = []
    for m in seq.modules:
        powers = []
        kept = []
        for j, c in enumerate(m.torsion):
            e = multiplicity(rep, c)
            if e:
                kept.append(j)
                powers.append(rep**e)
        kept_indices.append(kept)
        components.append(FgGammaModule(0, powers))
    new_maps = []
    for i, t in enumerate(seq.maps):
        rows, cols = kept_indices[i], kept_indices[i + 1]
        target = components[i + 1]
        grid = [[_poly_divmod(t.entry(r, c), target.torsion[l])[1]
                 for l, c in enumerate(cols)] for r in rows]
        new_maps.append(GammaMatrix(grid, cols=len(cols)))
    return ModuleSequence(components, new_maps)
