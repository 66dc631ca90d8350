import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from ialex.laurent import LaurentPoly, normalize  # noqa: E402

# the sympy oracles in oracles.py import sympy on first use; import it once
# here, so that the 0.3 s import is not timed inside whichever hypothesis
# example happens to make that first call
import sympy  # noqa: E402,F401


def rationals(max_num=9, max_den=4):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def laurent_polys(max_span=5, min_terms=0, max_terms=5, max_coeff=9):
    """Sparse Laurent polynomials with small exponents and coefficients."""
    return st.dictionaries(
        st.integers(min_value=-max_span, max_value=max_span),
        rationals(max_num=max_coeff).filter(bool),
        min_size=min_terms,
        max_size=max_terms,
    ).map(LaurentPoly)


def nonzero_polys(max_span=5, max_terms=5, max_coeff=9):
    return laurent_polys(max_span, 1, max_terms, max_coeff)


def primitive_reps(max_degree=4, max_coeff=5):
    """Canonical representatives, built by normalizing random nonzero polys."""
    return nonzero_polys(max_span=max_degree, max_coeff=max_coeff).map(normalize)


def small_primes_st():
    """A few fixed irreducible representatives for building torsion data."""
    from ialex.laurent import parse

    fixed = ["t - 1", "t + 1", "t^2 + 1", "t^2 - t + 1", "t^2 + t + 1",
             "2*t - 1", "t^2 - t - 1", "t^2 + t - 1"]
    return st.sampled_from([normalize(parse(s)) for s in fixed])


def eisenstein_coeffs(constant, middle, lead):
    """A representative irreducible by Eisenstein's criterion at 2, from
    an odd constant/2, integer middle/2 and an odd leading coefficient."""
    return normalize(LaurentPoly(enumerate(
        [2 * constant, *(2 * c for c in middle), lead])))


def seeded_eisenstein(rng, degree, lead=1):
    """A seeded Eisenstein polynomial at 2 of the given degree."""
    return eisenstein_coeffs(rng.choice((-5, -3, -1, 1, 3, 5)),
                             [rng.randint(-3, 3) for _ in range(degree - 1)],
                             lead)


def prime_products(max_factors=3):
    """Products of a few small fixed primes, as representatives."""
    def multiply(primes):
        out = LaurentPoly.one()
        for p in primes:
            out = out * p
        return out

    return st.lists(small_primes_st(), min_size=1, max_size=max_factors).map(multiply)


def torsion_modules(max_summands=3, max_factors=2):
    """Canonical torsion modules built from random cyclic summands."""
    from ialex.gmodule import FgGammaModule

    return st.lists(
        prime_products(max_factors), min_size=0, max_size=max_summands,
    ).map(lambda orders: FgGammaModule.from_summands(0, orders))


def fg_modules(max_free=2, max_summands=3):
    from ialex.gmodule import FgGammaModule

    return st.tuples(
        st.integers(min_value=0, max_value=max_free),
        torsion_modules(max_summands),
    ).map(lambda t: FgGammaModule(t[0] + t[1].free_rank, t[1].torsion))


def diagonal_matrix(values):
    """The square matrix with the given diagonal."""
    from ialex.gmodule import GammaMatrix

    return GammaMatrix.from_rows([{i: v} for i, v in enumerate(values)],
                                 len(values))


def gamma_matrices(max_rows=3, max_cols=3, max_span=2, max_coeff=3):
    """Small dense matrices, entries of low span."""
    from ialex.gmodule import GammaMatrix

    entry = laurent_polys(max_span=max_span, max_terms=2, max_coeff=max_coeff)

    def build(shape):
        rows, cols = shape
        return st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        ).map(lambda grid: GammaMatrix(grid, cols=cols))

    return st.tuples(
        st.integers(min_value=0, max_value=max_rows),
        st.integers(min_value=0, max_value=max_cols),
    ).flatmap(build)


# -- singularity-data strategies ------------------------------------------------

# irreducibles that evaluate to +-1 at t = 1, usable at positive degrees
ALEX_POOL = [normalize(s) for s in
             ("t^2 - t + 1", "2*t - 1", "t^2 - t - 1", "t^2 + t - 1")]
MIXED_POOL = [normalize(s) for s in
              ("t - 1", "t + 1", "t^2 - t + 1", "2*t - 1")]


@st.composite
def pool_products(draw, pool=ALEX_POOL, max_factors=2):
    out = LaurentPoly.one()
    for _ in range(draw(st.integers(0, max_factors))):
        out = out * draw(st.sampled_from(pool))
    return out


@st.composite
def traditional_perversities(draw, max_codim=8):
    from ialex.engine import Perversity

    steps = draw(st.lists(st.integers(0, 1), min_size=max_codim - 2,
                          max_size=max_codim - 2))
    vals = [0]
    for s in steps:
        vals.append(vals[-1] + s)
    return Perversity(vals)


@st.composite
def disk_knot_data(draw, n=None):
    """Consistent subpolynomial data for a point singularity, anchored so the
    outputs satisfy the normalization clauses."""
    from ialex.engine import DiskKnotData

    one = LaurentPoly.one()
    if n is None:
        n = draw(st.integers(4, 7))
    top = n - 3
    a = [one] + [draw(pool_products()) for _ in range(1, top)] + [one]
    b = [normalize("t - 1")] + [draw(pool_products()) for _ in range(top)]
    c = [one] + [draw(pool_products()) for _ in range(top)]
    return DiskKnotData(n, a[: top + 1], b[: top + 1], c[: top + 1])


@st.composite
def torsion_from_pool(draw, pool, max_summands=2):
    from ialex.gmodule import FgGammaModule

    orders = []
    for _ in range(draw(st.integers(0, max_summands))):
        order = LaurentPoly.one()
        for _ in range(draw(st.integers(1, 2))):
            order = order * draw(st.sampled_from(pool))
        orders.append(order)
    return FgGammaModule.from_summands(0, orders)


def _draw_divisor(draw, rep):
    from ialex.laurent import factor

    out = LaurentPoly.one()
    for prime, mult in factor(rep):
        out = out * prime ** draw(st.integers(0, mult))
    return out


@st.composite
def product_inputs(draw, realizable=False):
    """Product-singularity inputs whose divisibility constraints hold by
    construction: the kernel polynomials are drawn as divisors of the windowed
    and full Kunneth orders.

    With realizable=True the link data is Alexander type above degree zero
    and the kernel parts absorb every t - 1 factor of the unwindowed orders,
    as geometric instances do.
    """
    from ialex.engine import ProductSingularityInput
    from ialex.gmodule import FgGammaModule, kunneth_order
    from ialex.laurent import exact_quotient, multiplicity

    t1 = normalize("t - 1")
    link_pool = ALEX_POOL if realizable else MIXED_POOL
    n = draw(st.integers(5, 7))
    k = draw(st.integers(2, n - 2))
    p = draw(traditional_perversities(max_codim=n))
    sigma_dim = n - k - 1

    sigma = []
    for r in range(sigma_dim + 1):
        free = draw(st.integers(0, 2))
        tors = (FgGammaModule.zero() if r == sigma_dim
                else draw(torsion_from_pool(MIXED_POOL)))
        sigma.append(FgGammaModule(free + tors.free_rank, tors.torsion))

    links = [FgGammaModule.cyclic("t - 1")]
    for s in range(1, k - 1):
        links.append(draw(torsion_from_pool(link_pool)))

    c = [draw(pool_products(pool=MIXED_POOL)) for _ in range(n - 1)]

    s_min = k - p(k + 1)
    a_high, a_full = [], []
    for i in range(n - 1):
        nu = kunneth_order(sigma, links, i)
        high = kunneth_order(sigma, links, i, s_min)
        low = exact_quotient(nu, high)
        ah = _draw_divisor(draw, high)
        al = _draw_divisor(draw, low)
        if realizable:
            al = al * t1 ** (multiplicity(t1, low) - multiplicity(t1, al))
        a_high.append(ah)
        a_full.append(ah * al)
    return ProductSingularityInput(n, k, p, sigma, links, c, a_high, a_full)
