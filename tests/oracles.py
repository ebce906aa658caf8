"""Oracles and negative controls that only the tests read.

* The noncrossing-partition sum: :func:`enumerate_nc` lists the partitions,
  :func:`moments_from_cumulants` sums products of cumulants over them, and
  :func:`cumulants_from_moments` inverts it with the package's own
  first-block walk, which the round trips check against the sum.
* The semicircle state and the exact cumulant check of a semicircular
  variable under free conjugation by a Haar unitary (criterion 6).
* :func:`fubm_polynomial`, Biane's p_k as exact rationals, which the
  hierarchy oracle in ``test_levy.py`` checks coefficient by coefficient.
* Zhang algebras with one structural map deliberately broken:
  :func:`zhang_algebra` builds one and :func:`verify_axiom` checks an axiom
  on it, so the negative controls can show that the axiom checks fail.
"""

from fractions import Fraction
from math import comb, factorial

from masterfield._ints import as_int
from masterfield.freeprob import State, haar_unitary_state, product_state
from masterfield.levy import _numerators
from masterfield.ncalg import Letter, ZhangAlgebra, _extend

NC_MAX = 12


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def enumerate_nc(k):
    """All noncrossing partitions of ``{0..k-1}`` (blocks sorted by minimum).

    The first element stands alone or joins the block of its next block
    member ``elems[i]``; the elements between the two are partitioned apart.
    """
    k = as_int(k, f"noncrossing enumeration supports 0 <= k <= {NC_MAX}", 0, NC_MAX)

    def rec(elems):
        if not elems:
            return [()]
        first = elems[0]
        out = [((first,),) + p for p in rec(elems[1:])]
        for i in range(1, len(elems)):
            inner = rec(elems[1:i])
            for q in rec(elems[i:]):
                head = ((first,) + q[0],)
                out += [head + p + q[1:] for p in inner]
        return out

    return rec(tuple(range(k)))


def moments_from_cumulants(word, cumulants):
    """Sum over noncrossing partitions of products of cumulants of subwords."""
    word = tuple(word)
    total = 0
    for pi in enumerate_nc(len(word)):
        prod = 1
        for block in pi:
            prod *= cumulants(tuple(word[i] for i in block))
            if prod == 0:
                break
        total += prod
    return total


def cumulants_from_moments(word, moments):
    """Invert the moment formula: the free cumulant of the letters of ``word``.

    ``moments`` maps a subword (a tuple of letters) to its moment; the
    cumulant is :meth:`State.joint_cumulant` of the letters taken one by one.
    """
    state = State(moments, tracial=False)
    return state.joint_cumulant(tuple((x,) for x in word))


def semicircle_state():
    """Standard semicircular element: symbol ``"s"``, Catalan even moments."""

    def mom(word):
        if any(s != "s" for s in word):
            raise ValueError("semicircle words use the single symbol 's'")
        n = len(word)
        return catalan(n // 2) if n % 2 == 0 else 0

    return State(mom, name="semicircle", tracial=True)


class ConjugationCumulantReport:
    """Cumulants of a variable before and after free unitary conjugation."""

    def __init__(self, order, original, conjugated):
        self.order = order
        self.original = original
        self.conjugated = conjugated

    @property
    def equal(self):
        return self.original == self.conjugated


def joint_cumulants_check_conjugation(order=6):
    """Cumulants of ``v w v*`` versus ``w`` for ``v`` Haar, ``w`` semicircular, free.

    Everything is exact rational arithmetic: moments of the conjugated
    variable come from the free product of the Haar and semicircle states,
    and both cumulant tables are produced by the same transform.
    """
    order = as_int(order, f"order must be between 1 and {NC_MAX}", 1, NC_MAX)
    v = haar_unitary_state()
    w = semicircle_state()
    ps = product_state([v, w], "free")
    one = Fraction(1)

    def cumulants(moment):
        words = [("w",) * m for m in range(1, order + 1)]
        return {
            u: cumulants_from_moments(u, lambda x: one * moment(len(x))) for u in words
        }

    conj = cumulants(lambda m: ps.moment(((0, 1), (1, "s"), (0, -1)) * m))
    orig = cumulants(lambda m: w.moment(("s",) * m))
    return ConjugationCumulantReport(order, orig, conj)


def fubm_polynomial(k):
    """Coefficients (constant first) of ``p_k``, exact rationals."""
    k = as_int(k, "moment order must be an integer")
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    return tuple(Fraction(a, factorial(k)) for a in _numerators(k))


class _DeltaFlip(ZhangAlgebra):
    """Misplaces the summation index in the coproduct."""

    def delta(self, x, src=1, left=1, right=2):
        def img(i, j):
            for k in range(self.n):
                yield Letter(i, k, False, left), Letter(j, k, False, right)

        return _extend(x, img, src)


class _AntipodeNoStar(ZhangAlgebra):
    """Drops the star from the antipode."""

    def antipode(self, x, copy=1):
        return _extend(x, lambda i, j: [(Letter(j, i, False, copy),)], copy)


class _CounitOnes(ZhangAlgebra):
    """Sends every generator to 1 under the counit."""

    def counit(self, x, copy=1):
        return _extend(x, lambda i, j: [()], copy)


class _OmegaSwapTags(ZhangAlgebra):
    """Swaps the gauge and body copies of the coaction."""

    def omega_c(self, x, src=1, gauge=1, body=2):
        return super().omega_c(x, src, body, gauge)


_ALGEBRAS = {
    None: ZhangAlgebra,
    "delta_flip": _DeltaFlip,
    "antipode_no_star": _AntipodeNoStar,
    "counit_ones": _CounitOnes,
    "omega_swap_tags": _OmegaSwapTags,
}


def zhang_algebra(n, corrupt=None):
    """The algebra at matrix size ``n``, with the map ``corrupt`` names broken."""
    if corrupt not in _ALGEBRAS:
        raise ValueError(f"unknown corruption {corrupt!r}")
    return _ALGEBRAS[corrupt](n)


def verify_axiom(name, n, corrupt=None):
    """Check axiom ``name`` at matrix size ``n`` on a fresh, optionally corrupted algebra."""
    return zhang_algebra(n, corrupt).verify_axiom(name)
