"""The word algebra behind matrix-group symmetries of holonomy fields.

``H`` is the free *-algebra on n x n matrix generators ``u[i,j]`` and their
stars.  It carries a coproduct into the free product ``H ⊔ H`` (copies are
marked by an integer tag on each letter), a counit, an antipode, and a
conjugation coaction; together these make loop-reversal and gauge symmetry
algebraic identities rather than analytic facts.  Each map is a unital
*-homomorphism, so it is given by the image of each generator ``u[i,j]``.

Unitarity of the generator matrix is *not* imposed on words; it is applied
on demand by :meth:`ZhangAlgebra.unitarity_reduce`, which contracts the two
summed patterns ``sum_k u[i,k] u*[j,k]`` and ``sum_k u*[k,i] u[k,j]`` to
``delta_ij``.  :meth:`ZhangAlgebra.verify_axiom` checks the structural
identities exactly, reporting whether the reduction was needed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from ._ints import as_int

__all__ = ["Letter", "Element", "ZhangAlgebra", "AxiomReport", "AXIOM_NAMES", "verify_axiom"]

# One generator occurrence: matrix entry (i, j), starred or not, in the
# free-product copy labelled ``copy``.
Letter = namedtuple("Letter", ["i", "j", "star", "copy"])


class Element:
    """A finite linear combination of words in tagged generator letters."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in (terms or {}).items() if c != 0}

    @staticmethod
    def zero():
        return Element()

    @staticmethod
    def unit(coeff=1):
        return Element({(): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return Element(out)

    def __sub__(self, other):
        return self + Element({w: -c for w, c in other.terms.items()})

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return Element(out)

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def star(self):
        """Involution: reverse each word, star each letter, conjugate coefficients."""
        out = {}
        for w, c in self.terms.items():
            w2 = tuple(Letter(L.i, L.j, not L.star, L.copy) for L in reversed(w))
            out[w2] = out.get(w2, 0) + c.conjugate()
        return Element(out)

    def relabel(self, mapping):
        """Rename copy tags via ``mapping`` (tags not listed stay put)."""
        out = {}
        for w, c in self.terms.items():
            w2 = tuple(Letter(L.i, L.j, L.star, mapping.get(L.copy, L.copy)) for L in w)
            out[w2] = out.get(w2, 0) + c
        return Element(out)


def _extend(x, img, copy):
    """Apply a unital *-homomorphism to the letters tagged ``copy``; others stay put.

    ``img(i, j)`` yields the distinct words that sum to the image of ``u[i,j]``,
    and ``u*[i,j]`` maps to the star of that image.
    """
    out = Element.zero()
    for w, c in x.terms.items():
        prod = Element.unit(c)
        for L in w:
            words = img(L.i, L.j) if L.copy == copy else [(L._replace(star=False),)]
            image = Element(dict.fromkeys(words, 1))
            prod = prod * (image.star() if L.star else image)
        out = out + prod
    return out


@dataclass
class AxiomReport:
    """Outcome of one structural-identity check at a given matrix size."""

    name: str
    n: int
    holds: bool
    needs_unitarity: bool
    counterexample: str | None = None

    def line(self):
        status = "PASS" if self.holds else "FAIL"
        extra = " (after unitarity reduction)" if self.holds and self.needs_unitarity else ""
        bad = f" counterexample: {self.counterexample}" if self.counterexample else ""
        return f"{self.name} n={self.n}: {status}{extra}{bad}"


class ZhangAlgebra:
    """Structural maps of the n x n generator algebra.

    The axiom checks read each map through its method, so a subclass that
    overrides one map checks the identities of the maps it is given (the
    tests' negative controls break one map each this way).
    """

    def __init__(self, n):
        self.n = as_int(n, "matrix size must be an integer >= 1", 1)

    def generators(self):
        r = range(self.n)
        return (Letter(i, j, star, 1) for i in r for j in r for star in (False, True))

    # -- structural maps, each given by the image of u[i,j] ------------------

    def delta(self, x, src=1, left=1, right=2):
        """Coproduct on letters tagged ``src``; its two legs get tags ``left``/``right``."""

        def img(i, j):
            for k in range(self.n):
                yield Letter(i, k, False, left), Letter(k, j, False, right)

        return _extend(x, img, src)

    def antipode(self, x, copy=1):
        """Loop reversal: ``u[i,j] -> u*[j,i]`` letterwise, word order kept."""
        return _extend(x, lambda i, j: [(Letter(j, i, True, copy),)], copy)

    def counit(self, x, copy=1):
        """Evaluate the letters of one copy at the identity matrix."""
        return _extend(x, lambda i, j: [()] if i == j else [], copy)

    def omega_c(self, x, src=1, gauge=1, body=2):
        """Conjugation coaction ``u[i,j] -> sum_ab u[i,a] u[a,b] u*[j,b]``.

        Gauge letters (first and last) get tag ``gauge``; the middle
        holonomy letter gets tag ``body``.
        """

        def img(i, j):
            for a in range(self.n):
                for b in range(self.n):
                    yield (
                        Letter(i, a, False, gauge),
                        Letter(a, b, False, body),
                        Letter(j, b, True, gauge),
                    )

        return _extend(x, img, src)

    # -- unitarity ---------------------------------------------------------

    def unitarity_reduce(self, x):
        """Contract complete summed unitarity patterns until none remain.

        Two adjacent same-copy letters match ``u[i,k] u*[j,k]`` (row form) or
        ``u*[k,i] u[k,j]`` (column form); when all n values of k appear with
        one common coefficient, the family collapses to ``delta_ij`` times
        the shorter word.
        """
        terms = dict(x.terms)
        while (found := self._complete_family(terms)) is not None:
            family, rest, diagonal = found
            c = terms[family[0]]
            for w in family:
                del terms[w]
            if diagonal:
                terms[rest] = terms.get(rest, 0) + c
        return Element(terms)

    def _complete_family(self, terms):
        """The first complete family: its words, the shorter word, and whether i == j.

        Words are scanned in sorted order and their letter pairs left to right.
        """
        for word in sorted(w for w, c in terms.items() if c != 0):
            for p, (A, B) in enumerate(zip(word, word[1:])):
                row = not A.star and B.star and A.j == B.j  # u[i,k] u*[j,k]
                column = A.star and not B.star and A.i == B.i  # u*[k,i] u[k,j]
                if A.copy != B.copy or not (row or column):
                    continue
                if row:
                    pairs = [(A._replace(j=k), B._replace(j=k)) for k in range(self.n)]
                else:
                    pairs = [(A._replace(i=k), B._replace(i=k)) for k in range(self.n)]
                family = [word[:p] + pair + word[p + 2 :] for pair in pairs]
                if all(terms.get(w2, 0) == terms[word] for w2 in family):
                    return family, word[:p] + word[p + 2 :], (A.i == B.i if row else A.j == B.j)
        return None

    # -- axiom checks ------------------------------------------------------

    def verify_axiom(self, name):
        """Check one named structural identity on every generator.

        Exact differences are accepted as-is; otherwise the difference is
        unitarity-reduced and must vanish.  The report records which case
        occurred and a counterexample generator when the identity fails.
        """
        if name not in AXIOM_NAMES:
            raise ValueError(f"unknown axiom {name!r}; known: {', '.join(AXIOM_NAMES)}")
        needs = False
        for L in self.generators():
            lhs, rhs = self.axiom_sides(name, L)
            diff = lhs - rhs
            if diff.is_zero():
                continue
            reduced = self.unitarity_reduce(diff)
            if not reduced.is_zero():
                gen = f"u*[{L.i},{L.j}]" if L.star else f"u[{L.i},{L.j}]"
                surviving = f"{gen}: difference has {len(reduced.terms)} surviving terms"
                return AxiomReport(name, self.n, False, needs, counterexample=surviving)
            needs = True
        return AxiomReport(name, self.n, True, needs)

    def axiom_sides(self, name, L):
        """The two elements an axiom equates, with explicit copy routing."""
        maps = (self.delta, self.antipode, self.counit, self.omega_c)
        return _SIDES[name](*maps, Element({(L,): 1}))


# Each axiom's two sides as compositions of the coproduct d, the antipode s,
# the counit e and the coaction w on one generator x in copy 1.
_SIDES = {
    "coassoc": lambda d, s, e, w, x: (d(d(x).relabel({2: 3})), d(d(x), 2, 2, 3)),
    "counit_left": lambda d, s, e, w, x: (e(d(x)).relabel({2: 1}), x),
    "counit_right": lambda d, s, e, w, x: (e(d(x), 2), x),
    "antipode_left": lambda d, s, e, w, x: (s(d(x)).relabel({2: 1}), e(x)),
    "antipode_right": lambda d, s, e, w, x: (s(d(x), 2).relabel({2: 1}), e(x)),
    "antipode_anticomorphism": lambda d, s, e, w, x: (
        s(s(d(x)), 2).relabel({1: 2, 2: 1}),
        d(s(x)),
    ),
    "coaction_assoc": lambda d, s, e, w, x: (w(w(x), 2, 2, 3), d(w(x).relabel({2: 3}))),
    "coaction_counit": lambda d, s, e, w, x: (e(w(x)).relabel({2: 1}), x),
    "delta_comodule": lambda d, s, e, w, x: (w(w(d(x), 1, 0, 1), 2, 0, 2), d(w(x, 1, 0, 1))),
}
AXIOM_NAMES = tuple(_SIDES)


def verify_axiom(name, n):
    """Check axiom ``name`` at matrix size ``n`` on a fresh algebra."""
    return ZhangAlgebra(n).verify_axiom(name)
