"""The word algebra behind matrix-group symmetries of holonomy fields.

``H`` is the free *-algebra on n x n matrix generators ``u[i,j]`` and their
stars.  It carries a coproduct into the free product ``H ⊔ H`` (copies are
marked by an integer tag on each letter), a counit, an antipode, and a
conjugation coaction; together these make loop-reversal and gauge symmetry
algebraic identities rather than analytic facts.

Unitarity of the generator matrix is *not* imposed on words; it is applied
on demand by :meth:`ZhangAlgebra.unitarity_reduce`, which contracts the two
summed patterns ``sum_k u[i,k] u*[j,k]`` and ``sum_k u*[k,i] u[k,j]`` to
``delta_ij``.  :meth:`ZhangAlgebra.verify_axiom` checks the structural
identities exactly, reporting whether the reduction was needed.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

__all__ = [
    "Letter",
    "Element",
    "ZhangAlgebra",
    "AxiomReport",
    "AXIOM_NAMES",
    "verify_axiom",
]

# One generator occurrence: matrix entry (i, j), starred or not, in the
# free-product copy labelled ``copy``.
Letter = namedtuple("Letter", ["i", "j", "star", "copy"])


def _conj(c):
    return c.conjugate() if isinstance(c, complex) else c


class Element:
    """A finite linear combination of words in tagged generator letters."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for word, c in terms.items():
                if c != 0:
                    self.terms[word] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return Element()

    @staticmethod
    def unit(coeff=1):
        return Element({(): coeff})

    @staticmethod
    def letter(L, coeff=1):
        return Element({(L,): coeff})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return Element(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        return Element({w: scalar * c for w, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Element):
            return Element({w: c * other for w, c in self.terms.items()})
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return Element(out)

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def star(self):
        """Involution: reverse each word, star each letter, conjugate coefficients."""
        out = {}
        for w, c in self.terms.items():
            w2 = tuple(Letter(L.i, L.j, not L.star, L.copy) for L in reversed(w))
            out[w2] = out.get(w2, 0) + _conj(c)
        return Element(out)

    def relabel(self, mapping):
        """Rename copy tags via ``mapping`` (tags not listed stay put)."""
        out = {}
        for w, c in self.terms.items():
            w2 = tuple(
                Letter(L.i, L.j, L.star, mapping.get(L.copy, L.copy)) for L in w
            )
            out[w2] = out.get(w2, 0) + c
        return Element(out)

    def __repr__(self):
        if self.is_zero():
            return "Element(0)"
        return f"Element({len(self.terms)} terms)"


def _extend(x, img):
    """Algebra-morphism extension: replace letters by ``img(letter)``, in order."""
    out = Element.zero()
    for w, c in x.terms.items():
        prod = Element.unit(c)
        for L in w:
            prod = prod * img(L)
        out = out + prod
    return out


AXIOM_NAMES = (
    "coassoc",
    "counit_left",
    "counit_right",
    "antipode_left",
    "antipode_right",
    "antipode_anticomorphism",
    "coaction_assoc",
    "coaction_counit",
    "delta_comodule",
)


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
    """Structural maps of the n x n generator algebra, with optional sabotage.

    ``corrupt`` deliberately breaks one map (used by the negative-control
    tests): ``"delta_flip"`` misplaces the summation index in the coproduct,
    ``"antipode_no_star"`` drops the star from the antipode,
    ``"counit_ones"`` sends every generator to 1, and ``"omega_swap_tags"``
    swaps the gauge and body copies of the coaction.
    """

    def __init__(self, n, corrupt=None):
        if n < 1:
            raise ValueError("matrix size must be >= 1")
        known = (None, "delta_flip", "antipode_no_star", "counit_ones", "omega_swap_tags")
        if corrupt not in known:
            raise ValueError(f"unknown corruption {corrupt!r}")
        self.n = n
        self.corrupt = corrupt

    # -- generators --------------------------------------------------------

    def generators(self):
        for i in range(self.n):
            for j in range(self.n):
                for star in (False, True):
                    yield Letter(i, j, star, 1)

    # -- structural maps ---------------------------------------------------

    def _delta_letter(self, L, left, right):
        n = self.n
        out = Element.zero()
        for k in range(n):
            if self.corrupt == "delta_flip":
                pair = (Letter(L.i, k, False, left), Letter(L.j, k, False, right))
            else:
                pair = (Letter(L.i, k, False, left), Letter(k, L.j, False, right))
            out = out + Element({pair: 1})
        if L.star:
            out = out.star()
        return out

    def delta(self, x, src=1, left=1, right=2):
        """Coproduct on letters tagged ``src``; its two legs get tags ``left``/``right``."""

        def img(L):
            if L.copy != src:
                return Element.letter(L)
            return self._delta_letter(L, left, right)

        return _extend(x, img)

    def antipode(self, x, only_copy=None):
        """Loop reversal: ``u[i,j] -> u*[j,i]`` letterwise, word order kept."""

        def img(L):
            if only_copy is not None and L.copy != only_copy:
                return Element.letter(L)
            if self.corrupt == "antipode_no_star":
                return Element.letter(Letter(L.j, L.i, L.star, L.copy))
            return Element.letter(Letter(L.j, L.i, not L.star, L.copy))

        return _extend(x, img)

    def counit(self, x, only_copy=None):
        """Evaluate letters (of one copy, or all) at the identity matrix."""

        def img(L):
            if only_copy is not None and L.copy != only_copy:
                return Element.letter(L)
            if self.corrupt == "counit_ones":
                return Element.unit(1)
            return Element.unit(1 if L.i == L.j else 0)

        return _extend(x, img)

    def omega_c(self, x, src=1, gauge=1, body=2):
        """Conjugation coaction ``u[i,j] -> sum_ab u[i,a] u[a,b] u*[j,b]``.

        Gauge letters (first and last) get tag ``gauge``; the middle
        holonomy letter gets tag ``body``.
        """
        if self.corrupt == "omega_swap_tags":
            gauge, body = body, gauge
        n = self.n

        def img(L):
            if L.copy != src:
                return Element.letter(L)
            out = Element.zero()
            for a in range(n):
                for b in range(n):
                    word = (
                        Letter(L.i, a, False, gauge),
                        Letter(a, b, False, body),
                        Letter(L.j, b, True, gauge),
                    )
                    out = out + Element({word: 1})
            if L.star:
                out = out.star()
            return out

        return _extend(x, img)

    # -- unitarity ---------------------------------------------------------

    def unitarity_reduce(self, x):
        """Contract complete summed unitarity patterns until none remain.

        Two adjacent same-copy letters match ``u[i,k] u*[j,k]`` (row form) or
        ``u*[k,i] u[k,j]`` (column form); when all n values of k appear with
        one common coefficient, the family collapses to ``delta_ij`` times
        the shorter word.
        """
        n = self.n
        terms = dict(x.terms)
        changed = True
        while changed:
            changed = False
            for word in sorted(terms):
                c = terms.get(word, 0)
                if c == 0:
                    continue
                for p in range(len(word) - 1):
                    A, B = word[p], word[p + 1]
                    if A.copy != B.copy:
                        continue
                    if not A.star and B.star and A.j == B.j:
                        i, j = A.i, B.i
                        family = [
                            word[:p]
                            + (Letter(i, k, False, A.copy), Letter(j, k, True, A.copy))
                            + word[p + 2 :]
                            for k in range(n)
                        ]
                    elif A.star and not B.star and A.i == B.i:
                        i, j = A.j, B.j
                        family = [
                            word[:p]
                            + (Letter(k, i, True, A.copy), Letter(k, j, False, A.copy))
                            + word[p + 2 :]
                            for k in range(n)
                        ]
                    else:
                        continue
                    if all(terms.get(w2, 0) == c for w2 in family):
                        for w2 in family:
                            del terms[w2]
                        if i == j:
                            rest = word[:p] + word[p + 2 :]
                            terms[rest] = terms.get(rest, 0) + c
                            if terms[rest] == 0:
                                del terms[rest]
                        changed = True
                        break
                if changed:
                    break
        return Element(terms)

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
            if reduced.is_zero():
                needs = True
                continue
            gen = f"u*[{L.i},{L.j}]" if L.star else f"u[{L.i},{L.j}]"
            return AxiomReport(
                name,
                self.n,
                False,
                needs,
                counterexample=f"{gen}: difference has {len(reduced.terms)} surviving terms",
            )
        return AxiomReport(name, self.n, True, needs)

    def axiom_sides(self, name, L):
        """The two elements an axiom equates, with explicit copy routing."""
        x = Element.letter(L)
        if name == "coassoc":
            lhs = self.delta(self.delta(x, 1, 1, 2).relabel({2: 3}), 1, 1, 2)
            rhs = self.delta(self.delta(x, 1, 1, 2), 2, 2, 3)
            return lhs, rhs
        if name == "counit_left":
            lhs = self.counit(self.delta(x, 1, 1, 2), only_copy=1).relabel({2: 1})
            return lhs, x
        if name == "counit_right":
            lhs = self.counit(self.delta(x, 1, 1, 2), only_copy=2)
            return lhs, x
        if name == "antipode_left":
            lhs = self.antipode(self.delta(x, 1, 1, 2), only_copy=1).relabel({2: 1})
            return lhs, self.counit(x)
        if name == "antipode_right":
            lhs = self.antipode(self.delta(x, 1, 1, 2), only_copy=2).relabel({2: 1})
            return lhs, self.counit(x)
        if name == "antipode_anticomorphism":
            lhs = self.antipode(self.delta(x, 1, 1, 2)).relabel({1: 2, 2: 1})
            rhs = self.delta(self.antipode(x), 1, 1, 2)
            return lhs, rhs
        if name == "coaction_assoc":
            lhs = self.omega_c(self.omega_c(x, 1, 1, 2), src=2, gauge=2, body=3)
            rhs = self.delta(self.omega_c(x, 1, 1, 2).relabel({2: 3}), 1, 1, 2)
            return lhs, rhs
        if name == "coaction_counit":
            lhs = self.counit(self.omega_c(x, 1, 1, 2), only_copy=1).relabel({2: 1})
            return lhs, x
        if name == "delta_comodule":
            lhs = self.omega_c(
                self.omega_c(self.delta(x, 1, 1, 2), src=1, gauge=0, body=1),
                src=2,
                gauge=0,
                body=2,
            )
            rhs = self.delta(self.omega_c(x, 1, 0, 1), src=1, left=1, right=2)
            return lhs, rhs
        raise AssertionError(name)


# -- module-level entry point (one stateless algebra per call) ------------


def verify_axiom(name, n, corrupt=None):
    return ZhangAlgebra(n, corrupt=corrupt).verify_axiom(name)
