"""States, their free cumulants, and products of states.

A *state* here is a unital linear functional given by its moments on words
over an opaque symbol alphabet.  Families of states are combined into a
state on words of ``(factor, symbol)`` letters by one of three products:

* ``tensor``  - factors commute; a moment is the product of the marginal
  moments of the per-factor subwords (order kept within each factor);
* ``boolean`` - a moment factorises across maximal same-factor runs;
* ``free``    - defined by the centering recursion: alternating products of
  mean-zero blocks have zero expectation.

The free product is computed by the first-block expansion through
noncrossing cumulants; the test suite keeps the centering recursion and
the sum over noncrossing partitions (``tests/oracles.py``) as its oracles.
The expansion writes the moment of a word as a sum over chains
``i = v0 < v1 < ...`` of same-factor blocks: the factor's joint cumulant of
the chain's blocks times the moments of the gaps between them and of the
tail after the last.  One walk, :func:`_first_block`, sums it for the free
product's moments and for every state's joint cumulants, which solve the
same identity for the chain of all the words.  It goes depth first over
the chains, each carrying the running product of its gap moments, so a
chain costs one multiplication more than its parent and a zero gap prunes
all its extensions.  A state gives the walk two things: a key for a word
(:meth:`State._key`), on which its cumulants depend and by which they are
memoised, and a gap function of a tuple of keys (:meth:`State._gaps`), the
moment of the words strictly between two positions, from which the walk
alone builds its rows.  A general state keys a word by itself and takes
the moment of the concatenated words.  The cumulants of a trace do not
change when their arguments are rotated cyclically (the rotation maps NC(r)
onto itself and fixes 1_r), so a state built with ``tracial=True`` solves
one tuple per rotation class, its least rotation, and memoises the value
under every rotation asked for; a state that is not tracial (the default)
has no such symmetry, and solves every tuple itself.  A marginal of one
unitary (the face states of :mod:`masterfield.levy` and the Haar unitary)
keys a word by its net power and reads its gaps by prefix sums into one
table indexed by |net power|, filled as far as a call needs.  The free
product's gaps are its subword moments, memoised on the product state by
the subword's blocks, so a subword that recurs at other positions of a
periodic word, or at another power of the same loop, is computed once.
"""

from __future__ import annotations

from itertools import accumulate

__all__ = ["State", "haar_unitary_state", "product_state", "ProductState"]


class State:
    """A unital linear functional given by moments of words over symbols."""

    def __init__(self, moment_fn, name="state", tracial=False):
        self._moment_fn = moment_fn
        self.name = name
        self.tracial = tracial
        self._moments = {}
        self._cumulants = {}

    def moment(self, word):
        word = tuple(word)
        if not word:
            return 1
        if word not in self._moments:
            self._moments[word] = self._moment_fn(word)
        return self._moments[word]

    def joint_cumulant(self, words):
        """Free cumulant of a tuple of this state's own words (memoised)."""
        if not words:
            raise ValueError("cumulant of the empty word is undefined")
        return self._cumulant(tuple(map(self._key, words)))

    def _cumulant(self, keys):
        """The free cumulant of the words with these keys (memoised).

        A tracial state solves the least rotation of ``keys`` and stores the
        value under it and under ``keys``, so every rotation reads one value.
        """
        memo = self._cumulants
        val = memo.get(keys)
        if val is None:
            least = min(keys[i:] + keys[:i] for i in range(len(keys))) if self.tracial else keys
            val = memo.get(least)
            if val is None:
                between = self._gaps(least)
                whole = between(-1, len(least))
                val = memo[least] = _first_block(self, least, between, whole, solve=True)
            memo[keys] = val
        return val

    def _key(self, word):
        """What the cumulants of a word depend on: here the word itself."""
        return tuple(word)

    def _gaps(self, words):
        """``between(v, w)``: the moment of the words strictly between positions
        v and w, with -1 for the start and ``len(words)`` for the end."""
        return lambda v, w: self.moment(sum(words[v + 1 : w], ()))

    def __repr__(self):
        return f"State({self.name})"


def _first_block(state, keys, between, val, solve=False):
    """Add to ``val`` the first-block terms of ``state`` over ``keys``.

    A term is a chain ``0 = v0 < v1 < ... < vr`` of positions in ``keys``:
    the state's cumulant of the chain's keys, times the gap moments between
    consecutive members, times the tail moment after ``vr``.  Both come from
    ``between(v, w)``, the moment strictly between positions v and w, the
    tail with ``w = len(keys)``.  Each position's row, its tail and an entry
    ``(w, (keys[w],), gap)`` per nonzero gap, is built once, up front.  The
    chains are walked depth first, each carrying the product of its gaps,
    and a zero tail skips a term.  With ``solve``, ``val`` is the moment of
    all the keys, the chain of every position is left out and the terms are
    subtracted: the result is the cumulant of all the keys.
    """
    n = len(keys)
    rows = [
        (between(v, n), [(w, (keys[w],), g) for w in range(v + 1, n) if (g := between(v, w))])
        for v in range(n)
    ]
    memo = state._cumulants
    full = n if solve else -1
    stack = [(0, (keys[0],), 1)]
    pop, push = stack.pop, stack.append
    while stack:
        v, chain, prod = pop()
        tail, gaps = rows[v]
        if tail and len(chain) != full:
            kap = memo.get(chain)
            if kap is None:
                kap = state._cumulant(chain)
            term = kap * prod * tail
            val = val - term if solve else val + term
        for w, key, g in gaps:
            push((w, chain + key, prod * g))
    return val


class _UnitaryState(State):
    """A tracial state on words over the exponents +-1 of one unitary.

    A word's moment depends only on its net power n; ``moment_of_net(|n|)``
    fills one table indexed by |n|, which moments and cumulants both read.
    """

    def __init__(self, moment_of_net, name):
        super().__init__(moment_of_net, name=name, tracial=True)
        self._table = [1]

    def moment(self, word):
        n = abs(sum(word))
        return self._table_to(n)[n]

    def _key(self, word):
        """What the cumulants of a word depend on: here its net power."""
        return sum(word)

    def _gaps(self, nets):
        """``between(v, w)`` by prefix sums into the |net power| table."""
        prefix = [0, *accumulate(nets)]
        # v = -1 is read only with the end, so prefix[0] bounds no other gap
        table = self._table_to(max(max(prefix[1:]) - min(prefix[1:]), abs(prefix[-1])))
        return lambda v, w: table[abs(prefix[w] - prefix[v + 1])]

    def _table_to(self, n):
        """The moment table by |net power|, filled up to ``n`` if need be."""
        table = self._table
        while len(table) <= n:
            table.append(self._moment_fn(len(table)))
        return table


def haar_unitary_state():
    """Moments of a Haar unitary: words over exponents +-1, mean net power."""
    return _UnitaryState(lambda n: 0 if n else 1, "haar_unitary")


def _runs(word):
    """Maximal same-factor runs of a ``(factor, symbol)`` word."""
    runs = []
    for f, s in word:
        if runs and runs[-1][0] == f:
            runs[-1] = (f, runs[-1][1] + (s,))
        else:
            runs.append((f, (s,)))
    return runs


def _cyclic_canonical(blocks):
    blocks = list(blocks)
    while len(blocks) >= 2 and blocks[0][0] == blocks[-1][0]:
        f, syms = blocks.pop()
        blocks[0] = (f, syms + blocks[0][1])
    if len(blocks) <= 1:
        return tuple(blocks)
    rots = [tuple(blocks[i:] + blocks[:i]) for i in range(len(blocks))]
    return min(rots)


class ProductState(State):
    """Tensor, boolean, or free product of marginal states.

    Words use ``(factor_index, symbol)`` letters.  A free-product moment is
    the first-block cumulant expansion of :meth:`_free_cumulant_dp`.  When
    every marginal is tracial, words are canonicalised up to cyclic rotation
    before memo lookup.
    """

    def __init__(self, factors, kind):
        if kind not in ("free", "boolean", "tensor"):
            raise ValueError(f"unknown product kind {kind!r}")
        self.factors = list(factors)
        self.kind = kind
        self.tracial_all = all(s.tracial for s in self.factors)
        self._gap_memo = {}
        super().__init__(
            self._moment_of_word,
            name=f"{kind}({', '.join(s.name for s in self.factors)})",
            tracial=(kind != "boolean") and self.tracial_all,
        )

    def _marginal(self, f):
        if not 0 <= f < len(self.factors):
            raise ValueError(f"factor index {f} out of range")
        return self.factors[f]

    def _moment_of_word(self, word):
        blocks = _runs(word)
        for f, _ in blocks:
            self._marginal(f)
        if self.kind == "tensor":
            out = 1
            per = {}
            for f, syms in word:
                per.setdefault(f, []).append(syms)
            for f, syms in per.items():
                out *= self.factors[f].moment(tuple(syms))
            return out
        if self.kind == "boolean":
            out = 1
            for f, syms in blocks:
                out *= self.factors[f].moment(syms)
            return out
        return self._free_cumulant_dp(blocks)

    def _free_cumulant_dp(self, blocks):
        """First-block expansion over same-factor cumulants, gap by gap.

        ``seg(i, j)`` is the moment of the subword ``blocks[i:j]``, memoised
        on the product by that subword rather than by its position.
        """
        blocks = _cyclic_canonical(blocks) if self.tracial_all else tuple(blocks)
        memo = self._gap_memo

        def seg(i, j):
            if i == j:
                return 1
            if j - i == 1:
                f, syms = blocks[i]
                return self.factors[f].moment(syms)
            key = blocks[i:j]
            val = memo.get(key)
            if val is None:
                state = self.factors[blocks[i][0]]
                members = [q for q in range(i, j) if blocks[q][0] == blocks[i][0]]
                ends = members + [j]
                keys = tuple(state._key(blocks[q][1]) for q in members)
                val = memo[key] = _first_block(
                    state, keys, lambda a, b: seg(members[a] + 1, ends[b]), 0
                )
            return val

        return seg(0, len(blocks))


def product_state(factors, kind):
    """Combine marginal states into one by the named product."""
    return ProductState(factors, kind)
