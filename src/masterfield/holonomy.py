"""Holonomy fields on the plane and their invariance checks.

A field pairs the free unitary Brownian motion marginals with one of the
three product structures.  Evaluating it on a loop runs the pipeline:
draw the loop's graph, pick a lasso basis from a spanning tree, decompose
the loop into a word in the basis, attach to each lasso the semigroup
state at its face area, combine the marginals with the chosen product,
and take the moment of the word (raised to the requested power).

A field keeps, per loop, only the lasso word and the face areas; the graph
and basis are dropped once the word is known.  The product state depends
on the loop only through its tuple of face areas, so the field builds one
state per tuple and every loop with those areas shares it and its memos.

The check_* operations verify the field's defining invariances: braid
moves of the basis, area-preserving rearrangement, infinite divisibility
under face merges, and gauge conjugation by a free Haar unitary.
"""

import operator
from math import inf, isfinite
from numbers import Real

from .freeprob import haar_unitary_state, product_state
from .levy import fubm_moment, state_at
from .planar import (
    Loop,
    LassoWord,
    _check_priority,
    braid_act,
    braid_permutation,
    build_graph,
    decompose,
    lasso_basis,
    winding_profile,
)

__all__ = [
    "DEFAULT_CORPUS",
    "HolonomyField",
    "FieldValue",
    "evaluate",
    "CheckReport",
    "check_braid_invariance",
    "check_infinite_divisibility",
    "check_area_invariance",
    "check_gauge_invariance_scalar",
    "loop_observable",
]

# Ten reduced loops exercising tails, bridges, multiple faces, both
# winding signs and repeated traversal.
DEFAULT_CORPUS = (
    "NESW",
    "NNEESSWW",
    "NNESWS",
    "NESWNESW",
    "NESWNEESWNWS",
    "NESENWSW",
    "NNESSW",
    "NEESWW",
    "NNESESWW",
    "NESWNEESWNWSEENESWWW",
)


class HolonomyField:
    """A product structure and the evaluation conventions."""

    PRODUCTS = ("free", "boolean", "tensor")

    def __init__(self, product="free", t_scale=1.0, tree_priority="NESW"):
        if product not in self.PRODUCTS:
            raise ValueError(f"product must be one of {self.PRODUCTS}, got {product!r}")
        if not isinstance(t_scale, Real) or not 0 < t_scale < inf:
            raise ValueError(f"t_scale must be positive and finite, got {t_scale!r}")
        _check_priority(tree_priority)
        self.product = product
        self.t_scale = float(t_scale)
        self.tree_priority = tree_priority
        self._contexts = {}  # loop word -> _LoopContext
        self._states = {}  # scaled face-area tuple -> product state

    def __repr__(self):
        return f"HolonomyField(product={self.product!r}, t_scale={self.t_scale})"


class FieldValue:
    """One evaluated observable: the loop, the power, the value, the route."""

    def __init__(self, loop, observable, value, method):
        self.loop = loop
        self.observable = observable
        self.value = value
        self.method = method

    def __repr__(self):
        return (
            f"FieldValue(loop={self.loop.word!r}, k={self.observable}, "
            f"value={self.value:.12g}, method={self.method})"
        )


def _lasso_word(loop, t_scale, tree_priority):
    """The loop's word in its lasso basis, and each lasso's scaled face area."""
    basis = lasso_basis(build_graph([loop]), priority=tree_priority)
    areas = tuple(l.face.area * t_scale for l in basis.lassos)
    if not all(map(isfinite, areas)):
        raise ValueError(f"face areas of {loop.word} at t_scale {t_scale} are not finite")
    return decompose(loop, basis).letters, areas


class _LoopContext:
    """What evaluating one loop under one field reads: word, areas, state.

    The state is the field's product state for these areas, shared with
    every other context whose lassos have the same areas.
    """

    __slots__ = ("letters", "areas", "state")

    def __init__(self, field, loop):
        self.letters, self.areas = _lasso_word(loop, field.t_scale, field.tree_priority)
        self.state = field._states.get(self.areas)
        if self.state is None and self.areas:
            marginals = [state_at(a) for a in self.areas]
            self.state = field._states[self.areas] = product_state(marginals, field.product)

    def moment(self, letters):
        if self.state is None:
            return 1.0
        return self.state.moment(tuple(letters))


def _context(field, loop):
    key = loop.word
    ctx = field._contexts.get(key)
    if ctx is None:
        ctx = _LoopContext(field, loop)
        field._contexts[key] = ctx
    return ctx


def _as_loop(loop):
    return loop if isinstance(loop, Loop) else Loop(loop)


def evaluate(field, loop, k=1):
    """The k-th moment of the loop holonomy under the field."""
    loop = _as_loop(loop)
    try:
        if isinstance(k, bool):
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"power must be an integer, got {k!r}") from None
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if len(loop.word) == 0 or k == 0:
        return FieldValue(loop, k, 1.0, "exact")
    ctx = _context(field, loop)
    value = ctx.moment(tuple(ctx.letters) * k)
    return FieldValue(loop, k, value, "exact")


def loop_observable(loop, t_scale=1.0, tree_priority="NESW"):
    """The sampler's view of a loop: (area, orientation) lassos and the word."""
    letters, areas = _lasso_word(_as_loop(loop), t_scale, tree_priority)
    return [(a, 1) for a in areas], list(letters)


class CheckReport:
    """Outcome of an invariance sweep: cases, worst deviation, failures."""

    def __init__(self, name, tol):
        self.name = name
        self.tol = tol
        self.records = []
        self.max_deviation = 0.0
        self.failures = []

    def record(self, label, deviation):
        deviation = abs(deviation)
        self.records.append((label, deviation))
        if deviation > self.max_deviation:
            self.max_deviation = deviation
        if deviation > self.tol:
            self.failures.append((label, deviation))

    @property
    def cases(self):
        return len(self.records)

    @property
    def ok(self):
        return not self.failures

    def lines(self):
        head = (
            f"{self.name}: {'PASS' if self.ok else 'FAIL'} "
            f"({self.cases} cases, max deviation {self.max_deviation:.3e})"
        )
        out = [head]
        for label, dev in self.failures[:10]:
            out.append(f"  deviates by {dev:.3e}: {label}")
        return out

    def __repr__(self):
        return self.lines()[0]


def _braid_words(generator_count, max_len):
    if generator_count <= 0:
        yield ()
        return
    gens = [g for i in range(1, generator_count + 1) for g in (i, -i)]
    stack = [()]
    while stack:
        word = stack.pop()
        yield word
        if len(word) < max_len:
            for g in gens:
                stack.append(word + (g,))


def check_braid_invariance(
    field, loops=None, braids=None, max_len=4, max_strands=4, k=1, tol=1e-10
):
    """Evaluate each loop in its basis and in every braided basis.

    The braided basis mu = beta(c) expresses the loop by substituting the
    inverse braid action into the original word; the marginal sitting at
    slot j is the one of the face the braid carried there.  Values must
    agree to ``tol``.
    """
    report = CheckReport("braid invariance", tol)
    for word in loops if loops is not None else DEFAULT_CORPUS:
        loop = _as_loop(word)
        ctx = _context(field, loop)
        m = min(len(ctx.areas), max_strands)
        base_letters = tuple(ctx.letters) * k
        base_value = ctx.moment(base_letters)
        braid_list = (
            braids if braids is not None else _braid_words(m - 1, max_len)
        )
        generators = [LassoWord([(i, 1)]) for i in range(len(ctx.areas))]
        for braid in braid_list:
            if not braid:
                report.record(f"{loop.word} | identity braid", 0.0)
                continue
            inverse = tuple(-g for g in reversed(braid))
            images = braid_act(inverse, generators)
            source = braid_permutation(braid, len(generators))
            substituted = LassoWord(ctx.letters).substitute(
                {i: images[i] for i in range(len(images))}, unit=LassoWord()
            )
            relabeled = tuple(
                (source[idx], expo) for idx, expo in substituted.letters
            )
            if relabeled == tuple(ctx.letters):
                report.record(f"{loop.word} | braid {braid} (fixed word)", 0.0)
                continue
            value = ctx.moment(relabeled * k)
            report.record(f"{loop.word} | braid {braid}", value - base_value)
    return report


def check_infinite_divisibility(field, pairs=None, kmax=5, tol=1e-10):
    """Merging adjacent faces of areas s and t must match the area-(s+t) state.

    Compares m_k(s+t) with the product-state evaluation of the
    concatenated word (u_s u_t)^k for each pair.
    """
    if pairs is None:
        pairs = [(0.5, 0.5), (0.3, 0.7), (1.0, 1.0), (0.25, 1.75), (0.0, 0.0)]
    report = CheckReport("infinite divisibility", tol)
    for s, t in pairs:
        s_eff = s * field.t_scale
        t_eff = t * field.t_scale
        split = product_state([state_at(s_eff), state_at(t_eff)], field.product)
        for k in range(1, kmax + 1):
            merged = fubm_moment(s_eff + t_eff, k)
            got = split.moment(((0, 1), (1, 1)) * k)
            report.record(f"areas ({s}, {t}) k={k}", got - merged)
    return report


def _combinatorics(loop):
    graph = build_graph([loop])
    windings = tuple(sorted(abs(w) for w in winding_profile(loop, graph)))
    return len(graph.faces), tuple(sorted(graph.face_areas())), windings


def check_area_invariance(field, pairs=None, kmax=4, tol=1e-10):
    """Loops with matching face combinatorics and areas get equal values.

    Pairs with mismatched combinatorics raise: that is an ill-posed
    comparison, not a field failure.
    """
    if pairs is None:
        pairs = [
            ("NESW", "NNESWS"),
            ("NEESWW", "NNESSW"),
            ("NNESESWW", "NNWSWSEE"),
        ]
    report = CheckReport("area invariance", tol)
    for a, b in pairs:
        la, lb = _as_loop(a), _as_loop(b)
        ca, cb = _combinatorics(la), _combinatorics(lb)
        if ca != cb:
            raise ValueError(
                f"embedding pair {la.word!r} / {lb.word!r} is not comparable: "
                f"combinatorics {ca} vs {cb}"
            )
        for k in range(1, kmax + 1):
            va = evaluate(field, la, k).value
            vb = evaluate(field, lb, k).value
            report.record(f"{la.word} ~ {lb.word} k={k}", va - vb)
    return report


def check_gauge_invariance_scalar(field, kmax=5, times=(0.5, 1.0, 2.0), tol=1e-10):
    """Conjugating by a free Haar unitary leaves all moments unchanged.

    tau((v u_t v*)^k) is evaluated in the free product of a Haar state and
    the semigroup state and compared with m_k(t); the unit-gauge word u_t^k
    is included as the degenerate case.
    """
    report = CheckReport("gauge invariance (scalar)", tol)
    for t in times:
        t_eff = t * field.t_scale
        ps = product_state([haar_unitary_state(), state_at(t_eff)], "free")
        for k in range(1, kmax + 1):
            want = fubm_moment(t_eff, k)
            conj = ps.moment(((0, 1), (1, 1), (0, -1)) * k)
            plain = ps.moment(((1, 1),) * k)
            report.record(f"t={t} k={k} conjugated", conj - want)
            report.record(f"t={t} k={k} unit gauge", plain - want)
    return report
