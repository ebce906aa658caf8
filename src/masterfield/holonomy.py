"""Holonomy fields on the plane and their invariance checks.

A field pairs the free unitary Brownian motion marginals with one of the
three product structures.  Evaluating it on a loop runs the pipeline:
draw the loop's graph, pick a lasso basis from a spanning tree, decompose
the loop into a word in the basis, attach to each lasso the semigroup
state at its face area, combine the marginals with the chosen product,
and take the moment of the word (raised to the requested power).

A loop's *shape* is its lasso word and the integer areas of its faces, in
lasso order; the graph and basis are dropped once it is known.  A field
looks a word up by the text it was given (a ``Loop`` by its word) and
builds a ``Loop`` only on a miss, so a repeated word costs one dictionary
lookup.  It derives one shape per reduced word, and the invariance sweeps
and the sampler's view read it.  The free field's exact values read the
simplest shape with the same law, derived with it: the word reduced
cyclically, since a trace does not see a conjugation, and, when that core
reads each face at most once, one face of the summed area, since free
increments of the free unitary Brownian motion (or their inverses, which
have the same law) multiply to the motion at the summed time.  Areas
become times only where a state or a sampler job is built.  The product
state depends on the loop only through its face areas, so the field builds
one state per area tuple and every loop with those areas shares it and its
memos.

The check_* operations verify a holonomy field's defining invariances:
braid moves of the basis, area-preserving rearrangement, infinite
divisibility under face merges, and gauge conjugation by a free Haar
unitary.  They are properties of the free field.  The boolean and tensor
fields are negative controls: the boolean field fails the braid sweep,
infinite divisibility and the gauge sweep and depends on the spanning
tree, and the tensor field fails infinite divisibility.
"""

import sys
from math import isfinite, isnan
from numbers import Real

from ._ints import as_int
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

# The largest deviation an invariance sweep accepts.
_TOL = 1e-10
# No word holds more than sys.maxsize letters, so no larger power is taken.
_POWER_RULE = f"power must be an integer <= {sys.maxsize}"


class HolonomyField:
    """A product structure and the evaluation conventions."""

    PRODUCTS = ("free", "boolean", "tensor")

    def __init__(self, product="free", t_scale=1.0, tree_priority="NESW"):
        if product not in self.PRODUCTS:
            raise ValueError(f"product must be one of {self.PRODUCTS}, got {product!r}")
        self.t_scale = _check_t_scale(t_scale)
        _check_priority(tree_priority)
        self.product = product
        self.tree_priority = tree_priority
        # word as given -> (Loop, lasso letters, face areas, law shape)
        self._contexts = {}
        self._states = {}  # face-area tuple -> product state

    def __repr__(self):
        return (
            f"HolonomyField(product={self.product!r}, t_scale={self.t_scale}, "
            f"tree_priority={self.tree_priority!r})"
        )


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


def _check_t_scale(t_scale):
    """``t_scale`` as a float: a real number, not a bool, positive and finite."""
    if isinstance(t_scale, bool) or not isinstance(t_scale, Real) or t_scale <= 0:
        raise ValueError(f"t_scale must be a positive finite real number, got {t_scale!r}")
    if not isfinite(t_scale):
        raise ValueError(f"t_scale {t_scale!r} is not finite")
    return float(t_scale)


def _lasso_word(loop, tree_priority):
    """The loop's shape: its word in its lasso basis, and each lasso's face area."""
    basis = lasso_basis(build_graph([loop]), priority=tree_priority)
    return decompose(loop, basis).letters, tuple(l.face.area for l in basis.lassos)


def _law_shape(field, letters, areas):
    """The simplest ``(letters, areas)`` whose moments are the loop's under the field.

    Under the free field, first and last letters that are mutual inverses
    are stripped, and a core that reads each face at most once becomes one
    face of the summed area.  The shape is kept under the other products,
    which are not tracial or whose increments do not multiply, and where
    the summed area is not a finite time.
    """
    if field.product == "free":
        lo, hi = 0, len(letters)
        while hi - lo > 1 and letters[lo] == (letters[hi - 1][0], -letters[hi - 1][1]):
            lo, hi = lo + 1, hi - 1
        faces = [i for i, _ in letters[lo:hi]]
        area = sum(areas[i] for i in faces)
        if len(set(faces)) == len(faces) and isfinite(area * field.t_scale):
            return ((0, 1),), (area,)
    return letters, areas


def _context(field, loop):
    """The loop's ``(Loop, lasso letters, face areas, law shape)`` under the field.

    Keyed by the text given, or a ``Loop``'s word: only a miss builds and
    checks a ``Loop``, one shape is derived per reduced word, and a word
    that fails is not stored, so it fails the same way every time.
    """
    key = loop.word if isinstance(loop, Loop) else loop
    try:
        return field._contexts[key]
    except (KeyError, TypeError):  # a miss, or an unhashable list of steps
        pass
    loop = loop if isinstance(loop, Loop) else Loop(loop)
    context = field._contexts.get(loop.word)
    if context is None:
        letters, areas = _lasso_word(loop, field.tree_priority)
        context = (loop, letters, areas, _law_shape(field, letters, areas))
        field._contexts[loop.word] = context
    if isinstance(key, str):
        field._contexts[key] = context
    return context


def _times(field, loop, areas):
    """The loop's face areas as times: each scaled by the field's ``t_scale``."""
    times = tuple(a * field.t_scale for a in areas)
    if not all(map(isfinite, times)):
        raise ValueError(f"face areas of {loop.word} at t_scale {field.t_scale} are not finite")
    return times


def _state(field, loop, areas):
    """The field's product state for these face areas, shared by all loops with them."""
    state = field._states.get(areas)
    if state is None:
        marginals = [state_at(t) for t in _times(field, loop, areas)]
        state = field._states[areas] = product_state(marginals, field.product)
    return state


def _observable(field, loop):
    """The sampler's view of a loop under the field: (time, 1) lassos and the word."""
    loop, letters, areas, _ = _context(field, loop)
    return [(t, 1) for t in _times(field, loop, areas)], list(letters)


def evaluate(field, loop, k=1):
    """The k-th moment of the loop holonomy under the field."""
    loop, _, _, (letters, areas) = _context(field, loop)
    k = as_int(k, _POWER_RULE, most=sys.maxsize)
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if len(loop.word) == 0 or k == 0:
        return FieldValue(loop, k, 1.0, "exact")
    state = _state(field, loop, areas)
    try:
        word = letters * k
    except MemoryError:
        raise ValueError(f"power {k} makes a word too long to hold in memory") from None
    return FieldValue(loop, k, state.moment(word), "exact")


def loop_observable(loop, t_scale=1.0, tree_priority="NESW"):
    """The sampler's view of a loop: (face area * t_scale, 1) lassos and the word."""
    return _observable(HolonomyField(t_scale=t_scale, tree_priority=tree_priority), loop)


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
        # a NaN deviation is the worst one, and it fails
        if isnan(deviation) or deviation > self.max_deviation:
            self.max_deviation = deviation
        if not deviation <= self.tol:
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


def check_braid_invariance(field, loops=None, max_len=4, max_strands=4):
    """Evaluate each loop in its basis and in every braided basis.

    The braided basis mu = beta(c) expresses the loop by substituting the
    inverse braid action into the original word; the marginal sitting at
    slot j is the one of the face the braid carried there.  First moments
    must agree to ``_TOL``.
    """
    report = CheckReport("braid invariance", _TOL)
    for word in loops if loops is not None else DEFAULT_CORPUS:
        loop, letters, areas, _ = _context(field, word)
        state = _state(field, loop, areas)
        m = min(len(areas), max_strands)
        base_value = state.moment(letters)
        generators = [LassoWord([(i, 1)]) for i in range(len(areas))]
        for braid in _braid_words(m - 1, max_len):
            if not braid:
                report.record(f"{loop.word} | identity braid", 0.0)
                continue
            inverse = tuple(-g for g in reversed(braid))
            images = braid_act(inverse, generators)
            source = braid_permutation(braid, len(generators))
            substituted = LassoWord(letters).substitute(
                {i: images[i] for i in range(len(images))}, unit=LassoWord()
            )
            relabeled = tuple(
                (source[idx], expo) for idx, expo in substituted.letters
            )
            if relabeled == letters:
                report.record(f"{loop.word} | braid {braid} (fixed word)", 0.0)
                continue
            value = state.moment(relabeled)
            report.record(f"{loop.word} | braid {braid}", value - base_value)
    return report


def check_infinite_divisibility(field, kmax=5):
    """Merging adjacent faces of areas s and t must match the area-(s+t) state.

    Compares m_k(s+t) with the product-state evaluation of the
    concatenated word (u_s u_t)^k for each pair.
    """
    report = CheckReport("infinite divisibility", _TOL)
    for s, t in [(0.5, 0.5), (0.3, 0.7), (1.0, 1.0), (0.25, 1.75), (0.0, 0.0)]:
        s_eff = s * field.t_scale
        t_eff = t * field.t_scale
        split = product_state([state_at(s_eff), state_at(t_eff)], field.product)
        for k in range(1, kmax + 1):
            merged = fubm_moment(s_eff + t_eff, k)
            got = split.moment(((0, 1), (1, 1)) * k)
            report.record(f"areas ({s}, {t}) k={k}", got - merged)
    return report


def _combinatorics(shape):
    """A shape's face count, sorted face areas and sorted |winding numbers|.

    Lasso i winds once around face i and around no other face, so the
    loop's winding around face i is the exponent sum of letter i.
    """
    letters, areas = shape
    windings = [0] * len(areas)
    for i, expo in letters:
        windings[i] += expo
    return len(areas), tuple(sorted(areas)), tuple(sorted(map(abs, windings)))


def check_area_invariance(field, pairs=None):
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
    report = CheckReport("area invariance", _TOL)
    for a, b in pairs:
        (la, *sa, _), (lb, *sb, _) = _context(field, a), _context(field, b)
        ca, cb = _combinatorics(sa), _combinatorics(sb)
        if ca != cb:
            raise ValueError(
                f"embedding pair {la.word!r} / {lb.word!r} is not comparable: "
                f"combinatorics {ca} vs {cb}"
            )
        for k in range(1, 5):
            va = evaluate(field, la, k).value
            vb = evaluate(field, lb, k).value
            report.record(f"{la.word} ~ {lb.word} k={k}", va - vb)
    return report


def check_gauge_invariance_scalar(field, kmax=5):
    """Conjugating by a free Haar unitary leaves all moments unchanged.

    tau((v u_t v*)^k) is evaluated in the field's product of a Haar state
    and the semigroup state and compared with m_k(t); the unit-gauge word
    u_t^k is included as the degenerate case.
    """
    report = CheckReport("gauge invariance (scalar)", _TOL)
    for t in (0.5, 1.0, 2.0):
        t_eff = t * field.t_scale
        ps = product_state([haar_unitary_state(), state_at(t_eff)], field.product)
        for k in range(1, kmax + 1):
            want = fubm_moment(t_eff, k)
            conj = ps.moment(((0, 1), (1, 1), (0, -1)) * k)
            plain = ps.moment(((1, 1),) * k)
            report.record(f"t={t} k={k} conjugated", conj - want)
            report.record(f"t={t} k={k} unit gauge", plain - want)
    return report
