"""Lattice loops on Z^2, their drawings, and lasso decompositions.

A loop is a closed walk on the integer lattice based at the origin, written
as a word in the four unit steps ``N``, ``E``, ``S``, ``W``.  Words are
identified up to backtrack erasure (``N`` followed by ``S`` cancels, and so
on), which makes loops a group under concatenation.

The drawing of a finite family of loops is a planar graph whose bounded
faces are unions of unit cells.  Every bounded face yields a *lasso*: run
out along a spanning tree to a vertex on the face boundary, go once
anticlockwise around the face, and come back the same way.  The lassos
freely generate the group of loops drawn on the graph.  A lasso basis is
solved when it is built: each edge off the tree is written as a word in the
lassos, along the tree that those edges form on the faces, deepest face
first.  So :func:`decompose` rewrites a loop drawn on the graph as a
reduced word in the lassos by reading its edges.

Braids act on tuples of loops (or of abstract lasso words) by the usual
conjugation substitution; see :func:`braid_act`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = [
    "STEPS",
    "DELTA",
    "OPPOSITE",
    "reduce_word",
    "invert_word",
    "Loop",
    "Face",
    "PlanarGraph",
    "build_graph",
    "SpanningTree",
    "Lasso",
    "LassoBasis",
    "LassoWord",
    "lasso_basis",
    "decompose",
    "braid_act",
    "braid_permutation",
    "random_loop",
]

STEPS = "NESW"
DELTA = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}
# Translation table from the byte values 0..3 to the step letters.
_STEP_BYTES = bytes.maketrans(bytes(range(4)), STEPS.encode())

# Outgoing directions around a vertex in anticlockwise rotation order.
_ROT = "ENWS"
_ROTI = {s: i for i, s in enumerate(_ROT)}
# Arriving by step s, the steps to try next, turning clockwise from the way
# back (which is always there: a dead end turns around).
_TURNS = {
    s: [_ROT[(_ROTI[OPPOSITE[s]] - k) % 4] for k in (1, 2, 3)] + [OPPOSITE[s]]
    for s in STEPS
}
# Offset from a half-edge's tail to the lower-left corner of the cell on its left.
_LEFT = {"N": (-1, 0), "E": (0, 0), "S": (0, -1), "W": (-1, -1)}


def reduce_word(word):
    """Erase backtracks (adjacent mutually inverse steps) until none remain."""
    out = []
    for s in word:
        if out and out[-1] == OPPOSITE[s]:
            out.pop()
        else:
            out.append(s)
    return "".join(out)


def invert_word(word):
    """The reverse walk: word read backwards with every step flipped."""
    return "".join(OPPOSITE[s] for s in reversed(word))


def step_end(v, s):
    dx, dy = DELTA[s]
    return (v[0] + dx, v[1] + dy)


class Loop:
    """A closed lattice walk based at the origin, stored as a reduced word.

    Two loops are equal iff their reduced words agree.  Multiplication is
    concatenation followed by backtrack erasure, which makes loops drawn on
    any fixed graph a free group.
    """

    __slots__ = ("word",)

    def __init__(self, word=""):
        bad = sorted(set(word) - set(STEPS))
        if bad:
            raise ValueError(
                f"invalid step(s) {bad} in word {word!r}: steps must be one of N, E, S, W"
            )
        word = reduce_word(word)
        x = word.count("E") - word.count("W")
        y = word.count("N") - word.count("S")
        if (x, y) != (0, 0):
            raise ValueError(f"word {word!r} is not closed: it ends at ({x}, {y})")
        self.word = word

    def __mul__(self, other):
        return Loop(self.word + other.word)

    def inverse(self):
        return Loop(invert_word(self.word))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = Loop("")
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, Loop) and self.word == other.word

    def __hash__(self):
        return hash(("Loop", self.word))

    def __len__(self):
        return len(self.word)

    def __bool__(self):
        return bool(self.word)

    def __repr__(self):
        return f"Loop({self.word!r})"

def _canon_edge(v, s):
    """Canonical undirected edge for the step ``s`` out of ``v``.

    Returns ``(edge, sign)`` where ``edge`` is ``(vertex, 'N' or 'E')`` and
    ``sign`` is +1 if the step traverses the edge in canonical direction.
    """
    if s in ("N", "E"):
        return (v, s), 1
    return (step_end(v, s), OPPOSITE[s]), -1


class Face:
    """A bounded face of a drawing: a union of unit cells with area > 0.

    ``walk`` is the boundary traversed with the face on the left (hence
    anticlockwise), as a tuple of half-edges ``(vertex, step)``; ``word`` is
    the same walk as a step word; ``cell`` is the lexicographically smallest
    unit cell inside the face (used as a marked interior point).
    """

    __slots__ = ("id", "walk", "word", "area", "cell")

    def __init__(self, fid, walk, area, cell):
        self.id = fid
        self.walk = tuple(walk)
        self.word = "".join(s for _, s in walk)
        self.area = area
        self.cell = cell

    def __repr__(self):
        return f"Face(id={self.id}, area={self.area}, word={self.word!r})"


class PlanarGraph:
    """The drawing of a family of loops: vertices, edges, and traced faces.

    Faces are traced through the rotation system at each vertex; bounded
    faces come out anticlockwise (face on the left) and are numbered in
    lexicographic order of their marked interior cell.  The single unbounded
    face walk is kept separately as ``outer_walk``.
    """

    def __init__(self, loops):
        if isinstance(loops, Loop):
            loops = [loops]
        self.adj = {(0, 0): set()}
        self.edges = set()
        for lp in loops:
            pos = (0, 0)
            for s in lp.word:
                nxt = step_end(pos, s)
                self.adj.setdefault(pos, set()).add(s)
                self.adj.setdefault(nxt, set()).add(OPPOSITE[s])
                self.edges.add(_canon_edge(pos, s)[0])
                pos = nxt
        self._trace_faces()

    # -- face tracing ------------------------------------------------------

    def _trace_faces(self):
        adj = self.adj
        seen = set()
        bounded = []
        outer = None
        for v0, steps in adj.items():
            for s0 in steps:
                if (v0, s0) in seen:
                    continue
                orbit = []
                a2 = 0
                v, s = v0, s0
                while True:
                    orbit.append((v, s))
                    x, y = v
                    dx, dy = DELTA[s]
                    a2 += x * dy - y * dx
                    v = (x + dx, y + dy)
                    out = adj[v]
                    for s in _TURNS[s]:
                        if s in out:
                            break
                    if s == s0 and v == v0:
                        break
                seen.update(orbit)
                j = min(range(len(orbit)), key=lambda i: (orbit[i][0], _ROTI[orbit[i][1]]))
                orbit = orbit[j:] + orbit[:j]
                if a2 > 0:
                    cell = min((x + _LEFT[s][0], y + _LEFT[s][1]) for (x, y), s in orbit)
                    bounded.append((cell, orbit, a2 // 2))
                else:
                    if outer is not None:
                        raise RuntimeError("drawing is not connected through the origin")
                    outer = orbit
        bounded.sort()
        self.faces = [Face(i, orbit, area, cell) for i, (cell, orbit, area) in enumerate(bounded)]
        self.outer_walk = tuple(outer) if outer is not None else ()
        self.total_area = sum(f.area for f in self.faces)

    def __repr__(self):
        return (
            f"PlanarGraph({len(self.adj)} vertices, {len(self.edges)} edges, "
            f"{len(self.faces)} bounded faces)"
        )


def build_graph(loops):
    """Draw a loop or a family of loops; returns the resulting :class:`PlanarGraph`."""
    return PlanarGraph(loops)


def _check_priority(priority):
    if not isinstance(priority, str) or sorted(priority) != sorted(STEPS):
        raise ValueError(f"priority {priority!r} must be a permutation of NESW")


class SpanningTree:
    """Breadth-first spanning tree of a drawing, rooted at the origin.

    ``priority`` orders the neighbours tried at each vertex and is the only
    tie-break: different priorities give different trees (hence different
    lasso bases), which downstream results must not depend on.  ``words``
    maps each vertex to the step word of its tree path from the origin, in
    the order the search reached them; ``tree_edges`` holds the canonical
    edges it crossed.
    """

    def __init__(self, graph, priority="NESW"):
        _check_priority(priority)
        self.graph = graph
        self.words = {(0, 0): ""}
        self.tree_edges = set()
        q = deque([(0, 0)])
        while q:
            v = q.popleft()
            steps = graph.adj[v]
            for s in priority:
                if s not in steps:
                    continue
                w = step_end(v, s)
                if w in self.words:
                    continue
                self.words[w] = self.words[v] + s
                self.tree_edges.add(_canon_edge(v, s)[0])
                q.append(w)
        if len(self.words) != len(graph.adj):
            raise RuntimeError("drawing is not connected through the origin")


class Lasso:
    """``tail . bulk . tail^-1``: out along the tree, once round a face, back.

    ``anchor`` is the vertex where the tail ends and the bulk starts.  The
    bulk runs anticlockwise, so the lasso has winding +1 around its own
    face and 0 around every other bounded face.
    """

    __slots__ = ("face", "anchor", "tail", "bulk")

    def __init__(self, face, anchor, tail, bulk):
        self.face = face
        self.anchor = anchor
        self.tail = tail
        self.bulk = bulk

    def loop(self):
        return Loop(self.tail + self.bulk + invert_word(self.tail))

    def __repr__(self):
        return f"Lasso(face={self.face.id}, tail={self.tail!r}, bulk={self.bulk!r})"


def _make_lasso(face, tree):
    """Pick an anchor on the face boundary and build the lasso.

    Anchors are tried by increasing tree word length (then position); among
    the rotations of the boundary walk starting at an anchor we prefer one
    whose seams with the tail do not cancel, falling back to the first
    candidate.
    """
    occurrences = {}
    for j, (v, _) in enumerate(face.walk):
        occurrences.setdefault(v, []).append(j)
    fallback = None
    for v in sorted(occurrences, key=lambda u: (len(tree.words[u]), u)):
        tail = tree.words[v]
        for j in occurrences[v]:
            bulk = face.word[j:] + face.word[:j]
            if fallback is None:
                fallback = Lasso(face, v, tail, bulk)
            if tail == "" or (
                bulk[0] != OPPOSITE[tail[-1]] and bulk[-1] != tail[-1]
            ):
                return Lasso(face, v, tail, bulk)
    return fallback


class LassoWord:
    """A freely reduced word in the lasso generators (one per bounded face).

    Letters are ``(face_id, sign)`` pairs, or ``(edge, sign)`` while a basis is
    solved; multiplication concatenates and erases adjacent inverse pairs.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        out = []
        for g, s in letters:
            if s not in (1, -1):
                raise ValueError(f"letter sign must be +-1, got {s}")
            if out and out[-1][0] == g and out[-1][1] == -s:
                out.pop()
            else:
                out.append((g, s))
        self.letters = tuple(out)

    def __mul__(self, other):
        return LassoWord(self.letters + other.letters)

    def inverse(self):
        return LassoWord([(g, -s) for g, s in reversed(self.letters)])

    def __eq__(self, other):
        return isinstance(other, LassoWord) and self.letters == other.letters

    def __hash__(self):
        return hash(("LassoWord", self.letters))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def substitute(self, mapping, unit=None):
        """Replace each generator via ``mapping[face_id]`` and multiply out.

        Values need ``*`` and ``.inverse()``; ``unit`` is the empty product
        (defaults to the trivial :class:`Loop`).
        """
        out = Loop("") if unit is None else unit
        for g, s in self.letters:
            x = mapping[g]
            out = out * (x if s == 1 else x.inverse())
        return out

    def __repr__(self):
        return f"LassoWord({self.letters!r})"


class LassoBasis:
    """The lassos of a drawing for one spanning tree, and ``solved``: each
    canonical non-tree edge as a :class:`LassoWord` in them."""

    def __init__(self, graph, tree, lassos, solved):
        self.graph = graph
        self.tree = tree
        self.lassos = lassos
        self.solved = solved

    def __repr__(self):
        return f"LassoBasis({len(self.lassos)} lassos)"


def lasso_basis(graph, priority="NESW"):
    """Choose a spanning tree (by neighbour priority), build one lasso per face,
    and solve every non-tree edge in the lassos."""
    tree = SpanningTree(graph, priority)
    lassos = [_make_lasso(f, tree) for f in graph.faces]
    return LassoBasis(graph, tree, lassos, _solve_edges(lassos, tree))


def _edge_letters(word, tree, start=(0, 0)):
    """The signed non-tree edges met along a step word, as a :class:`LassoWord`.

    Raises if the word leaves the drawing; tree edges are dropped, so the
    result represents the walk's class in the free group on non-tree edges.
    """
    graph = tree.graph
    letters = []
    pos = start
    for s in word:
        edge, sign = _canon_edge(pos, s)
        if edge not in graph.edges:
            raise ValueError(
                f"loop not drawn on graph: step {s} at {pos} uses a missing edge"
            )
        if edge not in tree.tree_edges:
            letters.append((edge, sign))
        pos = step_end(pos, s)
    return LassoWord(letters)


def _solve_edges(lassos, tree):
    """Express each non-tree edge generator as a word in the lassos.

    A non-tree edge is never a bridge, so it lies once on the boundary of
    each of two bounded faces, or of one when the unbounded face is the
    other; and the non-tree edges form a spanning tree of the faces.  A
    breadth-first walk of that tree from the unbounded face gives each
    bounded face its one edge towards the unbounded face, and the edges are
    solved from the faces' bulks by back-substitution, deepest face first.
    """
    bulk_letters = {}
    sides = {}  # non-tree edge -> the bounded faces along it
    for lasso in lassos:
        fid = lasso.face.id
        bulk_letters[fid] = _edge_letters(lasso.bulk, tree, lasso.anchor).letters
        for e, _ in bulk_letters[fid]:
            sides.setdefault(e, []).append(fid)
    order = [(fs[0], e) for e, fs in sides.items() if len(fs) == 1]
    for fid, up in order:  # grows as the walk reaches deeper faces
        for e, _ in bulk_letters[fid]:
            if e != up:
                a, b = sides[e]
                order.append((b if a == fid else a, e))
    solved = {}
    for fid, e in reversed(order):
        letters = bulk_letters[fid]
        i = [e2 for e2, _ in letters].index(e)
        alpha = LassoWord(letters[:i]).substitute(solved, LassoWord())
        beta = LassoWord(letters[i + 1 :]).substitute(solved, LassoWord())
        core = alpha.inverse() * LassoWord([(fid, 1)]) * beta.inverse()
        solved[e] = core if letters[i][1] == 1 else core.inverse()
    if len(solved) != len(tree.graph.edges) - len(tree.tree_edges):
        raise RuntimeError("the faces' tree did not reach every non-tree edge")
    return solved


def decompose(loop, basis):
    """Rewrite a loop drawn on the basis's graph as a reduced lasso word.

    Substituting each generator's lasso loop back in recovers the loop, and
    the exponent sum at a face equals the loop's winding number around it.
    """
    word = loop.word if isinstance(loop, Loop) else reduce_word(loop)
    return _edge_letters(word, basis.tree).substitute(basis.solved, LassoWord())


def braid_act(braid, elements):
    """Apply a braid word to a tuple of group elements.

    Generators are nonzero signed integers: ``+i`` (1-based) maps
    ``(.., x_i, x_{i+1}, ..)`` to ``(.., x_{i+1}, x_{i+1} x_i x_{i+1}^-1, ..)``
    and ``-i`` is its inverse.  The rightmost generator acts first, so the
    action composes like substitution: ``act(a + b, xs) == act(a, act(b, xs))``.
    Elements need ``*`` and ``.inverse()``.
    """
    xs = list(elements)
    n = len(xs)
    for g in reversed(list(braid)):
        i = abs(g) - 1
        if g == 0 or not 0 <= i < n - 1:
            raise ValueError(f"braid generator {g} out of range for {n} strands")
        p, q = xs[i], xs[i + 1]
        if g > 0:
            xs[i], xs[i + 1] = q, q * p * q.inverse()
        else:
            xs[i], xs[i + 1] = p.inverse() * q * p, p
    return tuple(xs)


def braid_permutation(braid, n):
    """Where each strand's content comes from: ``out[j]`` is the original slot
    whose (conjugated) element ends up at slot ``j`` under :func:`braid_act`."""
    src = list(range(n))
    for g in reversed(list(braid)):
        i = abs(g) - 1
        if g == 0 or not 0 <= i < n - 1:
            raise ValueError(f"braid generator {g} out of range for {n} strands")
        src[i], src[i + 1] = src[i + 1], src[i]
    return tuple(src)


def random_loop(rng, max_len=24):
    """A uniform-ish random nontrivial reduced loop of length <= max_len (>= 4).

    Draws random step words of random even length and keeps the first whose
    reduction is a nontrivial closed loop; used by tests and the CLI demo
    corpus generator.
    """
    if max_len < 4:
        raise ValueError(f"max_len must be >= 4, got {max_len!r}")
    while True:
        n = 2 * int(rng.integers(2, max_len // 2 + 1))
        draws = rng.integers(0, 4, size=n)
        north, east, south, west = np.bincount(draws, minlength=4)
        if north != south or east != west:
            continue
        red = reduce_word(draws.astype(np.uint8).tobytes().translate(_STEP_BYTES).decode())
        if red:
            return Loop(red)
