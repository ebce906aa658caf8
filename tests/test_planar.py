"""Loops, drawings, faces, lassos, decomposition, braids.

Oracles used here are independent of the implementation under test:
backtrack erasure in random order, cell flood fill for faces and areas,
a northward ray for winding numbers, Green's theorem tying windings to the
shoelace area, and a cut-ray crossing word for a loop's class in the free
group of the punctured plane.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masterfield import planar
from masterfield.freeprob import product_state
from masterfield.holonomy import _lasso_word
from masterfield.levy import state_at
from masterfield.planar import (
    DELTA,
    OPPOSITE,
    LassoWord,
    Loop,
    build_graph,
    braid_act,
    braid_permutation,
    decompose,
    invert_word,
    lasso_basis,
    random_loop,
    reduce_word,
)

CORPUS_WORDS = [
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
]


def random_word(rng, n):
    return "".join("NESW"[k] for k in rng.integers(0, 4, size=n))


def slow_reduce(word, rng):
    """Erase one random cancelling pair at a time (independent oracle)."""
    w = list(word)
    while True:
        idx = [i for i in range(len(w) - 1) if w[i + 1] == OPPOSITE[w[i]]]
        if not idx:
            return "".join(w)
        i = idx[rng.integers(0, len(idx))]
        del w[i : i + 2]


def flood_regions(graph):
    """Bounded cell regions of a drawing, by flooding across non-edges."""
    xs = [v[0] for v in graph.adj]
    ys = [v[1] for v in graph.adj]
    x0, x1 = min(xs) - 1, max(xs)
    y0, y1 = min(ys) - 1, max(ys)
    todo = {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}

    def blocked(c, d):
        # Is the wall between cell c and its d-neighbour an edge of the graph?
        x, y = c
        if d == "E":
            return ((x + 1, y), "N") in graph.edges
        if d == "W":
            return ((x, y), "N") in graph.edges
        if d == "N":
            return ((x, y + 1), "E") in graph.edges
        return ((x, y), "E") in graph.edges

    regions = []
    while todo:
        seed = todo.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            c = stack.pop()
            for d in "NESW":
                dx, dy = DELTA[d]
                nb = (c[0] + dx, c[1] + dy)
                if nb in todo and not blocked(c, d):
                    todo.remove(nb)
                    comp.add(nb)
                    stack.append(nb)
        on_border = any(
            x in (x0, x1) or y in (y0, y1) for x, y in comp
        )
        if not on_border:
            regions.append(comp)
    return regions


def winding_north_ray(word, cell):
    """Winding around a unit cell's centre, by signed crossings of the northward ray."""
    cx, cy = cell
    w = 0
    x = y = 0
    for s in word:
        if s == "E" and x == cx and y >= cy + 1:
            w -= 1
        elif s == "W" and x - 1 == cx and y >= cy + 1:
            w += 1
        dx, dy = DELTA[s]
        x += dx
        y += dy
    return w


def north_ray_profile(loop, graph):
    """A loop's winding around each bounded face of a drawing, by face id."""
    return tuple(winding_north_ray(loop.word, f.cell) for f in graph.faces)


def exponent_sums(letters, graph):
    """Each face's exponent sum in a lasso word, by face id."""
    return tuple(sum(e for fid, e in letters if fid == f.id) for f in graph.faces)


def shoelace2(word):
    a2 = 0
    x = y = 0
    for s in word:
        dx, dy = DELTA[s]
        a2 += x * dy - y * dx
        x += dx
        y += dy
    return a2


def crossing_word(word):
    """A loop's freely reduced crossing word, and the bounded regions by puncture.

    One puncture sits in each bounded region of the drawing, at its lowest,
    then leftmost, cell, and the plane is cut along a vertical ray going up
    from each one (rays in one column tilted apart by height, so they do not
    meet).  An E step at height c over column x crosses the rays of the
    punctures (x, p) with p < c, lowest first, each as the letter -1; a W
    step crosses them highest first, each as +1.  The reduced word is the
    loop's class in the free group of the punctured plane, in a basis of its
    own: letters are (puncture cell, sign), and a letter's exponent sum is
    the winding around that puncture.
    """
    vertices, edges = {(0, 0)}, set()
    x = y = 0
    for s in word:
        dx, dy = DELTA[s]
        end = (x + dx, y + dy)
        edges.add((min((x, y), end), "E" if dy == 0 else "N"))
        vertices.add(end)
        x, y = end
    regions = {}
    for region in flood_regions(SimpleNamespace(adj=vertices, edges=edges)):
        regions[min(region, key=lambda c: (c[1], c[0]))] = region
    heights = {}  # column -> puncture heights, lowest first
    for px, py in sorted(regions):
        heights.setdefault(px, []).append(py)
    out = []
    x = y = 0
    for s in word:
        if s == "E":
            crossed = [((x, p), -1) for p in heights.get(x, ()) if p < y]
        elif s == "W":
            crossed = [((x - 1, p), 1) for p in reversed(heights.get(x - 1, ())) if p < y]
        else:
            crossed = []
        for letter, sign in crossed:
            if out and out[-1] == (letter, -sign):
                out.pop()
            else:
                out.append((letter, sign))
        dx, dy = DELTA[s]
        x, y = x + dx, y + dy
    return tuple(out), regions


def crossing_mismatch(loop, priority="NESW", kmax=4):
    """Where the loop's lasso word and its crossing word disagree, or None.

    They must have the same face areas, the same winding around each face,
    and the same free and tensor moments up to ``kmax``, with each face's
    state at its area.  Boolean moments are not compared: the boolean
    product is not conjugation invariant, so a change of basis moves them.
    """
    letters, areas = _lasso_word(loop, priority)
    crossing, regions = crossing_word(loop.word)
    region_areas = sorted(map(len, regions.values()))
    if region_areas != sorted(areas):
        return f"face areas {sorted(areas)} vs region areas {region_areas}"
    # the lasso slot of each puncture: the face whose marked cell is in its region
    graph = build_graph([loop])
    slot = {c: f.id for f in graph.faces for c, r in regions.items() if f.cell in r}
    relabeled = tuple((slot[c], sign) for c, sign in crossing)
    windings = exponent_sums(letters, graph), exponent_sums(relabeled, graph)
    if windings[0] != windings[1]:
        return f"windings {windings[0]} vs {windings[1]}"
    for product in ("free", "tensor"):
        state = product_state([state_at(a) for a in areas], product)
        for k in range(1, kmax + 1):
            want, got = state.moment(letters * k), state.moment(relabeled * k)
            if abs(want - got) > 1e-12:
                return f"{product} k={k}: lasso word {want!r} vs crossing word {got!r}"
    return None


def test_reduce_matches_random_order_erasure():
    rng = np.random.default_rng(11)
    for _ in range(300):
        w = random_word(rng, int(rng.integers(0, 20)))
        expect = reduce_word(w)
        for _ in range(3):
            assert slow_reduce(w, rng) == expect


def test_reduce_is_idempotent_and_reduced():
    rng = np.random.default_rng(12)
    for _ in range(200):
        w = reduce_word(random_word(rng, 15))
        assert reduce_word(w) == w
        for a, b in zip(w, w[1:]):
            assert b != OPPOSITE[a]


def test_loop_group_laws():
    rng = np.random.default_rng(13)
    e = Loop("")
    for _ in range(50):
        a, b, c = (random_loop(rng, 12) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * e == a and e * a == a
        assert not a * a.inverse()
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_loop_rejects_open_words_and_bad_steps():
    with pytest.raises(ValueError, match="not closed"):
        Loop("NE")
    # the message names the word, which a corpus file may hold among many
    with pytest.raises(ValueError, match="invalid step.* in word 'NXSW'"):
        Loop("NXSW")


def test_faces_match_flood_fill_on_corpus_and_random():
    rng = np.random.default_rng(14)
    loops_sets = [[Loop(w)] for w in CORPUS_WORDS]
    for _ in range(40):
        loops_sets.append([random_loop(rng, 16) for _ in range(int(rng.integers(1, 3)))])
    for loops in loops_sets:
        g = build_graph(loops)
        regions = flood_regions(g)
        assert len(regions) == len(g.faces)
        assert sorted(len(r) for r in regions) == sorted(f.area for f in g.faces)
        # each face's marked cell sits in a region of exactly its area
        by_cell = {c: len(r) for r in regions for c in r}
        for f in g.faces:
            assert by_cell[f.cell] == f.area
        # Euler characteristic of the sphere (the unbounded face counts once)
        assert len(g.adj) - len(g.edges) + len(g.faces) + 1 == 2
        # every half-edge is used exactly once over all face walks
        n_half = sum(len(d) for d in g.adj.values())
        assert sum(len(f.walk) for f in g.faces) + len(g.outer_walk) == n_half


def test_winding_against_north_ray_and_greens_theorem():
    rng = np.random.default_rng(15)
    words = CORPUS_WORDS + [random_loop(rng, 18).word for _ in range(60)]
    for w in words:
        lp = Loop(w)
        g = build_graph(lp)
        windings = exponent_sums(decompose(lp, lasso_basis(g)).letters, g)
        assert windings == north_ray_profile(lp, g)
        # sum of winding * area over faces = signed area of the loop
        total = sum(n * f.area for n, f in zip(windings, g.faces))
        assert 2 * total == shoelace2(lp.word)


def test_lasso_words_are_reduced_with_unit_winding():
    rng = np.random.default_rng(16)
    words = CORPUS_WORDS + [random_loop(rng, 16).word for _ in range(30)]
    for w in words:
        g = build_graph(Loop(w))
        basis = lasso_basis(g)
        for l in basis.lassos:
            raw = l.tail + l.bulk + invert_word(l.tail)
            assert reduce_word(raw) == raw
            prof = north_ray_profile(l.loop(), g)
            assert prof == tuple(1 if f.id == l.face.id else 0 for f in g.faces)


def _roundtrip(loop, basis):
    w = decompose(loop, basis)
    back = w.substitute({l.face.id: l.loop() for l in basis.lassos})
    return w, back


def test_decompose_roundtrip_corpus():
    for word in CORPUS_WORDS:
        lp = Loop(word)
        basis = lasso_basis(build_graph(lp))
        w, back = _roundtrip(lp, basis)
        assert back == lp
        assert exponent_sums(w.letters, basis.graph) == north_ray_profile(lp, basis.graph)


def test_decompose_roundtrip_random_200():
    rng = np.random.default_rng(17)
    for i in range(200):
        loops = [random_loop(rng, 24)]
        if i % 3 == 0:  # multi-loop drawings share one basis
            loops.append(random_loop(rng, 12))
        g = build_graph(loops)
        basis = lasso_basis(g)
        for lp in loops:
            w, back = _roundtrip(lp, basis)
            assert back == lp
            assert exponent_sums(w.letters, g) == north_ray_profile(lp, g)


def test_decompose_with_alternate_tree_priority():
    rng = np.random.default_rng(18)
    for word in CORPUS_WORDS + [random_loop(rng, 20).word for _ in range(20)]:
        lp = Loop(word)
        g = build_graph(lp)
        for priority in ("NESW", "WSEN"):
            basis = lasso_basis(g, priority)
            w, back = _roundtrip(lp, basis)
            assert back == lp


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3))
def test_decompose_roundtrip_and_windings_on_random_drawings(seed, count):
    rng = np.random.default_rng(seed)
    loops = [random_loop(rng, 24) for _ in range(count)]
    g = build_graph(loops)
    for priority in ("NESW", "WSEN"):
        basis = lasso_basis(g, priority)
        for lp in loops:
            w, back = _roundtrip(lp, basis)
            assert back == lp
            assert exponent_sums(w.letters, g) == north_ray_profile(lp, g)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), priority=st.sampled_from(["NESW", "WSEN"]))
def test_lasso_words_match_the_crossing_word(seed, priority):
    loop = random_loop(np.random.default_rng(seed), 40)
    assert crossing_mismatch(loop, priority) is None


def test_crossing_word_catches_an_inverted_solved_letter(monkeypatch):
    # A basis whose first solved edge has its first letter inverted: the
    # crossing word must see the broken lasso words.
    solve_edges = planar._solve_edges

    def inverted(lassos, tree):
        solved = solve_edges(lassos, tree)
        if solved:
            edge = next(iter(solved))
            (fid, sign), *rest = solved[edge].letters
            solved[edge] = LassoWord([(fid, -sign), *rest])
        return solved

    rng = np.random.default_rng(2026)
    loops = [Loop("NESW"), Loop("NESENWSW")] + [random_loop(rng, 24) for _ in range(50)]
    assert all(crossing_mismatch(lp) is None for lp in loops)
    monkeypatch.setattr(planar, "_solve_edges", inverted)
    assert all(crossing_mismatch(lp) is not None for lp in loops)


def test_decompose_rejects_loop_off_graph():
    basis = lasso_basis(build_graph(Loop("NESW")))
    with pytest.raises(ValueError, match="loop not drawn on graph"):
        decompose(Loop("NNEESSWW"), basis)


def test_products_of_lassos_decompose_to_themselves():
    g = build_graph(Loop("NESWEENWSWEEENWSWW"))
    basis = lasso_basis(g)
    loops = [l.loop() for l in basis.lassos]
    lp = loops[0] * loops[2].inverse() * loops[1] * loops[0]
    w = decompose(lp, basis)
    letters = [(0, 1), (2, -1), (1, 1), (0, 1)]
    assert list(w.letters) == letters


def test_braid_group_relations():
    rng = np.random.default_rng(19)
    for _ in range(20):
        xs = tuple(random_loop(rng, 10) for _ in range(4))
        assert braid_act([1, 2, 1], xs) == braid_act([2, 1, 2], xs)
        assert braid_act([2, 3, 2], xs) == braid_act([3, 2, 3], xs)
        assert braid_act([1, 3], xs) == braid_act([3, 1], xs)
        for g in (1, 2, 3):
            assert braid_act([g, -g], xs) == xs
            assert braid_act([-g, g], xs) == xs
        # substitution composes like a homomorphism
        a = [int(k) for k in rng.integers(1, 4, size=3)]
        b = [int(k) for k in rng.integers(1, 4, size=3)]
        assert braid_act(a + b, xs) == braid_act(a, braid_act(b, xs))


def test_braid_permutation_tracks_conjugacy_classes():
    rng = np.random.default_rng(20)
    base = tuple(random_loop(rng, 8) for _ in range(4))
    for _ in range(25):
        braid = [int(s) * int(k) for s, k in zip(rng.choice([-1, 1], 6), rng.integers(1, 4, 6))]
        out = braid_act(braid, base)
        src = braid_permutation(braid, 4)
        for j in range(4):
            # out[j] is a conjugate of base[src[j]]: same abelianised image
            g = build_graph(list(base) + list(out))
            assert north_ray_profile(out[j], g) == north_ray_profile(base[src[j]], g)


def test_braid_out_of_range():
    xs = (Loop("NESW"), Loop("ENWS"))
    with pytest.raises(ValueError, match="out of range"):
        braid_act([2], xs)
    with pytest.raises(ValueError, match="out of range"):
        braid_act([0], xs)


def test_trivial_and_tree_only_drawings():
    g = build_graph(Loop(""))
    assert g.faces == [] and g.total_area == 0
    basis = lasso_basis(g)
    assert decompose(Loop(""), basis).letters == ()
    # a backtracking word reduces to nothing before drawing
    g2 = build_graph(Loop("NESWWSEN"[:0]))
    assert g2.faces == []


# Pinned digests: any change to face numbering, boundary rotation, lasso
# choice or the way random_loop consumes its generator changes them.
GOLDEN_LASSO_WORDS = "bf4855ec4128aab1cd1ae1a0fdbc7b11d6e6e2318941d3cfd5d994826babd4b3"
GOLDEN_FACES = "e64a6d187bc6775ebad358376324b1d0abd52f4738930d315655982366e93cfb"
GOLDEN_RANDOM_LOOPS = "78f5c184999437995c40199ecf9b17c232a92499ab2b30a00e6d3ca9ab0cecfb"


def test_lasso_words_golden_digest():
    rng = np.random.default_rng(2024)
    words = CORPUS_WORDS + [random_loop(rng).word for _ in range(300)]
    h = hashlib.sha256()
    for priority in ("NESW", "WSEN"):
        for w in words:
            letters, areas = _lasso_word(Loop(w), priority)
            h.update(repr((letters, tuple(map(float, areas)))).encode())
    assert h.hexdigest() == GOLDEN_LASSO_WORDS


def test_faces_golden_digest():
    rng = np.random.default_rng(7)
    words = CORPUS_WORDS + [random_loop(rng, 40).word for _ in range(500)]
    h = hashlib.sha256()
    for w in words:
        g = build_graph([Loop(w)])
        for f in g.faces:
            h.update(repr((f.id, f.walk, f.word, f.area, f.cell)).encode())
        h.update(repr((g.outer_walk, g.total_area)).encode())
    assert h.hexdigest() == GOLDEN_FACES


def test_random_loop_refuses_lengths_below_four():
    rng = np.random.default_rng(0)
    for max_len in (3, 2, 0, -4):
        with pytest.raises(ValueError, match="max_len must be >= 4"):
            random_loop(rng, max_len=max_len)
    assert len(random_loop(rng, max_len=4)) == 4


def test_random_loop_golden_digest():
    h = hashlib.sha256()
    for seed in (1, 5):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            h.update(random_loop(rng).word.encode() + b"\n")
    assert h.hexdigest() == GOLDEN_RANDOM_LOOPS
