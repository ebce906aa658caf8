"""Exact field evaluation on lattice loops, plus the invariance sweeps."""

import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masterfield.freeprob import product_state
from masterfield.holonomy import (
    DEFAULT_CORPUS,
    CheckReport,
    HolonomyField,
    _combinatorics,
    _lasso_word,
    check_area_invariance,
    check_braid_invariance,
    check_gauge_invariance_scalar,
    check_infinite_divisibility,
    evaluate,
    loop_observable,
)
from masterfield.levy import fubm_moment, state_at
from masterfield.planar import (
    Loop,
    build_graph,
    decompose,
    lasso_basis,
    random_loop,
)
from test_planar import north_ray_profile


FIELD = HolonomyField()


def test_simple_loops_reproduce_semigroup_moments():
    """A simple loop of area A evaluates to m_k(A * t_scale), exactly."""
    for word, area in [("NESW", 1), ("NEESWW", 2), ("NEEESWWW", 3), ("NNEESSWW", 4)]:
        for k in range(7):
            got = evaluate(FIELD, word, k).value
            assert got == pytest.approx(fubm_moment(float(area), k), abs=1e-12)


def test_t_scale_rescales_face_areas():
    field = HolonomyField(t_scale=0.5)
    for k in range(1, 6):
        assert evaluate(field, "NNEESSWW", k).value == pytest.approx(
            fubm_moment(2.0, k), abs=1e-12
        )
    assert evaluate(field, "NESW", 2).value == pytest.approx(
        fubm_moment(0.5, 2), abs=1e-12
    )


def test_winding_twice_doubles_the_power():
    # The doubly-wound square carries letter (0, +-1) twice, so its k-th
    # moment is the (2k)-th moment of the unit-area state.
    for k in range(1, 4):
        got = evaluate(FIELD, "NESWNESW", k).value
        assert got == pytest.approx(fubm_moment(1.0, 2 * k), abs=1e-12)


def test_constant_loop_and_zero_power():
    assert evaluate(FIELD, Loop(""), 5).value == 1.0
    assert evaluate(FIELD, "NESW", 0).value == 1.0
    assert evaluate(FIELD, Loop(""), 0).method == "exact"


def test_figure_eight_separates_the_three_products():
    """The two lobes traverse with opposite signs; k=2 sees the product rule."""
    values = {}
    for product in ("free", "boolean", "tensor"):
        field = HolonomyField(product=product)
        assert evaluate(field, "NESENWSW", 1).value == pytest.approx(
            math.exp(-1.0), abs=1e-14
        )
        values[product] = evaluate(field, "NESENWSW", 2).value
    assert values["free"] == pytest.approx(-math.exp(-2.0), abs=1e-14)
    assert values["boolean"] == pytest.approx(math.exp(-2.0), abs=1e-14)
    assert values["tensor"] == pytest.approx(0.0, abs=1e-14)


def test_disjoint_product_is_a_homomorphism():
    """Concatenating far-apart simple loops multiplies independent holonomies."""
    two = Loop("NESW") * Loop("EENESWWW")
    lassos, letters = loop_observable(two)
    assert sorted(a for a, _ in lassos) == [1.0, 1.0]
    marginals = [state_at(1.0), state_at(1.0)]
    ps = product_state(marginals, "free")
    for k in range(1, 5):
        got = evaluate(FIELD, two, k).value
        assert got == pytest.approx(ps.moment(tuple(letters) * k), abs=1e-12)
        # free multiplicative convolution of two unit-area states = area-2 state
        assert got == pytest.approx(fubm_moment(2.0, k), abs=1e-12)


def test_conjugation_and_inversion_invariance():
    l1 = Loop("NESW")
    l2 = Loop("EENESWWW")
    conjugated = l1 * l2 * l1.inverse()
    for k in range(1, 4):
        assert evaluate(FIELD, conjugated, k).value == pytest.approx(
            evaluate(FIELD, l2, k).value, abs=1e-12
        )
    staircase = Loop("NNESESWW")
    for k in range(1, 4):
        assert evaluate(FIELD, staircase.inverse(), k).value == pytest.approx(
            evaluate(FIELD, staircase, k).value, abs=1e-12
        )


def test_boolean_and_tensor_fields_are_negative_controls():
    # Only the free field is a holonomy field.  These are the ways the two
    # controls fail its invariances; a change to either shows up here.
    free, boolean, tensor = (HolonomyField(product) for product in HolonomyField.PRODUCTS)
    assert check_braid_invariance(free).ok and check_braid_invariance(tensor).ok
    assert check_infinite_divisibility(free).ok
    for check, field, deviation in (
        (check_braid_invariance, boolean, math.exp(-1)),
        (check_infinite_divisibility, boolean, math.exp(-1)),
        (check_infinite_divisibility, tensor, math.exp(-2)),
    ):
        report = check(field)
        assert not report.ok and report.max_deviation == pytest.approx(deviation, abs=1e-12)

    def value(product, word, k, priority="NESW"):
        return evaluate(HolonomyField(product, tree_priority=priority), word, k).value

    # the boolean value depends on the spanning tree: e^{-3/2} against e^{-5/2}
    nesw, wsen = (value("boolean", "SENESWSENWNW", 1, p) for p in ("NESW", "WSEN"))
    assert nesw == pytest.approx(math.exp(-1.5), abs=1e-12)
    assert wsen == pytest.approx(math.exp(-2.5), abs=1e-12)
    assert nesw - wsen == pytest.approx(0.141, abs=5e-4)
    assert value("free", "SENESWSENWNW", 1, "WSEN") == pytest.approx(
        value("free", "SENESWSENWNW", 1, "NESW"), abs=1e-12
    )
    # the tensor value changes when the loop is rotated to start elsewhere
    assert value("tensor", "NESWNEESWNWS", 2) == pytest.approx(0.0, abs=1e-12)
    assert value("tensor", "WNEESWNWSNES", 2) == pytest.approx(-math.exp(-2), abs=1e-12)
    for word in ("NESWNEESWNWS", "WNEESWNWSNES"):
        assert value("free", word, 2) == pytest.approx(-math.exp(-2), abs=1e-12)


def test_spanning_tree_policy_does_not_matter():
    fa = HolonomyField(tree_priority="NESW")
    fb = HolonomyField(tree_priority="WSEN")
    for word in DEFAULT_CORPUS:
        for k in range(1, 4):
            assert evaluate(fa, word, k).value == pytest.approx(
                evaluate(fb, word, k).value, abs=1e-12
            )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_spanning_tree_policy_does_not_matter_on_random_loops(seed):
    word = random_loop(np.random.default_rng(seed), 60).word
    fa = HolonomyField(tree_priority="NESW")
    fb = HolonomyField(tree_priority="WSEN")
    for k in range(1, 4):
        assert evaluate(fa, word, k).value == pytest.approx(
            evaluate(fb, word, k).value, abs=1e-12
        )


def test_subdivided_rectangle_dual_route():
    """Decomposing the 1x2 rectangle over its subdivided graph gives m_k(2)."""
    rect = Loop("NNESSW")
    graph = build_graph([rect, Loop("NESW")])
    basis = lasso_basis(graph)
    letters = decompose(rect, basis).letters
    areas = sorted(l.face.area for l in basis.lassos)
    assert areas == [1.0, 1.0]
    marginals = [state_at(1.0) for _ in basis.lassos]
    ps = product_state(marginals, "free")
    for k in range(1, 6):
        split = ps.moment(tuple(letters) * k)
        assert split == pytest.approx(fubm_moment(2.0, k), abs=1e-12)
        assert split == pytest.approx(evaluate(FIELD, rect, k).value, abs=1e-12)


def test_braid_invariance_sweep():
    report = check_braid_invariance(FIELD, max_len=2)
    assert report.ok
    # 7 one-face loops (identity only), 2 two-face (7 words), 1 three-face (21)
    assert report.cases == 7 + 2 * 7 + 21
    assert report.max_deviation < 1e-10


def test_braid_invariance_with_unequal_areas():
    # Faces of areas 1, 1 and 2: slot permutations act on distinct marginals.
    triple = Loop("NESW") * Loop("EENESWWW") * Loop("EEEENEESWWWWWW")
    lassos, _ = loop_observable(triple)
    assert sorted(a for a, _ in lassos) == [1.0, 1.0, 2.0]
    report = check_braid_invariance(FIELD, loops=[triple], max_len=3, max_strands=3)
    assert report.ok
    assert report.cases == 85  # all braid words of length <= 3 on 2 generators
    wide = Loop("NNEESSWW") * Loop("EEENESWWWW")
    report = check_braid_invariance(FIELD, loops=[wide], max_len=3)
    assert report.ok and report.cases == 15


def test_infinite_divisibility_sweep():
    report = check_infinite_divisibility(FIELD)
    assert report.ok
    assert report.cases == 25
    assert report.max_deviation < 1e-10


def test_area_invariance_sweep_and_ill_posed_pair():
    report = check_area_invariance(FIELD)
    assert report.ok
    assert report.cases == 12
    with pytest.raises(ValueError, match="not comparable"):
        check_area_invariance(FIELD, pairs=[("NESW", "NEESWW")])


def test_combinatorics_from_the_shape_match_the_graph():
    # Oracle: face count, areas and windings read off a fresh drawing.
    rng = np.random.default_rng(17)
    words = list(DEFAULT_CORPUS) + [random_loop(rng, 24).word for _ in range(400)]
    for w in words:
        loop = Loop(w)
        graph = build_graph([loop])
        want = (
            len(graph.faces),
            tuple(sorted(f.area for f in graph.faces)),
            tuple(sorted(abs(n) for n in north_ray_profile(loop, graph))),
        )
        for priority in ("NESW", "WSEN"):
            assert _combinatorics(_lasso_word(loop, priority)) == want, (w, priority)
    # NESWNESW winds twice around its one face, so NESW is no match for it
    assert _combinatorics(_lasso_word(Loop("NESWNESW"), "NESW")) == (1, (1,), (2,))
    with pytest.raises(ValueError, match="not comparable"):
        check_area_invariance(FIELD, pairs=[("NESWNESW", "NESW")])


def test_gauge_invariance_scalar_sweep():
    report = check_gauge_invariance_scalar(FIELD)
    assert report.ok
    assert report.cases == 30
    assert report.max_deviation < 1e-10


def test_check_report_surfaces_failures():
    report = CheckReport("demo", tol=1e-10)
    report.record("fine", 0.0)
    report.record("broken", 3e-4)
    assert not report.ok
    assert report.failures == [("broken", 3e-4)]
    assert "FAIL" in report.lines()[0]
    assert any("broken" in line for line in report.lines()[1:])


def test_check_report_fails_on_nan():
    report = CheckReport("demo", tol=1e-10)
    report.record("fine", 0.0)
    report.record("undefined", math.nan)
    report.record("small", 1e-12)
    assert not report.ok
    assert [label for label, _ in report.failures] == ["undefined"]
    assert math.isnan(report.max_deviation)
    assert "FAIL" in report.lines()[0]


def test_values_stay_in_the_unit_disk():
    for word in DEFAULT_CORPUS:
        for k in range(1, 6):
            value = evaluate(FIELD, word, k).value
            assert isinstance(value, float)
            assert abs(value) <= 1.0 + 1e-12


@pytest.mark.parametrize("product", HolonomyField.PRODUCTS)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_values_stay_in_the_unit_disk_on_random_loops(product, seed):
    word = random_loop(np.random.default_rng(seed), 60).word
    field = HolonomyField(product=product)
    for k in range(1, 4):
        assert abs(evaluate(field, word, k).value) <= 1.0 + 1e-12


@pytest.mark.parametrize("product", HolonomyField.PRODUCTS)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_inverse_loop_takes_the_conjugate_value(product, seed):
    loop = random_loop(np.random.default_rng(seed), 30)
    field = HolonomyField(product=product)
    for k in range(1, 4):
        forward = evaluate(field, loop, k).value
        assert abs(evaluate(field, loop.inverse(), k).value - forward.conjugate()) <= 1e-12


def irreducible_core(letters):
    """Cyclically reduce a lasso word, drop every letter whose face occurs
    once, and repeat until nothing changes."""
    letters = list(letters)
    while True:
        out = []
        for face, sign in letters:
            if out and out[-1] == (face, -sign):
                out.pop()
            else:
                out.append((face, sign))
        while len(out) > 1 and out[0] == (out[-1][0], -out[-1][1]):
            out = out[1:-1]
        faces = Counter(face for face, _ in out)
        core = [letter for letter in out if faces[letter[0]] > 1]
        if core == letters:
            return core
        letters = core


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_free_field_invariances_on_irreducible_cores(seed):
    # The first random loop from the seed whose core keeps two faces or
    # more, where the free product's first-block walk has work to do.
    rng = np.random.default_rng(seed)
    while True:
        loop = random_loop(rng, 60)
        if len({face for face, _ in irreducible_core(_lasso_word(loop, "NESW")[0])}) >= 2:
            break
    nesw = HolonomyField("free", tree_priority="NESW")
    wsen = HolonomyField("free", tree_priority="WSEN")
    for k in (1, 2):
        value = evaluate(nesw, loop, k).value
        assert abs(evaluate(wsen, loop, k).value - value) <= 1e-12
        assert abs(evaluate(nesw, loop.inverse(), k).value - value.conjugate()) <= 1e-12


@pytest.mark.parametrize(
    "scaled_area",
    [
        lambda t: HolonomyField(t_scale=t).t_scale,
        lambda t: loop_observable("NESW", t_scale=t)[0][0][0],
    ],
    ids=["HolonomyField", "loop_observable"],
)
def test_one_t_scale_rule_for_fields_and_observables(scaled_area):
    # a real number, not a bool, positive and finite; NESW has area 1
    assert scaled_area(2) == scaled_area(2.0) == 2.0
    for bad in (-1.0, 0, -math.inf, math.inf, math.nan, "1", None, True, False):
        with pytest.raises(ValueError, match="t_scale"):
            scaled_area(bad)


def test_loop_observable_layout():
    lassos, letters = loop_observable("NESENWSW")
    assert lassos == [(1.0, 1), (1.0, 1)]
    assert sorted(abs(e) for _, e in letters) == [1, 1]
    half, _ = loop_observable("NESW", t_scale=0.5)
    assert half == [(0.5, 1)]


def test_field_validation_and_inexact_refusal():
    with pytest.raises(ValueError, match="product"):
        HolonomyField(product="spherical")
    for bad in (0.0, math.inf, math.nan, "1", None):
        with pytest.raises(ValueError, match="t_scale"):
            HolonomyField(t_scale=bad)
    for bad in ("NNNN", "NES", "NESWN", None):
        with pytest.raises(ValueError, match="permutation of NESW"):
            HolonomyField(tree_priority=bad)
    with pytest.raises(ValueError, match="not finite"):
        evaluate(HolonomyField(t_scale=1e308), "NNEESSWW")
    with pytest.raises(ValueError, match="not finite"):
        loop_observable("NESW", t_scale=math.nan)
    with pytest.raises(ValueError, match="power"):
        evaluate(FIELD, "NESW", -1)
    for bad in (2.0, True, False, "2", None):
        with pytest.raises(ValueError, match="power must be an integer"):
            evaluate(FIELD, "NESW", bad)
    got = evaluate(FIELD, "NESW", np.int64(2))
    assert got.observable == 2 and type(got.observable) is int
    assert got.value == evaluate(FIELD, "NESW", 2).value
    with pytest.raises(ValueError):
        evaluate(FIELD, "NE")  # not closed


def test_longest_corpus_loop_at_power_seven():
    # recorded with the subset expansion the cumulant route replaced
    value = evaluate(HolonomyField(), "NESWNEESWNWSEENESWWW", 7).value
    assert value == pytest.approx(0.016963485416296217, abs=1e-12)


@pytest.mark.parametrize("product", HolonomyField.PRODUCTS)
def test_one_field_matches_a_fresh_field_per_loop(product):
    """Shared contexts and states give every value a fresh field gives."""
    calls = [(w, k) for w in DEFAULT_CORPUS for k in range(1, 7)]
    want = {}
    for w in DEFAULT_CORPUS:
        fresh = HolonomyField(product=product)
        for k in range(1, 7):
            want[w, k] = evaluate(fresh, w, k).value
    for seed in (0, 1, 2):
        random.Random(seed).shuffle(calls)
        field = HolonomyField(product=product)
        for w, k in calls:
            assert evaluate(field, w, k).value == want[w, k]


def test_field_holds_one_state_per_area_tuple():
    rng = np.random.default_rng(3)
    words = list(DEFAULT_CORPUS) + [random_loop(rng).word for _ in range(100)]
    field = HolonomyField(t_scale=0.5)
    for w in words:
        evaluate(field, w, 2)
    shapes = field._shapes
    assert set(shapes) == {Loop(w).word for w in words}
    for w, shape in shapes.items():
        assert shape == _lasso_word(Loop(w), field.tree_priority)
    tuples = {areas for _, areas in shapes.values()}
    assert set(field._states) == tuples
    assert len(field._states) < len(shapes)
    fresh = HolonomyField()
    assert fresh._shapes == {} and fresh._states == {}


# Pinned digest of the exact route: `repr` of every value below.  A change
# that moves exact values by up to 1e-12 (such as peeling faces that occur
# once) re-pins it and says so in CHANGES.md.
GOLDEN_EVALUATE = "a3a8a43b03f0f0c96f1c311b987fbe75e51788bb69029e750a874432cb1a7fc7"


def test_evaluate_golden_digest():
    rng = np.random.default_rng(20261019)
    words = list(DEFAULT_CORPUS) + [random_loop(rng).word for _ in range(150)]
    h = hashlib.sha256()
    for product in HolonomyField.PRODUCTS:
        for t_scale in (1.0, 0.37):
            field = HolonomyField(product=product, t_scale=t_scale)
            for w in words:
                for k in range(1, 4):
                    h.update(repr(evaluate(field, w, k).value).encode())
    assert h.hexdigest() == GOLDEN_EVALUATE
