"""Exact field evaluation on lattice loops, plus the invariance sweeps."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masterfield.freeprob import product_state
from masterfield.holonomy import (
    DEFAULT_CORPUS,
    CheckReport,
    HolonomyField,
    check_area_invariance,
    check_braid_invariance,
    check_gauge_invariance_scalar,
    check_infinite_divisibility,
    evaluate,
    loop_observable,
)
from masterfield.levy import fubm_moment, state_at
from masterfield.planar import Loop, build_graph, decompose, lasso_basis, random_loop


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
    contexts = field._contexts.values()
    tuples = {ctx.areas for ctx in contexts}
    assert len(field._states) == len(tuples) < len(contexts)
    for ctx in contexts:
        assert ctx.state is field._states[ctx.areas]
        assert not hasattr(ctx, "basis")
    assert HolonomyField()._states == {}
