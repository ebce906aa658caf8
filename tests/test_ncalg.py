"""Structural identities of the generator word algebra.

The independent oracle here is matrix substitution: every identity between
elements must also hold numerically after replacing each copy tag by an
actual random unitary matrix and each letter by the corresponding entry.
"""

import hashlib

import numpy as np
import pytest

from masterfield.ncalg import (
    AXIOM_NAMES,
    Element,
    Letter,
    ZhangAlgebra,
    verify_axiom,
)
import oracles

NEEDS_UNITARITY = {
    "coassoc": False,
    "counit_left": False,
    "counit_right": False,
    "antipode_left": True,
    "antipode_right": True,
    "antipode_anticomorphism": False,
    "coaction_assoc": False,
    "coaction_counit": False,
    "delta_comodule": True,
}


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def eval_element(elem, mats):
    total = 0j
    for word, c in elem.terms.items():
        v = complex(c)
        for L in word:
            e = mats[L.copy][L.i, L.j]
            v *= e.conjugate() if L.star else e
        total += v
    return total


def test_all_axioms_hold_for_n_1_2_3():
    for n in (1, 2, 3):
        for name in AXIOM_NAMES:
            report = verify_axiom(name, n)
            assert report.holds, report.line()
            assert report.needs_unitarity == NEEDS_UNITARITY[name], report.line()


def test_axiom_sides_agree_under_matrix_substitution():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        A = ZhangAlgebra(n)
        mats = {c: random_unitary(rng, n) for c in range(4)}
        for name in AXIOM_NAMES:
            for L in A.generators():
                lhs, rhs = A.axiom_sides(name, L)
                assert abs(eval_element(lhs, mats) - eval_element(rhs, mats)) < 1e-10, (
                    name,
                    L,
                )


def test_unitarity_reduce_preserves_matrix_value():
    rng = np.random.default_rng(22)
    n = 3
    A = ZhangAlgebra(n)
    mats = {c: random_unitary(rng, n) for c in range(3)}
    # plant complete families inside random noise terms
    noise = Element({(Letter(0, 1, False, 1), Letter(2, 2, True, 2)): 5})
    fam = Element.zero()
    for k in range(n):
        w = (Letter(1, 2, False, 2), Letter(0, k, False, 1), Letter(2, k, True, 1))
        fam = fam + Element({w: 3})
    x = noise + fam
    red = A.unitarity_reduce(x)
    assert abs(eval_element(x, mats) - eval_element(red, mats)) < 1e-10
    # the off-diagonal family vanished entirely
    assert red == noise


def test_unitarity_reduce_diagonal_and_incomplete_families():
    n = 2
    A = ZhangAlgebra(n)
    # complete diagonal row family -> the unit
    fam = Element.zero()
    for k in range(n):
        fam = fam + Element({(Letter(0, k, False, 1), Letter(0, k, True, 1)): 7})
    assert A.unitarity_reduce(fam) == Element.unit(7)
    # complete column family, off-diagonal -> zero
    fam = Element.zero()
    for k in range(n):
        fam = fam + Element({(Letter(k, 0, True, 1), Letter(k, 1, False, 1)): 2})
    assert A.unitarity_reduce(fam).is_zero()
    # missing one k: nothing happens
    part = Element({(Letter(0, 0, False, 1), Letter(0, 0, True, 1)): 1})
    assert A.unitarity_reduce(part) == part
    # mismatched coefficients: nothing happens
    fam = Element({(Letter(0, 0, False, 1), Letter(0, 0, True, 1)): 1,
                   (Letter(0, 1, False, 1), Letter(0, 1, True, 1)): 2})
    assert A.unitarity_reduce(fam) == fam
    # letters in different copies never contract
    fam = Element.zero()
    for k in range(n):
        fam = fam + Element({(Letter(0, k, False, 1), Letter(0, k, True, 2)): 1})
    assert A.unitarity_reduce(fam) == fam


def test_negative_controls_fail_with_counterexamples():
    cases = [
        ("coassoc", 2, "delta_flip"),
        ("counit_left", 2, "delta_flip"),
        ("antipode_left", 2, "antipode_no_star"),
        ("antipode_right", 2, "antipode_no_star"),
        ("counit_left", 2, "counit_ones"),
        ("counit_right", 2, "counit_ones"),
        ("coaction_counit", 2, "omega_swap_tags"),
    ]
    for name, n, corrupt in cases:
        report = oracles.verify_axiom(name, n, corrupt=corrupt)
        assert not report.holds, (name, corrupt)
        assert report.counterexample, (name, corrupt)


def test_unknown_axiom_and_corruption_raise():
    with pytest.raises(ValueError, match="unknown axiom"):
        verify_axiom("coassociativity", 2)
    with pytest.raises(ValueError, match="unknown corruption"):
        oracles.zhang_algebra(2, corrupt="nope")


def test_the_algebra_has_no_sabotage_option():
    # a broken map is a test-side subclass (tests/oracles.py), not an option
    with pytest.raises(TypeError):
        ZhangAlgebra(2, corrupt="delta_flip")
    with pytest.raises(TypeError):
        verify_axiom("coassoc", 2, corrupt="delta_flip")


def test_antipode_is_an_involution_and_star_laws():
    A = ZhangAlgebra(3)
    rng = np.random.default_rng(23)
    xs = []
    for _ in range(10):
        w = tuple(
            Letter(int(rng.integers(3)), int(rng.integers(3)), bool(rng.integers(2)), 1)
            for _ in range(int(rng.integers(1, 4)))
        )
        xs.append(Element({w: int(rng.integers(1, 5))}))
    for x in xs:
        assert A.antipode(A.antipode(x)) == x
        assert x.star().star() == x
    for x in xs:
        for y in xs:
            assert (x * y).star() == y.star() * x.star()
            # the coproduct respects the involution
            assert A.delta(x * y) == A.delta(x) * A.delta(y)
    for x in xs:
        assert A.delta(x.star()) == A.delta(x).star()


def test_generator_index_validation():
    with pytest.raises(ValueError, match=">= 1"):
        ZhangAlgebra(0)
    for bad in (True, False, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="matrix size must be an integer"):
            ZhangAlgebra(bad)
    with pytest.raises(ValueError, match="matrix size must be an integer"):
        verify_axiom("coassoc", True)
    algebra = ZhangAlgebra(np.int64(2))
    assert algebra.n == 2 and type(algebra.n) is int
    assert verify_axiom("coassoc", np.int64(2)) == verify_axiom("coassoc", 2)


def _axiom_digest():
    h = hashlib.sha256()
    configs = [(n, None) for n in (1, 2, 3)]
    corruptions = ("delta_flip", "antipode_no_star", "counit_ones", "omega_swap_tags")
    configs += [(2, c) for c in corruptions]
    for n, corrupt in configs:
        A = oracles.zhang_algebra(n, corrupt)
        for name in AXIOM_NAMES:
            for L in A.generators():
                for side in A.axiom_sides(name, L):
                    h.update(repr(sorted(side.terms.items())).encode())
            r = A.verify_axiom(name)
            h.update(repr((r.holds, r.needs_unitarity, r.counterexample)).encode())
    return h.hexdigest()


def test_every_axiom_side_matches_its_golden_terms():
    # exact terms of both sides, generator by generator, and every report,
    # at n = 1, 2, 3 and at n = 2 under each corruption
    assert _axiom_digest() == (
        "7df1cc6f3576c4d3523be07401bf9440804ce6f5eff5b2c7f023efce3a1184a3"
    )
