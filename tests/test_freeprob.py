"""Noncrossing combinatorics and products of states.

Independent oracles: all set partitions filtered by an explicit crossing
test, moment/cumulant round trips on random rational tables, and the free
product's defining centering recursion.
"""

import itertools
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from masterfield.freeprob import (
    State,
    _cyclic_canonical,
    _least_rotation,
    _runs,
    haar_unitary_state,
    product_state,
)
from masterfield.levy import fubm_moment, state_at
from masterfield.planar import build_graph, decompose, lasso_basis, random_loop
from oracles import (
    catalan,
    cumulants_from_moments,
    enumerate_nc,
    joint_cumulants_check_conjugation,
    moments_from_cumulants,
    semicircle_state,
)


def all_set_partitions(k):
    if k == 0:
        yield ()
        return
    for smaller in all_set_partitions(k - 1):
        x = k - 1
        for i in range(len(smaller)):
            yield smaller[:i] + (smaller[i] + (x,),) + smaller[i + 1 :]
        yield smaller + ((x,),)


def crossing(partition):
    blocks = [set(b) for b in partition]
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            for a in blocks[i]:
                for c in blocks[i]:
                    for b in blocks[j]:
                        for d in blocks[j]:
                            if a < b < c < d:
                                return True
    return False


def canon(partition):
    return frozenset(frozenset(b) for b in partition)


def rational_noise(word, lo=-3, hi=4):
    h = zlib.crc32(repr(word).encode())
    return Fraction(h % (hi - lo) + lo, 1 + h % 5)


def test_nc_counts_are_catalan_to_10():
    for k in range(11):
        assert len(enumerate_nc(k)) == catalan(k)


def test_nc_matches_brute_force_filter():
    for k in range(8):
        brute = {canon(p) for p in all_set_partitions(k) if not crossing(p)}
        mine = {canon(p) for p in enumerate_nc(k)}
        assert brute == mine


def test_enumeration_caps():
    for bad in (13, -1, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="supports"):
            enumerate_nc(bad)
    assert enumerate_nc(np.int64(3)) == enumerate_nc(3)


def test_moment_cumulant_round_trip_single_variable():
    kap = {("x",) * m: rational_noise(("k", m)) for m in range(1, 9)}
    mom = {}
    for m in range(1, 9):
        w = ("x",) * m
        mom[w] = moments_from_cumulants(w, lambda u: kap[u])
    for m in range(1, 9):
        w = ("x",) * m
        back = cumulants_from_moments(w, lambda u: mom[u])
        assert back == kap[w]


def test_moment_cumulant_round_trip_two_letters():
    def kap(word):
        return rational_noise(word)

    words = []
    for L in range(1, 7):
        for bits in range(2**L):
            words.append(tuple("ab"[bits >> i & 1] for i in range(L)))
    mom = {w: moments_from_cumulants(w, kap) for w in words}
    for w in words:
        assert cumulants_from_moments(w, lambda u: mom[u]) == kap(w)


def test_moments_from_random_moments_round_trip_other_direction():
    mom = {("x",) * m: rational_noise(("m", m)) for m in range(1, 8)}
    kap = {}
    for m in range(1, 8):
        w = ("x",) * m
        kap[w] = cumulants_from_moments(w, lambda u: mom[u])
    for m in range(1, 8):
        w = ("x",) * m
        assert moments_from_cumulants(w, lambda u: kap[u]) == mom[w]


def _abc_states(tracial=False):
    def make(tag):
        if tracial:
            # moment depends only on the letter multiset: cyclically invariant
            return State(
                lambda w, t=tag: rational_noise((t,) + tuple(sorted(w))),
                name=tag,
                tracial=True,
            )
        return State(lambda w, t=tag: rational_noise((t,) + w), name=tag, tracial=False)

    return [make("X"), make("Y"), make("Z")]


def test_free_product_low_order_values():
    A = State(lambda w: Fraction(2) ** len(w), "A", tracial=True)
    B = State(lambda w: Fraction(3) ** len(w), "B", tracial=True)
    free = product_state([A, B], "free")
    a, b = (0, "a"), (1, "b")
    assert free.moment(()) == 1
    assert free.moment((a,)) == 2
    assert free.moment((a, b)) == 6
    # middle letter factors out against the outer product
    assert free.moment((a, b, a)) == B.moment(("b",)) * A.moment(("a", "a"))
    boolean = product_state([A, B], "boolean")
    assert boolean.moment((a, b, a)) == 2 * 3 * 2
    tensor = product_state([A, B], "tensor")
    assert tensor.moment((a, b, a, b)) == A.moment(("a", "a")) * B.moment(("b", "b"))
    with pytest.raises(ValueError, match="unknown product kind"):
        product_state([A, B], "projective")
    with pytest.raises(ValueError, match="factor index"):
        free.moment(((5, "a"),))


def centering_moment(factors, word, memo):
    """Free moment by its defining recursion: alternating centred blocks have zero mean.

    Over the word's same-factor blocks, the moment is minus the sum, over
    every nonempty set S of blocks, of (-mean) for each block of S times the
    moment of the word with S removed and same-factor neighbours merged.
    """
    blocks = []
    for f, s in word:
        if blocks and blocks[-1][0] == f:
            blocks[-1] = (f, blocks[-1][1] + (s,))
        else:
            blocks.append((f, (s,)))
    return _centering(factors, tuple(blocks), memo)


def _centering(factors, blocks, memo):
    if not blocks:
        return 1
    if len(blocks) == 1:
        f, syms = blocks[0]
        return factors[f].moment(syms)
    if blocks in memo:
        return memo[blocks]
    p = len(blocks)
    means = [factors[f].moment(syms) for f, syms in blocks]
    total = 0
    for mask in range(1, 1 << p):
        coeff = 1
        kept = []
        for i in range(p):
            if mask >> i & 1:
                if means[i] == 0:
                    coeff = 0
                    break
                coeff *= -means[i]
            else:
                kept.append(blocks[i])
        if coeff == 0:
            continue
        merged = []
        for f, syms in kept:
            if merged and merged[-1][0] == f:
                merged[-1] = (f, merged[-1][1] + syms)
            else:
                merged.append((f, syms))
        total += -coeff * _centering(factors, tuple(merged), memo)
    memo[blocks] = total
    return total


def test_free_centering_equals_cumulant_expansion():
    import random

    random.seed(31)
    for tracial in (False, True):
        base = _abc_states(tracial)
        memo = {}
        pk = product_state(_abc_states(tracial), "free")
        for L in range(1, 9):
            for _ in range(25):
                w = tuple((random.randrange(3), random.choice("pq")) for _ in range(L))
                assert centering_moment(base, w, memo) == pk.moment(w), (tracial, w)


def test_free_product_of_tracial_states_is_tracial():
    import random

    random.seed(32)
    # tracial marginals, but canonicalisation disabled by lying about traciality:
    # cyclic invariance of the result is then a theorem, not bookkeeping
    states = []
    for tag in "XY":
        states.append(
            State(
                lambda w, t=tag: rational_noise((t,) + tuple(sorted(w))),
                name=tag,
                tracial=False,
            )
        )
    ps = product_state(states, "free")
    for L in range(2, 7):
        for _ in range(15):
            w = tuple((random.randrange(2), random.choice("pq")) for _ in range(L))
            for r in range(1, L):
                assert ps.moment(w) == ps.moment(w[r:] + w[:r]), (w, r)


def test_nested_free_product_association():
    X, Y, Z = _abc_states(False)
    flat = product_state([X, Y, Z], "free")
    inner = product_state([X, Y], "free")
    nested = product_state([inner, Z], "free")

    def embed(word):
        out = []
        for f, s in word:
            if f < 2:
                out.append((0, (f, s)))
            else:
                out.append((1, s))
        return tuple(out)

    import random

    random.seed(33)
    for L in range(1, 8):
        for _ in range(20):
            w = tuple((random.randrange(3), random.choice("pq")) for _ in range(L))
            assert flat.moment(w) == nested.moment(embed(w)), w


def test_haar_and_semicircle_states():
    v = haar_unitary_state()
    assert v.moment((1, -1)) == 1
    assert v.moment((1, 1, -1, -1)) == 1
    assert v.moment((1, 1, -1)) == 0
    s = semicircle_state()
    for m in range(0, 13):
        want = catalan(m // 2) if m % 2 == 0 else 0
        assert s.moment(("s",) * m) == want
        if m <= 10:
            pairings = [p for p in enumerate_nc(m) if all(len(b) == 2 for b in p)]
            assert s.moment(("s",) * m) == len(pairings)
    with pytest.raises(ValueError, match="symbol 's'"):
        s.moment(("t",))


def test_semicircle_free_cumulants_are_variance_only():
    s = semicircle_state()
    for m in range(1, 7):
        want = 1 if m == 2 else 0
        assert s.joint_cumulant((("s",),) * m) == want


def test_conjugated_moments_match_directly():
    v = haar_unitary_state()
    w = semicircle_state()
    ps = product_state([v, w], "free")
    for m in range(0, 7):
        word = []
        for _ in range(m):
            word += [(0, 1), (1, "s"), (0, -1)]
        assert ps.moment(tuple(word)) == w.moment(("s",) * m), m


def test_conjugation_cumulant_report():
    rep = joint_cumulants_check_conjugation(6)
    assert rep.equal
    for m in range(1, 7):
        val = rep.conjugated[("w",) * m]
        assert isinstance(val, (int, Fraction))
        assert val == (1 if m == 2 else 0)
    for bad in (0, 13, 2.0, True):
        with pytest.raises(ValueError, match="order must be between 1 and 12"):
            joint_cumulants_check_conjugation(bad)


def test_cumulant_of_the_empty_word_is_an_error():
    with pytest.raises(ValueError, match="cumulant of the empty word is undefined"):
        cumulants_from_moments((), lambda u: 1)
    for state in (semicircle_state(), haar_unitary_state(), state_at(1.0)):
        with pytest.raises(ValueError, match="cumulant of the empty word is undefined"):
            state.joint_cumulant(())


def subset_cumulant(moment, words, memo):
    """Free cumulant by the first-block expansion over every subset of positions.

    A plain copy of the expansion the library used before it keyed unitary
    cumulants by net powers and walked chains: each proper subset V holding
    position 0 contributes kappa(V) times the moments of the gap subwords.
    """
    if words in memo:
        return memo[words]
    m = len(words)
    val = moment(sum(words, ()))
    if m > 1:
        for r in range(m - 1):
            for others in itertools.combinations(range(1, m), r):
                V = (0,) + others
                prod = subset_cumulant(moment, tuple(words[i] for i in V), memo)
                bounds = list(V) + [m]
                for a, b in zip(bounds, bounds[1:]):
                    prod *= moment(sum(words[a + 1 : b], ()))
                val -= prod
    memo[words] = val
    return val


_unitary_words = st.lists(
    st.tuples(st.integers(-3, 3), st.booleans()), min_size=1, max_size=7
)


@settings(max_examples=150, deadline=None)
@given(_unitary_words, st.sampled_from([0.5, 1.0, 2.0]))
def test_unitary_cumulant_kernel_matches_subset_expansion(spec, t):
    # each word has net power n; some carry a cancelling (1, -1) pair too
    words = tuple((1 if n > 0 else -1,) * abs(n) + (1, -1) * pad for n, pad in spec)

    def moment(word):
        return fubm_moment(t, sum(word)) if word else 1

    want = subset_cumulant(moment, words, {})
    got = state_at(t).joint_cumulant(words)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_general_cumulant_matches_subset_expansion(words, salt):
    # a non-tracial state with rational moments, some of them zero, on
    # multi-letter words: its gap moments are those of concatenated words
    words = tuple(map(tuple, words))

    def moment(word):
        return rational_noise((salt,) + word) if word else 1

    want = subset_cumulant(moment, words, {})
    assert State(moment, tracial=False).joint_cumulant(words) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_free_centering_equals_cumulant_on_random_loops(seed, k):
    rng = np.random.default_rng(seed)
    # a product of two random loops draws two or three faces most of the time
    loop = random_loop(rng, max_len=8) * random_loop(rng, max_len=8)
    assume(loop.word)
    basis = lasso_basis(build_graph([loop]))
    word = tuple(decompose(loop, basis).letters) * k
    areas = [l.face.area for l in basis.lassos]
    want = centering_moment([state_at(a) for a in areas], word, {})
    got = product_state([state_at(a) for a in areas], "free").moment(word)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_a_state_is_not_tracial_by_default():
    # phi(ab) != phi(ba): a memo that shared rotations here would hand
    # kappa(b, a) the value of kappa(a, b)
    moments = {
        ("a",): Fraction(1),
        ("b",): Fraction(2),
        ("a", "b"): Fraction(5),
        ("b", "a"): Fraction(-3),
    }
    state = State(moments.__getitem__)
    assert not state.tracial
    for words in ((("a",), ("b",)), (("b",), ("a",))):
        assert state.joint_cumulant(words) == subset_cumulant(state.moment, words, {})


def _cyclic_noise(word):
    """Rational moments that depend only on the word's cyclic class, not on its reversal."""
    return rational_noise(min(word[i:] + word[:i] for i in range(len(word))))


# One state per kind for every example, so each example also reads the
# cumulants that rotations in earlier examples stored
_SHARED_UNITARY = {t: state_at(t) for t in (0.5, 1.0, 2.0)}
_SHARED_GENERAL = State(_cyclic_noise, name="cyclic", tracial=True)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=7),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.randoms(use_true_random=False),
)
def test_every_rotation_reads_its_own_cumulant_from_the_shared_memo(powers, t, rnd):
    def unitary_moment(word):
        return fubm_moment(t, sum(word)) if word else 1

    unitary, general = _SHARED_UNITARY[t], _SHARED_GENERAL
    rotations = [powers[i:] + powers[:i] for i in range(len(powers))]
    rnd.shuffle(rotations)
    unitary_memo, general_memo = {}, {}
    for nets in rotations:
        words = tuple((1 if n > 0 else -1,) * abs(n) for n in nets)
        want = subset_cumulant(unitary_moment, words, unitary_memo)
        assert unitary.joint_cumulant(words) == pytest.approx(want, rel=1e-12, abs=1e-12)
        letters = tuple((n,) for n in nets)
        want = subset_cumulant(general.moment, letters, general_memo)
        assert general.joint_cumulant(letters) == pytest.approx(want, rel=1e-12, abs=1e-12)
    words = tuple((1 if n > 0 else -1,) * abs(n) for n in powers)
    got = moments_from_cumulants(words, unitary.joint_cumulant)
    assert got == pytest.approx(unitary.moment(sum(words, ())), rel=1e-12, abs=1e-12)
    letters = tuple((n,) for n in powers)
    assert moments_from_cumulants(letters, general.joint_cumulant) == general.moment(tuple(powers))


def _least_of_every_rotation(seq):
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def _cyclic_canonical_by_every_rotation(blocks):
    """The runs' normal form by brute force: join the end runs while they
    share a factor, then take the least of every rotation."""
    blocks = list(blocks)
    while len(blocks) >= 2 and blocks[0][0] == blocks[-1][0]:
        f, syms = blocks.pop()
        blocks[0] = (f, syms + blocks[0][1])
    if len(blocks) <= 1:
        return tuple(blocks)
    rots = [tuple(blocks[i:] + blocks[:i]) for i in range(len(blocks))]
    return min(rots)


# words over three factors and the exponents +-1, as the holonomy field writes them
_product_words = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from([-1, 1])), min_size=1, max_size=14
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=1, max_size=6), st.integers(1, 3), _product_words)
def test_the_least_rotation_is_the_least_of_every_rotation(body, period, word):
    # a repeated body gives a tuple with its least item once per period
    keys = tuple(body) * period
    assert _least_rotation(keys) == _least_of_every_rotation(keys)
    runs = tuple(_runs(word))
    assert _least_rotation(runs) == _least_of_every_rotation(runs)
    assert _cyclic_canonical(_runs(word)) == _cyclic_canonical_by_every_rotation(_runs(word))


def _boolean_by_letters(factors, word):
    """Each maximal stretch of one factor's letters contributes its moment."""
    out, start = 1, 0
    for i in range(1, len(word) + 1):
        if i == len(word) or word[i][0] != word[start][0]:
            out *= factors[word[start][0]].moment(tuple(s for _, s in word[start:i]))
            start = i
    return out


def _tensor_by_letters(factors, word):
    """Each factor, in order of first appearance, contributes the moment of
    its letters in the order they come."""
    out = 1
    for f in dict.fromkeys(f for f, _ in word):
        out *= factors[f].moment(tuple(s for g, s in word if g == f))
    return out


@settings(max_examples=200, deadline=None)
@given(
    _product_words,
    st.sampled_from(["boolean", "tensor"]),
    st.sampled_from(["unitary", "nested", "ordered"]),
    st.lists(st.integers(0, 1), min_size=14, max_size=14),
)
# factor 1's letters in the order they come, 1 -1 1 1, differ from its runs reversed
@example(((1, 1), (0, 1), (1, -1), (0, 1), (1, 1), (1, 1)), "tensor", "ordered", [0] * 14)
def test_boolean_and_tensor_moments_match_their_letter_by_letter_definitions(
    word, kind, marginals, inner
):
    factors = [state_at(0.5), state_at(1.0), state_at(2.0)]
    if marginals == "nested":
        # factor 0 is itself a free product, whose letters are (factor, exponent)
        factors[0] = product_state([state_at(0.3), state_at(0.8)], "free")
        word = tuple((f, (inner[i], s) if f == 0 else s) for i, (f, s) in enumerate(word))
    elif marginals == "ordered":
        # a face state's moments ignore the order of its letters; these do not
        factors[1] = State(rational_noise, name="ordered")
    want = (_boolean_by_letters if kind == "boolean" else _tensor_by_letters)(factors, word)
    assert product_state(factors, kind).moment(word) == want
