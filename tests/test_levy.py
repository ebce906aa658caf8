import decimal
import functools
import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from masterfield.freeprob import product_state
from masterfield.holonomy import HolonomyField, evaluate
from masterfield.levy import _numerators, fubm_moment, fubm_moments, state_at
from oracles import fubm_polynomial

# Test-local oracle: the quadratic moment hierarchy
#     m_k' = -(k/2) m_k - (k/2) sum_{j=1}^{k-1} m_j m_{k-j},  m_k(0) = 1,
# integrated exactly.  With m_k = exp(-k t/2) p_k it reads
#     p_k' = -(k/2) sum_{j=1}^{k-1} p_j p_{k-j},  p_k(0) = 1.
# Each p_k is stored as integers a_i with p_k = sum_i a_i t^i / i!, which
# keeps k = 100 within a second; the pair sum is taken once per unordered
# pair and doubled, so the halving by 2 is exact.
_HIERARCHY = [[1], [1]]


def hierarchy_polynomial(k):
    """Coefficients (constant first) of p_k from the hierarchy, exact."""
    while len(_HIERARCHY) <= k:
        n = len(_HIERARCHY)
        pairs = [0] * (n - 1)
        for j in range(1, n // 2 + 1):
            weight = 1 if 2 * j == n else 2
            for i, x in enumerate(_HIERARCHY[j]):
                for l, y in enumerate(_HIERARCHY[n - j]):
                    pairs[i + l] += weight * math.comb(i + l, i) * x * y
        _HIERARCHY.append([1] + [-(n * c) // 2 for c in pairs])
    return tuple(Fraction(a, math.factorial(i)) for i, a in enumerate(_HIERARCHY[k]))


def polynomial_value(poly, t):
    tq = Fraction(t)
    return sum(c * tq**i for i, c in enumerate(poly))


def hierarchy_moment(t, k):
    return float(polynomial_value(hierarchy_polynomial(k), t)) * math.exp(-k * t / 2)


def test_closed_form_matches_hierarchy_oracle():
    for k in range(0, 41):
        assert fubm_polynomial(k) == hierarchy_polynomial(k), f"k={k}"


def test_low_order_polynomials():
    assert fubm_polynomial(0) == (1,)
    assert fubm_polynomial(1) == (1,)
    assert fubm_polynomial(2) == (1, -1)
    assert fubm_polynomial(3) == (1, -3, Fraction(3, 2))


def test_closed_form_anchor_values():
    assert fubm_moment(1, 1) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert fubm_moment(1, 2) == pytest.approx(0.0, abs=1e-15)
    assert fubm_moment(2, 2) == pytest.approx(-math.exp(-2.0), abs=1e-15)
    assert fubm_moment(0, 5) == 1.0


def hierarchy_rhs(_, m):
    # m[0] is m_1; the quadratic hierarchy closes at each order.
    k_top = len(m)
    out = np.empty_like(m)
    for k in range(1, k_top + 1):
        conv = sum(m[j - 1] * m[k - j - 1] for j in range(1, k))
        out[k - 1] = -0.5 * k * m[k - 1] - 0.5 * k * conv
    return out


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0, 3.7])
def test_against_ode_integration(t):
    kmax = 8
    sol = solve_ivp(
        hierarchy_rhs,
        (0.0, t),
        np.ones(kmax),
        rtol=1e-12,
        atol=1e-14,
        dense_output=False,
        method="DOP853",
    )
    assert sol.success
    numeric = sol.y[:, -1]
    vec = fubm_moments(t, kmax)
    for k in range(1, kmax + 1):
        assert abs(vec[k] - numeric[k - 1]) < 1e-10


def test_moment_vector_shape():
    vec = fubm_moments(1.0, 6)
    assert len(vec) == 7
    assert vec[0] == 1.0
    assert list(vec)[2] == pytest.approx(0.0, abs=1e-15)


def test_small_time_derivative():
    # m_k'(0) = -k^2/2
    for k in (1, 2, 3, 5):
        h = 1e-7
        drift = (fubm_moment(h, k) - 1.0) / h
        assert drift == pytest.approx(-k * k / 2, abs=1e-4)


def test_large_time_decay():
    for k in (1, 2, 3):
        assert abs(fubm_moment(40.0, k)) < 1e-8


def test_state_net_power_rule():
    s = state_at(0.7)
    assert s.moment(()) == 1
    assert s.moment((1, -1)) == 1.0
    assert s.moment((1, 1, -1)) == pytest.approx(fubm_moment(0.7, 1), abs=1e-15)
    assert s.moment((-1, -1)) == pytest.approx(fubm_moment(0.7, 2), abs=1e-15)
    assert s.tracial


def test_free_convolution_is_the_semigroup():
    for s_t, t_t in [(0.25, 0.5), (1.0, 1.0), (0.3, 1.7)]:
        ps = product_state([state_at(s_t), state_at(t_t)], "free")
        for k in range(1, 7):
            word = ((0, 1), (1, 1)) * k
            assert ps.moment(word) == pytest.approx(
                fubm_moment(s_t + t_t, k), abs=1e-12
            )


def test_identity_norm_bound_and_toeplitz_positivity():
    # m_0 = 1, m_k(0) = 1, |m_k| <= 1, and [m_|a-b|(t)] is a moment matrix
    for k in range(1, 7):
        assert fubm_moment(0, k) == 1.0
    for t in (0.25, 0.5, 1.0, 2.0, 5.0, 10.0):
        m = fubm_moments(t, 8)
        assert max(abs(x) for x in m) <= 1 + 1e-12
        toeplitz = np.array([[m[abs(a - b)] for b in range(5)] for a in range(5)])
        assert np.linalg.eigvalsh(toeplitz).min() >= -1e-10


def test_validation():
    with pytest.raises(ValueError):
        fubm_moments(1.0, 0)
    with pytest.raises(ValueError):
        fubm_moment(-0.5, 2)
    with pytest.raises(ValueError):
        state_at(-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            fubm_moment(bad, 2)
        with pytest.raises(ValueError, match="finite"):
            state_at(bad)


def test_orders_past_twenty():
    want = hierarchy_moment(1.0, 21)
    assert state_at(1.0).moment((1,) * 21) == pytest.approx(want, abs=1e-15)
    assert fubm_moments(1.0, 21)[21] == pytest.approx(want, abs=1e-15)


def test_single_face_at_power_100():
    start = time.perf_counter()
    value = evaluate(HolonomyField(), "NESW", 100).value
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert value == pytest.approx(hierarchy_moment(1.0, 100), abs=1e-12)


def test_moments_stay_finite_where_the_polynomial_overflows():
    # p_200(100) and p_20(1e16) leave the float range while exp(-k t/2)
    # underflows; the product is still a moment, so it lies in [-1, 1]
    for t, k in ((100, 200), (1e16, 20)):
        with pytest.raises(OverflowError):
            float(polynomial_value(fubm_polynomial(k), t))
        value = fubm_moment(t, k)
        assert math.isfinite(value) and abs(value) <= 1
    # p_430(3.5) overflows too, but m_430(3.5) is about -3.8e-5: compare it
    # with a 40-digit decimal evaluation of the same exact rational
    acc = polynomial_value(fubm_polynomial(430), 3.5)
    with pytest.raises(OverflowError):
        float(acc)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        want = Decimal(acc.numerator) / Decimal(acc.denominator) * Decimal(-752.5).exp()
    assert want < 0
    assert fubm_moment(3.5, 430) == pytest.approx(float(want), rel=1e-10)


def test_moments_keep_full_precision_where_the_exponential_is_subnormal():
    # exp(-720) is subnormal and keeps about 40 of 53 bits, so the float
    # product p_1440(1) * exp(-720) was off by 3e-12 relative; m_1440(1) is
    # about 8.8e-6.  Compare it with a 40-digit decimal evaluation of the
    # exact rational.
    acc = polynomial_value(fubm_polynomial(1440), 1)
    assert math.isfinite(float(acc)) and 0 < math.exp(-720) < sys.float_info.min
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        want = Decimal(acc.numerator) / Decimal(acc.denominator) * Decimal(-720).exp()
    assert fubm_moment(1.0, 1440) == pytest.approx(float(want), rel=1e-15, abs=0)
    # where exp(-k t/2) is a normal float the value is the plain product
    for t, k in ((2.0, 700), (1.0, 1416), (0.5, 30)):
        acc = polynomial_value(fubm_polynomial(k), t)
        assert fubm_moment(t, k) == float(acc) * math.exp(-k * t / 2)


@functools.cache
def biane_polynomial(k):
    """p_k from Biane's formula, summed term by term in exact rationals."""
    if k == 0:
        return (Fraction(1),)
    return tuple(Fraction((-k) ** j * math.comb(k, j + 1), k * math.factorial(j)) for j in range(k))


def test_numerators_match_their_binomial_definition():
    # a_j = (-k)^j C(k, j+1) (k-1)!/j!, here from comb and perm term by
    # term; the package builds each term from the one before it
    for k in range(300):
        want = tuple(
            (-k) ** j * math.comb(k, j + 1) * math.perm(k - 1, k - 1 - j) for j in range(k)
        )
        assert _numerators(k) == (want or (1,)), k


_RETAINED_AFTER_K300 = """
import gc, tracemalloc
from masterfield.holonomy import HolonomyField, evaluate
evaluate(HolonomyField(), "NESW", 1)
gc.collect()
tracemalloc.start()
field = HolonomyField()
evaluate(field, "NESW", 300)
del field
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_a_high_power_leaves_no_numerators_behind():
    # one order's integers grow as k^2, so a table filled to k = 300 would
    # keep about 11 MB of them if every order stayed cached; a fresh process,
    # since other tests here ask for numerators of orders up to 1440
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", _RETAINED_AFTER_K300],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert int(proc.stdout) < 1e6, proc.stdout


def rounded_moment(t, k):
    """The exact rational p_k(t), rounded once, times exp(-k t/2).

    Where exp(-k t/2) is subnormal, the rational is divided out to 30
    digits and multiplied by the 30-digit exponential instead.
    """
    acc = polynomial_value(biane_polynomial(k), t)
    half = k * float(t) / 2
    if math.exp(-half) >= sys.float_info.min:
        return float(acc) * math.exp(-half)
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        return float(Decimal(acc.numerator) / Decimal(acc.denominator) * Decimal(-half).exp())


_GRID_TIMES = (
    [1, 2, 3, 5]  # integers
    + [0.5, 0.25, 1.5, 0.125]  # dyadic
    + [a * 0.37 for a in (1, 2, 3, 4, 7)]  # non-dyadic: face areas at t_scale 0.37
)
_GRID = (
    [(t, k) for t in _GRID_TIMES for k in range(0, 61, 4)]
    + [(250, 60), (250.0, 7), (1e16, 20), (Fraction(7, 3), 17), (np.float64(0.37), 23)]
    + [(3.5, 430), (1.0, 1440)]
)


def test_moments_are_the_correctly_rounded_rational_bit_for_bit():
    subnormal = 0
    for t, k in _GRID:
        want = rounded_moment(t, k)
        subnormal += math.exp(-k * float(t) / 2) < sys.float_info.min
        assert fubm_moment(t, k) == want, (t, k)
        assert fubm_moment(t, -k) == want, (t, -k)
    assert subnormal == 5  # (250, 60), (250.0, 7), (1e16, 20), k=430 and k=1440


def test_integer_time_types_agree():
    # an np.int64 time must not run the polynomial in 64-bit integers
    for k in (3, 40, 60):
        assert fubm_moment(np.int64(3), k) == fubm_moment(3, k) == fubm_moment(3.0, k)
        assert fubm_moment(3, np.int64(k)) == fubm_moment(3, k)
    assert fubm_polynomial(np.int64(40)) == fubm_polynomial(40)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: fubm_moment(1.0, True), id="moment-bool-order"),
        pytest.param(lambda: fubm_moment(True, 2), id="moment-bool-time"),
        pytest.param(lambda: fubm_moment(1.0, 2.0), id="moment-float-order"),
        pytest.param(lambda: fubm_moment("1", 2), id="moment-str-time"),
        pytest.param(lambda: fubm_moment(1j, 2), id="moment-complex-time"),
        pytest.param(lambda: fubm_moments(1.0, True), id="moments-bool-kmax"),
        pytest.param(lambda: fubm_moments(1.0, 3.0), id="moments-float-kmax"),
        pytest.param(lambda: fubm_moments(False, 3), id="moments-bool-time"),
        pytest.param(lambda: fubm_polynomial(True), id="polynomial-bool-order"),
        pytest.param(lambda: fubm_polynomial(2.0), id="polynomial-float-order"),
        pytest.param(lambda: state_at(True), id="state-bool-time"),
        pytest.param(lambda: state_at("1"), id="state-str-time"),
    ],
)
def test_non_integer_orders_and_non_real_times_are_value_errors(call):
    with pytest.raises(ValueError, match="must be an integer|must be a finite real number"):
        call()
