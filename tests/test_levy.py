import decimal
import math
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from masterfield.freeprob import product_state
from masterfield.holonomy import HolonomyField, evaluate
from masterfield.levy import (
    check_levy_axioms,
    fubm_moment,
    fubm_moments,
    fubm_polynomial,
    state_at,
)

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


def test_axiom_report_passes():
    report = check_levy_axioms(kmax=6)
    assert report.ok, "\n".join(report.lines())
    assert set(report.results) == {
        "identity_at_zero",
        "free_convolution_semigroup",
        "moments_bounded_by_one",
        "toeplitz_positivity",
        "continuity_at_zero",
    }


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
