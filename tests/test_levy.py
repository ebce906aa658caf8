import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from masterfield.freeprob import product_state
from masterfield.levy import (
    KMAX,
    check_levy_axioms,
    fubm_moment,
    fubm_moments,
    fubm_polynomial,
    state_at,
)


def closed_form_coefficients(k):
    # Independent route: the known expansion of the k-th moment gives the
    # coefficient of t^j as (-1)^j k^(j-1) C(k, j+1) / j! for j < k.
    out = []
    for j in range(k):
        c = Fraction((-1) ** j) * Fraction(k) ** (j - 1) * math.comb(k, j + 1)
        out.append(c / math.factorial(j))
    return tuple(out)


def test_polynomials_match_closed_form():
    for k in range(1, KMAX + 1):
        got = fubm_polynomial(k)
        want = closed_form_coefficients(k)
        want = want[: len(got)] if len(want) > len(got) else want
        assert got == closed_form_coefficients(k), f"k={k}"


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
        fubm_moments(1.0, KMAX + 1)
    with pytest.raises(ValueError):
        fubm_moment(-0.5, 2)
    with pytest.raises(ValueError):
        state_at(-1.0)
    with pytest.raises(ValueError):
        state_at(1.0).moment((1,) * (KMAX + 1))
