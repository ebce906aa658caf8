"""The moment semigroup of the free unitary Brownian motion.

The k-th moment ``m_k(t)`` of the semigroup element at time t has Biane's
closed form ("Free Brownian motion, free stochastic calculus and random
matrices", 1997)

    m_k(t) = exp(-k t/2) p_k(t),
    p_k(t) = sum_{j<k} (-t)^j k^(j-1) C(k, j+1) / j!,

so ``p_k`` is a polynomial with rational coefficients, kept exactly here.
Low orders: ``p_1 = 1``, ``p_2 = 1 - t``, ``p_3 = 1 - 3t + 3t^2/2``.  The
moments also solve the quadratic hierarchy

    m_k' = -(k/2) m_k - (k/2) * sum_{j=1}^{k-1} m_j m_{k-j},  m_k(0) = 1,

which the tests integrate exactly as an independent oracle.

``state_at(t)`` wraps the moments as a tracial state on words over the
exponents +-1 (the element is unitary, so a word's moment depends only on
its net power), which is the marginal attached to a face of area t by the
holonomy field.  ``check_levy_axioms`` verifies the semigroup property
under the free product, the identity at t=0, norm bounds, continuity and
positivity; the reference state entering the stationarity statement is
read as the ambient expectation of the target probability space.
"""

from __future__ import annotations

import functools
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, exp, factorial, inf

import numpy as np

from .freeprob import _unitary_state, product_state

__all__ = [
    "fubm_polynomial",
    "fubm_moments",
    "fubm_moment",
    "state_at",
    "LevyAxiomReport",
    "check_levy_axioms",
]


def _check_time(t):
    if not 0 <= t < inf:
        raise ValueError(f"time must be finite and >= 0, got {t}")


@functools.cache
def fubm_polynomial(k):
    """Coefficients (constant first) of ``p_k``, exact rationals."""
    if k < 0:
        raise ValueError(f"moment order must be >= 0, got {k}")
    if k == 0:
        return (Fraction(1),)
    return tuple(Fraction((-k) ** j * comb(k, j + 1), k * factorial(j)) for j in range(k))


def fubm_moment(t, k):
    """``m_k(t)`` as a float: exact polynomial value times ``exp(-k t/2)``.

    Where ``exp(-k t/2)`` is below the normal float range, and so carries
    fewer significant bits, the product is taken in 30-digit decimal
    arithmetic instead.  That is also where the polynomial value may leave
    the float range: |m_k| <= 1, so p_k(t) <= exp(k t/2) fits elsewhere.
    """
    _check_time(t)
    k = abs(k)
    poly = fubm_polynomial(k)
    tq = Fraction(t)
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * tq + c
    half = k * float(t) / 2
    scale = exp(-half)
    if scale >= sys.float_info.min:
        return float(acc) * scale
    with localcontext() as ctx:
        ctx.prec = 30
        return float(Decimal(acc.numerator) / acc.denominator * Decimal(-half).exp())


def fubm_moments(t, kmax):
    """The list ``[m_0(t), ..., m_kmax(t)]``."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    return [1.0] + [fubm_moment(t, k) for k in range(1, kmax + 1)]


def state_at(t):
    """The semigroup element at time t as a state on words over exponents +-1.

    The element is unitary, so a word's value depends only on its net power.
    """
    _check_time(t)
    cache = {}

    def mom(word):
        net = abs(sum(word))
        if net not in cache:
            cache[net] = fubm_moment(t, net)
        return cache[net]

    return _unitary_state(mom, f"fubm(t={t})")


class LevyAxiomReport:
    """Outcome of the semigroup/state checks, one named entry per axiom."""

    def __init__(self):
        self.results = {}
        self.note = (
            "stationarity reference state read as the ambient expectation "
            "of the target probability space"
        )

    def record(self, name, ok, detail=""):
        self.results[name] = (bool(ok), detail)

    @property
    def ok(self):
        return all(v for v, _ in self.results.values())

    def lines(self):
        out = []
        for name, (ok, detail) in self.results.items():
            line = f"{name}: {'PASS' if ok else 'FAIL'}"
            if detail:
                line += f" ({detail})"
            out.append(line)
        return out


def check_levy_axioms(kmax=6, times=(0.25, 0.5, 1.0, 2.0), tol=1e-9):
    """Verify the defining properties of the moment semigroup.

    Checks: identity at t=0; the free-convolution semigroup law (moments of
    a product of two freely independent elements at times s and t match the
    element at s+t); unit norm bounds; positivity of the Toeplitz moment
    matrix; continuity at 0 with the exact derivative ``-k^2/2``.
    Stationarity needs no separate check: the state depends on the time
    increment alone by construction.
    """
    report = LevyAxiomReport()

    ok = all(fubm_moment(0, k) == 1.0 for k in range(1, kmax + 1))
    report.record("identity_at_zero", ok)

    worst = 0.0
    for s in times:
        for t in times:
            ps = product_state([state_at(s), state_at(t)], "free")
            for k in range(1, kmax + 1):
                word = ((0, 1), (1, 1)) * k
                got = ps.moment(word)
                want = fubm_moment(s + t, k)
                worst = max(worst, abs(got - want))
    report.record("free_convolution_semigroup", worst <= tol, f"max deviation {worst:.2e}")

    bound = max(
        abs(fubm_moment(t, k)) for t in list(times) + [5.0, 10.0] for k in range(1, kmax + 1)
    )
    report.record("moments_bounded_by_one", bound <= 1 + 1e-12, f"max |m_k| {bound:.6f}")

    psd_ok = True
    worst_eig = np.inf
    size = min(kmax, 4)
    for t in times:
        m = [fubm_moment(t, k) for k in range(0, 2 * size + 1)]
        toep = np.array([[m[abs(a - b)] for b in range(size + 1)] for a in range(size + 1)])
        eig = np.linalg.eigvalsh(toep).min()
        worst_eig = min(worst_eig, eig)
        if eig < -1e-10:
            psd_ok = False
    report.record("toeplitz_positivity", psd_ok, f"min eigenvalue {worst_eig:.2e}")

    cont_ok = True
    for k in range(1, kmax + 1):
        for h in (1e-4, 1e-5):
            drift = (fubm_moment(h, k) - 1.0) / h
            if abs(drift + k * k / 2) > 50 * h * k**4 + 1e-8:
                cont_ok = False
    report.record("continuity_at_zero", cont_ok)

    return report
