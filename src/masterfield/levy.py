"""The moment semigroup of the free unitary Brownian motion.

The k-th moment ``m_k(t)`` of the semigroup element at time t has Biane's
closed form ("Free Brownian motion, free stochastic calculus and random
matrices", 1997)

    m_k(t) = exp(-k t/2) p_k(t),
    p_k(t) = sum_{j<k} (-t)^j k^(j-1) C(k, j+1) / j!,

so ``p_k = sum_j c_j t^j`` with rational ``c_j``: ``p_1 = 1``, ``p_2 = 1 - t``,
``p_3 = 1 - 3t + 3t^2/2``.  At the exact ratio ``t = p/q``, ``p_k(t)`` is the
integer ``sum_j a_j p^j q^(k-1-j)`` over ``k! q^(k-1)`` (``a_j = k! c_j``), one
correctly rounded int division.  The moments also solve the quadratic hierarchy

    m_k' = -(k/2) m_k - (k/2) * sum_{j=1}^{k-1} m_j m_{k-j},  m_k(0) = 1,

which the tests integrate exactly as an independent oracle.

``state_at(t)`` wraps the moments as a tracial state on words over the
exponents +-1 (the element is unitary, so a word's moment depends only on
its net power), which is the marginal attached to a face of area t by the
holonomy field.  The tests check the semigroup law under the free product,
the identity at t=0, the norm bound, positivity and the derivative at 0.
"""

from __future__ import annotations

import functools
import sys
from decimal import Decimal, localcontext
from math import exp, factorial, inf
from numbers import Integral, Real

from ._ints import as_int
from .freeprob import _UnitaryState

__all__ = [
    "fubm_moments",
    "fubm_moment",
    "state_at",
]
_NUMERATORS = {}  # _numerators(k) for k < 64


def _check_time(t):
    if isinstance(t, bool) or not isinstance(t, Real) or not 0 <= t < inf:
        raise ValueError(f"time must be a finite real number >= 0, got {t!r}")


def _numerators(k):
    """The integers ``a_j = k! c_j`` (constant first) of ``p_k``; ``p_0 = 1``.

    ``a_j = (-k)^j C(k, j+1) (k-1)!/j!``, built by the term ratio
    ``a_{j+1} / a_j = -k (k-1-j) / ((j+1)(j+2))`` from ``a_0 = k!``; each
    division is exact, since its quotient is the integer ``a_{j+1}``.  Only
    orders below 64 are kept: the size of one order's integers grows as k^2.
    """
    if k in _NUMERATORS:
        return _NUMERATORS[k]
    terms = [factorial(k)]
    for j in range(k - 1):
        terms.append(terms[-1] * -k * (k - 1 - j) // ((j + 1) * (j + 2)))
    return _NUMERATORS.setdefault(k, tuple(terms)) if k < 64 else tuple(terms)


def fubm_moment(t, k):
    """``m_k(t)`` as a float: exact polynomial value times ``exp(-k t/2)``.

    Where ``exp(-k t/2)`` is below the normal float range, and so carries
    fewer significant bits, the product is taken in 30-digit decimal
    arithmetic instead.  That is also where the polynomial value may leave
    the float range: |m_k| <= 1, so p_k(t) <= exp(k t/2) fits elsewhere.
    """
    _check_time(t)
    k = abs(as_int(k, "moment order must be an integer"))
    p, q = (int(t), 1) if isinstance(t, Integral) else t.as_integer_ratio()
    num, q_pow = 0, 1
    for a in reversed(_numerators(k)):
        num = num * p + a * q_pow
        q_pow *= q
    den = factorial(k) * q_pow // q
    half = k * float(t) / 2
    scale = exp(-half)
    if scale >= sys.float_info.min:
        return num / den * scale
    with localcontext() as ctx:
        ctx.prec = 30
        return float(Decimal(num) / den * Decimal(-half).exp())


def fubm_moments(t, kmax):
    """The list ``[m_0(t), ..., m_kmax(t)]``."""
    if as_int(kmax, f"kmax must be an integer <= {sys.maxsize}", most=sys.maxsize) < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    return [1.0] + [fubm_moment(t, k) for k in range(1, kmax + 1)]


def state_at(t):
    """The semigroup element at time t as a state on words over exponents +-1.

    The element is unitary, so a word's value depends only on its net power.
    """
    _check_time(t)
    return _UnitaryState(functools.partial(fubm_moment, t), f"fubm(t={t})")
