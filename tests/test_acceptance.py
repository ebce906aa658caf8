"""The acceptance gate: nine criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Criterion 3 drives the full matrix sampler over the whole loop
corpus and dominates the runtime (a few minutes on one core); everything
else finishes in seconds.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from masterfield.holonomy import (
    DEFAULT_CORPUS,
    HolonomyField,
    check_braid_invariance,
    check_infinite_divisibility,
    check_gauge_invariance_scalar,
    evaluate,
    loop_observable,
)
from masterfield.levy import fubm_moment
from masterfield.mc import MatrixSamplerConfig, estimate_wilson_many
from masterfield.planar import (
    Loop,
    build_graph,
    decompose,
    lasso_basis,
    random_loop,
)
from masterfield.ncalg import AXIOM_NAMES
from oracles import (
    catalan,
    cumulants_from_moments,
    enumerate_nc,
    joint_cumulants_check_conjugation,
    moments_from_cumulants,
    verify_axiom,
)


def _report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_simple_loop_marginal():
    t0 = time.perf_counter()
    worst = 0.0
    for t in (0.25, 0.5, 1.0, 2.0):
        field = HolonomyField(t_scale=t)
        for k in range(7):
            got = evaluate(field, "NESW", k).value
            worst = max(worst, abs(got - fubm_moment(t, k)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "simple-loop marginal law", ok,
            f"max |evaluate - m_k(t)| = {worst:.2e} over k<=6, {elapsed:.2f}s")


def test_criterion_2_semigroup_moment_values():
    t0 = time.perf_counter()
    anchors = max(
        abs(fubm_moment(1.0, 1) - math.exp(-0.5)),
        abs(fubm_moment(1.0, 2) - 0.0),
        abs(fubm_moment(2.0, 2) - (-math.exp(-2.0))),
    )

    kmax = 6

    def rhs(t, p):
        # p[k-1] holds p_k(t) with m_k = e^{-kt/2} p_k
        out = np.zeros_like(p)
        for k in range(2, kmax + 1):
            out[k - 1] = -0.5 * k * sum(
                p[j - 1] * p[k - j - 1] for j in range(1, k)
            )
        return out

    grid = (0.25, 0.5, 1.0, 2.0)
    sol = solve_ivp(rhs, (0.0, 2.0), np.ones(kmax), t_eval=grid,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    ode_gap = 0.0
    for i, t in enumerate(grid):
        for k in range(1, kmax + 1):
            ode = math.exp(-0.5 * k * t) * sol.y[k - 1, i]
            ode_gap = max(ode_gap, abs(ode - fubm_moment(t, k)))
    elapsed = time.perf_counter() - t0
    ok = anchors <= 1e-14 and ode_gap <= 1e-10 and elapsed < 1.0
    _report(2, "free unitary Brownian motion values", ok,
            f"anchors {anchors:.1e}, closed form vs ODE {ode_gap:.2e}, {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_3_large_N_corpus_reproduction():
    t0 = time.perf_counter()
    cfg = MatrixSamplerConfig(N=64, samples=400, seed=7, step_count=50)
    field = HolonomyField()
    worst_sigma = 0.0
    worst_label = ""
    failures = []
    for word in DEFAULT_CORPUS:
        lassos, letters = loop_observable(word)
        powers = (1, 2, 3)
        estimates = estimate_wilson_many(
            lassos, [tuple(letters) * k for k in powers], cfg
        )
        for k, est in zip(powers, estimates):
            exact = evaluate(field, word, k).value
            sigma = abs(est.mean - exact) / est.stderr
            if sigma > worst_sigma:
                worst_sigma, worst_label = sigma, f"{word} k={k}"
            if sigma > 3.0:
                failures.append(f"{word} k={k}: {sigma:.2f} sigma")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    detail = (f"30/30 within 3*stderr (N=64, 400 samples, seed 7), "
              f"worst {worst_sigma:.2f} sigma at {worst_label}, {elapsed:.0f}s")
    if failures:
        detail = "; ".join(failures)
    _report(3, "large-N Monte Carlo reproduction", ok, detail)


def test_criterion_4_braid_invariance():
    t0 = time.perf_counter()
    report = check_braid_invariance(HolonomyField(), max_len=4, max_strands=4)
    elapsed = time.perf_counter() - t0
    ok = report.ok and report.cases == 410 and elapsed < 30.0
    _report(4, "braid invariance", ok,
            f"{report.cases} cases, max deviation {report.max_deviation:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_5_infinite_divisibility():
    t0 = time.perf_counter()
    report = check_infinite_divisibility(HolonomyField(), kmax=5)
    sharp_zero = [d for label, d in report.records
                  if label in ("areas (0.5, 0.5) k=2", "areas (0.3, 0.7) k=2")]
    elapsed = time.perf_counter() - t0
    ok = (report.ok and fubm_moment(1.0, 2) == 0.0
          and len(sharp_zero) == 2 and max(sharp_zero) <= 1e-10
          and elapsed < 10.0)
    _report(5, "infinite divisibility", ok,
            f"{report.cases} merges, max deviation {report.max_deviation:.2e}, "
            f"sharp zero m_2(1) held, {elapsed:.1f}s")


def test_criterion_6_gauge_invariance_scalar_and_cumulants():
    report = check_gauge_invariance_scalar(HolonomyField(), kmax=5)
    cum = joint_cumulants_check_conjugation(order=6)
    exact_rationals = all(
        isinstance(v, (int, Fraction)) for v in cum.conjugated.values()
    )
    odd_vanish = all(cum.conjugated[("w",) * m] == 0 for m in (1, 3, 5))
    even_match = all(
        cum.conjugated[("w",) * m] == cum.original[("w",) * m] for m in (2, 4, 6)
    )
    ok = (report.ok and cum.equal and exact_rationals and odd_vanish
          and even_match)
    _report(6, "gauge invariance (scalar + cumulant form)", ok,
            f"{report.cases} scalar cases max {report.max_deviation:.2e}; "
            f"conjugated cumulants equal through order 6, exact rationals")


def test_criterion_7_combinatorial_oracles():
    counts_ok = all(
        sum(1 for _ in enumerate_nc(n)) == catalan(n) for n in range(11)
    )

    rng = random.Random(20260823)

    def noise():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    kap = {("x",) * m: noise() for m in range(1, 9)}
    mom = {w: moments_from_cumulants(w, lambda u: kap[u]) for w in kap}
    round_trip_ok = all(
        cumulants_from_moments(w, lambda u: mom[u]) == kap[w]
        for w in kap
    )

    loop_rng = np.random.default_rng(424242)
    decomp_ok = True
    for _ in range(200):
        loop = random_loop(loop_rng, 24)
        basis = lasso_basis(build_graph([loop]))
        rebuilt = Loop("")
        for idx, expo in decompose(loop, basis).letters:
            lasso = basis.lassos[idx].loop()
            rebuilt = rebuilt * (lasso if expo == 1 else lasso.inverse())
        if rebuilt != loop:
            decomp_ok = False
            break

    ok = counts_ok and round_trip_ok and decomp_ok
    _report(7, "combinatorial oracles", ok,
            "NC counts = Catalan to k=10; moment<->cumulant round trip exact "
            "to order 8; decompose round trip exact on 200 random loops")


def test_criterion_8_zhang_axioms():
    t0 = time.perf_counter()
    positive = all(
        verify_axiom(name, n).holds for n in (1, 2, 3) for name in AXIOM_NAMES
    )
    controls = [
        ("coassoc", "delta_flip"),
        ("antipode_left", "antipode_no_star"),
        ("counit_right", "counit_ones"),
        ("coaction_counit", "omega_swap_tags"),
    ]
    negative = all(
        (lambda r: not r.holds and r.counterexample)(
            verify_axiom(name, 2, corrupt=corrupt)
        )
        for name, corrupt in controls
    )
    elapsed = time.perf_counter() - t0
    ok = positive and negative and elapsed < 10.0
    _report(8, "Zhang algebra axioms", ok,
            f"{3 * len(AXIOM_NAMES)} identities hold for n=1,2,3; "
            f"{len(controls)} corruptions caught with counterexamples, "
            f"{elapsed:.1f}s")


def test_criterion_9_basis_independence():
    fa = HolonomyField(tree_priority="NESW")
    fb = HolonomyField(tree_priority="WSEN")
    worst = 0.0
    for word in DEFAULT_CORPUS:
        for k in range(1, 4):
            gap = abs(evaluate(fa, word, k).value - evaluate(fb, word, k).value)
            worst = max(worst, gap)
    ok = worst <= 1e-10
    _report(9, "spanning-tree basis independence", ok,
            f"two tie-break policies, corpus identical to {worst:.2e}")
