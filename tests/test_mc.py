import copy
import math
import os
import pickle
import re
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from masterfield import DEFAULT_CORPUS, HolonomyField, evaluate, loop_observable, mc
from masterfield.freeprob import State, product_state
from masterfield.holonomy import _lasso_word
from masterfield.levy import fubm_moment, state_at
from masterfield.mc import MatrixSamplerConfig, WilsonEstimate, estimate_wilson_many
from masterfield.planar import Loop, random_loop
from test_holonomy import irreducible_core


def cfg_small(**kw):
    base = dict(N=16, samples=120, seed=5, step_count=50)
    base.update(kw)
    return MatrixSamplerConfig(**base)


def sample_batch(cfg, t):
    """The config's samples at time t, shape (samples, N, N): the read-only
    matrix the sampler gives a lasso of area t in slot 0."""
    return mc._lasso_matrices(cfg, [t])[0]


def unitarity_defect(U):
    ident = np.eye(U.shape[-1])
    return max(np.abs(u.conj().T @ u - ident).max() for u in U.reshape(-1, *U.shape[-2:]))


def test_time_zero_is_identity():
    cfg = cfg_small()
    U = sample_batch(cfg, 0.0)[0]
    assert np.array_equal(U, np.eye(cfg.N, dtype=complex))


def test_unitarity_every_sample():
    cfg = cfg_small(samples=40)
    U = sample_batch(cfg, 1.5)
    assert unitarity_defect(U) < 1e-8


def test_seed_determinism_bit_exact():
    cfg = cfg_small(samples=30)
    U1 = sample_batch(cfg, 0.8)
    U2 = sample_batch(cfg_small(samples=30), 0.8)
    assert np.array_equal(U1, U2)
    U3 = sample_batch(cfg_small(samples=30, seed=6), 0.8)
    assert np.abs(U1 - U3).max() > 1e-3


@pytest.fixture
def four_cpus(monkeypatch):
    """Four usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


def test_default_worker_rule(four_cpus):
    # the default splits a batch across the usable CPUs once samples * N**3
    # reaches the threshold, and keeps smaller batches on one thread
    assert MatrixSamplerConfig(N=64, samples=2).workers == 4
    assert MatrixSamplerConfig(N=4, samples=100).workers == 1
    assert MatrixSamplerConfig(N=8, samples=mc._SPLIT_WORK // 8**3).workers == 4
    assert MatrixSamplerConfig(N=8, samples=mc._SPLIT_WORK // 8**3 - 1).workers == 1
    for N, samples in ((64, 2), (4, 100)):
        assert MatrixSamplerConfig(N=N, samples=samples, workers=3).workers == 3


def test_worker_count_does_not_change_values(four_cpus):
    default = cfg_small(samples=30)
    assert default.workers == 4
    U = sample_batch(default, 0.6)
    for workers in (1, 3):
        assert np.array_equal(sample_batch(cfg_small(samples=30, workers=workers), 0.6), U)


# Both pins come from walk_one_draw_per_step on fresh mc._streams(5, samples),
# slot after slot, not from the sampler's own output.
GOLDEN_BATCH = [
    [[0.8085898193549841 + 0.5040660319083969j, -0.07086936272117958 - 0.15969841982232785j,
      0.10810094247028637 - 0.22335638312432166j],
     [0.0860937869432041 - 0.17666097551523485j, 0.8773640787679029 + 0.0759945639147554j,
      0.35145711042665284 - 0.24962723940604703j],
     [-0.05331644523970834 - 0.22502456701076545j, -0.3621403884525982 - 0.250570123375274j,
      0.8674216910582428 + 0.013033154390987518j]],
    [[0.7214018513869298 + 0.21271081961384916j, -0.17538471251182436 - 0.46640729068986j,
      0.1251950177911712 - 0.4127518932282137j],
     [0.5398746605371552 - 0.290994480565535j, 0.5132283182250683 - 0.016760175623937876j,
      0.017798062655711565 + 0.5998804731285363j],
     [0.2331940596987836 - 0.06173791174151658j, -0.05676309039331595 + 0.6962745028093562j,
      0.6460038034672311 - 0.19096548114111317j]],
]

GOLDEN_WILSON = [  # (mean, stderr) of the NESWNEESWNWS word to the powers 1, 2, 3
    (0.43401033205594675 - 0.015187873812398518j, 0.1321161356649155),
    (0.018952226798219292 - 0.12063860466818385j, 0.10414787473743495),
    (-0.06445061215713621 - 0.2273770874334188j, 0.2508339015049956),
]


def test_stream_layout_golden_values():
    # Pins the sampled values themselves: the per-sample streams, the order
    # the kernel reads them in, and the Cayley step.
    U = sample_batch(cfg_small(N=3, samples=2), 0.7)
    assert U.dtype == np.complex128
    assert np.abs(U - np.array(GOLDEN_BATCH)).max() < 1e-12
    lassos, letters = loop_observable("NESWNEESWNWS")
    est = estimate_wilson_many(
        lassos, [tuple(letters) * k for k in (1, 2, 3)], cfg_small(N=4, samples=3)
    )
    for e, (mean, stderr) in zip(est, GOLDEN_WILSON):
        assert abs(e.mean - mean) < 1e-12 and abs(e.stderr - stderr) < 1e-12


def walk_one_draw_per_step(gens, N, steps, dt):
    """Reference walk: one ``standard_normal`` call per sample per step."""
    ident = np.eye(N, dtype=np.complex128)
    U = np.broadcast_to(ident, (len(gens), N, N)).copy()
    for _ in range(steps):
        C = np.array([increment(g.standard_normal((N, N)), N, dt) for g in gens]) / 4.0
        M = (C @ C @ C) * (4.0 / 3.0) - C + 0.5 * ident
        U = np.linalg.solve(M, U) - U
    return U


def test_block_draws_match_one_draw_per_step():
    # At N=16 with 8 samples a block holds 32 steps, so 50 steps cross a
    # full block and end in a partial one.  The generators must also stand
    # where one draw per step leaves them: no stream is read past the
    # call's last step.
    N, S, steps = 16, 8, 50
    assert mc._NOISE_FLOATS // (S * N * N) == 32
    gens, oracle = mc._streams(3, S), mc._streams(3, S)
    U = mc.evolve_unitaries(gens, N, 1.0, steps)
    assert np.array_equal(U, walk_one_draw_per_step(oracle, N, steps, 1.0 / steps))
    assert [repr(g.bit_generator.state) for g in gens] == [
        repr(g.bit_generator.state) for g in oracle
    ]


class FixedNoise:
    """A stand-in generator whose ``standard_normal(out=)`` hands out given draws in order."""

    def __init__(self, draws):
        self.draws, self.pos = draws, 0

    def standard_normal(self, out):
        out[...] = self.draws[self.pos : self.pos + len(out)]
        self.pos += len(out)


def increment(draw, N, dt):
    """The antihermitian increment A that the kernel builds from one real (N, N) draw X:
    sqrt(dt/N) ((-1+i)/2 X + (1+i)/2 X^T)."""
    scale = math.sqrt(dt / N)
    return (scale * (-1 + 1j) / 2) * draw + (scale * (1 + 1j) / 2) * draw.T


def test_one_step_matches_the_exponential_to_fifth_order():
    # The step agrees with exp(A) U up to O(A^5): halving the noise divides
    # the error by about 2^5 (the plain Cayley map, O(A^3), would give 2^3).
    N, dt = 8, 1.0 / 50
    rng = np.random.default_rng(1)
    draw = rng.standard_normal((N, N))
    U0, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    errs = []
    for c in (1.0, 0.5, 0.25):
        U = mc.evolve_unitaries([FixedNoise(c * draw[None])], N, dt, 50, start=U0[None])
        errs.append(np.abs(U[0] - expm(increment(c * draw, N, dt)) @ U0).max())
    assert errs[-1] > 1e-10  # well above rounding
    for big, small in zip(errs, errs[1:]):
        assert 28 < big / small < 36


def test_walk_matches_the_textbook_cayley_step():
    # solve((I - B/2)/2, U) - U is (I - B/2)^{-1} (I + B/2) U rearranged: over
    # a 50-step walk the two agree to rounding.
    N, S, steps = 16, 2, 50
    dt = 1.0 / steps
    draws = np.random.default_rng(2).standard_normal((S, steps, N, N))
    U = mc.evolve_unitaries([FixedNoise(d) for d in draws], N, 1.0, steps)
    ident = np.eye(N)
    for s in range(S):
        V = ident.astype(complex)
        for draw in draws[s]:
            A = increment(draw, N, dt)
            B = A - A @ A @ A / 12.0
            V = np.linalg.solve(ident - 0.5 * B, V + 0.5 * (B @ V))
        assert np.abs(U[s] - V).max() <= 1e-14


def test_increment_has_the_gue_covariance():
    # The increment is linear in the draw X, so its law is fixed by the
    # images A_k of the unit draws e_k.  They must be pairwise orthogonal,
    # each with squared norm dt/N, in the Frobenius inner product: the GUE
    # covariance on the N^2-dimensional space of antihermitian matrices.
    # One Cayley step from I gives exp(A) + O(A^5), and (U - U*)/2 reads A
    # back up to O(A^3), far below 1e-6 at this size of draw.
    N, dt, c = 3, 1.0 / 50, 1e-3
    units = np.eye(N * N).reshape(N * N, 1, N, N)
    U = mc.evolve_unitaries([FixedNoise(c * e) for e in units], N, dt, 50)
    A = (U - U.conj().transpose(0, 2, 1)).reshape(N * N, -1) / (2 * c)
    gram = (A.conj() @ A.T).real
    assert np.abs(gram - dt / N * np.eye(N * N)).max() <= 1e-6 * dt / N


def test_small_n_moments_match_the_finite_n_closed_form():
    # Levy's finite-N moments of U(N) Brownian motion (Schur-Weyl duality
    # and the heat kernel measure on the unitary group, 2008):
    # E tr U_t / N = e^{-t/2} and E tr U_t^2 / N = e^{-t} (cosh(t/N) - N sinh(t/N)).
    # At N=2 the second differs from its large-N limit e^{-t} (1 - t).
    N, t = 2, 1.0
    cfg = MatrixSamplerConfig(N=N, samples=8000, seed=2008, step_count=50)
    U = sample_batch(cfg, t)
    exact = [math.exp(-t / 2), math.exp(-t) * (math.cosh(t / N) - N * math.sinh(t / N))]
    for power, want in zip((1, 2), exact):
        tr = np.einsum("sii->s", np.linalg.matrix_power(U, power)) / N
        se = tr.std() / math.sqrt(cfg.samples)
        assert abs(tr.mean() - want) < 3 * se
    # and 8000 samples resolve the finite-N correction
    assert abs(tr.mean() - math.exp(-t) * (1 - t)) > 3 * se


def test_check_unitary_checks_every_matrix():
    perm = np.eye(4)[[2, 0, 3, 1]] * np.array([1, -1, 1j, -1j])
    U = np.stack([perm, perm.T, np.eye(4), perm @ perm, perm.conj().T]).astype(complex)
    mc._check_unitary(U)
    mc._check_unitary(np.empty((0, 4, 4), complex))
    for bad in (1e-6, math.nan):
        drifted = U.copy()
        drifted[2, 1, 1] += bad
        with pytest.raises(RuntimeError, match="unitarity drift"):
            mc._check_unitary(drifted)


def test_trace_drift_matches_limit():
    # E[tr U(t)/N] -> e^{-t/2}; at N=32 the finite-size bias is far below
    # the statistical resolution of 300 samples.
    cfg = MatrixSamplerConfig(N=32, samples=300, seed=17, step_count=50)
    U = sample_batch(cfg, 1.0)
    tr = np.einsum("sii->s", U) / cfg.N
    se = tr.std() / math.sqrt(cfg.samples)
    assert abs(tr.mean() - math.exp(-0.5)) < 3 * se + 1e-4


def test_richardson_halving():
    # Halving the step size leaves the estimate within the noise band:
    # the retraction error is not statistically detectable at default density.
    t = 1.0
    means = {}
    for spc in (100, 200):
        cfg = MatrixSamplerConfig(N=16, samples=400, seed=23, step_count=spc)
        U = sample_batch(cfg, t)
        tr = np.einsum("sii->s", U) / cfg.N
        means[spc] = (tr.mean(), tr.std() / math.sqrt(cfg.samples))
    diff = abs(means[100][0] - means[200][0])
    band = 3 * math.hypot(means[100][1], means[200][1])
    assert diff < band


def test_config_validation():
    with pytest.raises(ValueError):
        MatrixSamplerConfig(N=1)
    with pytest.raises(ValueError):
        MatrixSamplerConfig(samples=0)
    with pytest.raises(ValueError, match="step_count too small"):
        MatrixSamplerConfig(step_count=20)
    # non-integers and negative seeds fail here, not later inside numpy
    bad = [
        ("N", 8.0, "matrix size"),
        ("samples", 3.0, "sample count"),
        ("step_count", 60.5, "step_count"),
        ("seed", 1.5, "seed"),
        ("seed", -1, "seed"),
        ("N", True, "matrix size"),
    ]
    for name, value, what in bad:
        with pytest.raises(ValueError, match=f"{what}.*got {re.escape(repr(value))}"):
            MatrixSamplerConfig(**{name: value})
    cfg = MatrixSamplerConfig(N=np.int64(8), samples=np.int32(3), seed=np.uint64(7))
    assert (cfg.N, cfg.samples, cfg.seed) == (8, 3, 7)
    assert type(cfg.N) is type(cfg.samples) is type(cfg.seed) is int
    for workers in (0, -5, 1.5, True, "2"):
        msg = f"worker count must be an integer >= 1, got {workers!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            MatrixSamplerConfig(workers=workers)
    assert MatrixSamplerConfig(workers=np.int64(2)).workers == 2


def test_estimate_empty_word():
    est = estimate_wilson_many([(1.0, 1)], [[]], cfg_small(samples=8))[0]
    assert est.mean == 1.0 and est.stderr == 0.0


def test_estimate_single_lasso_moment():
    cfg = MatrixSamplerConfig(N=32, samples=300, seed=31, step_count=50)
    est = estimate_wilson_many([(1.0, 1)], [[(0, 1)]], cfg)[0]
    assert abs(est.mean - fubm_moment(1.0, 1)) < 3 * est.stderr + 1e-4
    assert est.samples == 300


def test_estimate_many_shares_samples():
    cfg = cfg_small(samples=60)
    a, b = estimate_wilson_many([(0.5, 1)], [[(0, 1)], [(0, 1), (0, 1)]], cfg)
    single = estimate_wilson_many([(0.5, 1)], [[(0, 1)]], cfg)[0]
    assert a.mean == single.mean and a.stderr == single.stderr
    assert b.mean != a.mean


def test_words_in_any_order_match_separate_calls():
    # A word that extends the previous one continues its product; out of
    # prefix order (k=3, 1, 2), with a word that extends none in between,
    # every value is still that of the word estimated on its own.
    lassos, letters = loop_observable("NESWNEESWNWS")
    letters = tuple(letters)
    words = [letters * 3, letters, letters * 2, letters[1:], letters * 2 + letters[:1]]

    def fresh(word):
        est = estimate_wilson_many(lassos, [word], cfg_small(N=4, samples=6))[0]
        return est.mean, est.stderr

    together = estimate_wilson_many(lassos, words, cfg_small(N=4, samples=6))
    assert [(e.mean, e.stderr) for e in together] == [fresh(w) for w in words]


def test_one_shot_iterables_match_lists():
    # Lassos, words and each word may be iterators, each walked only once.
    lassos, letters = loop_observable("NESWNEESWNWS")
    words = [tuple(letters) * k for k in (1, 2, 3)]

    def estimates(lassos, words):
        got = estimate_wilson_many(lassos, words, cfg_small(N=4, samples=6))
        return [(e.mean, e.stderr) for e in got]

    want = estimates(lassos, words)
    assert len(want) == 3 and all(stderr > 0 for _, stderr in want)
    assert estimates(iter(lassos), (w for w in words)) == want
    assert estimates(lassos, [iter(w) for w in words]) == want


def dagger(U):
    return U.conj().transpose(0, 2, 1)


def wilson_values(mats, lassos, words, cfg):
    """(mean, stderr) of each word over the given lasso matrices."""
    mats = [U if orient == 1 else dagger(U) for U, (_, orient) in zip(mats, lassos)]
    out = []
    for word in words:
        prod = None
        for idx, expo in word:  # left to right, an adjoint per inverse letter
            m = mats[idx] if expo == 1 else dagger(mats[idx])
            prod = m if prod is None else prod @ m
        v = np.einsum("sii->s", prod) / cfg.N
        out.append((complex(v.mean()), float(v.std()) / math.sqrt(cfg.samples)))
    return out


def walked_in_one_go(lassos, words, cfg):
    # the stream layout: slots read one set of per-sample streams in slot
    # order; consecutive slots of one step size (zero-area slots, which
    # read nothing, in between) walk one path P from the identity, and a
    # slot takes P(end) P(start)^dagger, the path itself in a run's first
    # slot
    gens = mc._streams(cfg.seed, cfg.samples)
    ident = np.broadcast_to(np.eye(cfg.N, dtype=complex), (cfg.samples, cfg.N, cfg.N))
    mats, run_dt, P = [], None, None
    for area, _ in lassos:
        if area == 0:
            mats.append(ident)
            continue
        steps = max(1, math.ceil(cfg.step_count * area - 1e-9))
        if area / steps != run_dt:
            run_dt, P = area / steps, None
        Q = mc.evolve_unitaries(gens, cfg.N, area, cfg.step_count, start=P, dt=run_dt)
        mats.append(Q if P is None else Q @ dagger(P))
        P = Q
    return wilson_values(mats, lassos, words, cfg)


def walked_from_the_identity(lassos, words, cfg):
    # the stream layout before runs: each slot walked from the identity,
    # in slot order, through one set of per-sample streams
    gens = mc._streams(cfg.seed, cfg.samples)
    mats = [mc.evolve_unitaries(gens, cfg.N, area, cfg.step_count) for area, _ in lassos]
    return wilson_values(mats, lassos, words, cfg)


def test_calls_sharing_a_config_match_fresh_configs(four_cpus):
    # A config keeps the paths evolved through it.  Every call through a
    # shared config must give bit for bit what the same call gives on a
    # fresh, equal config: corpus lassos (slots at offsets > 0, prefixes,
    # shorter after longer), non-unit steps, orientation -1, zero area
    # between two runs and inside one, and paths dropped from the store and
    # evolved again.
    calls = []
    for word in DEFAULT_CORPUS:
        lassos, letters = loop_observable(word)
        calls.append((lassos, [tuple(letters), tuple(letters) * 2]))
    calls += [
        ([(0.7, 1), (1.3, -1)], [[(0, 1), (1, 1)], [(1, -1), (0, 1), (1, 1)]]),
        ([(2.5, -1), (0.0, 1), (0.45, 1)], [[(0, 1), (2, -1)], [(2, 1), (0, 1)]]),
        ([(1.0, 1), (0.7, 1)], [[(1, 1), (0, -1)]]),
        ([(0.5, 1), (0.52, 1), (0.7, 1)], [[(2, 1), (0, 1)]]),
        ([(0.5, 1), (0.0, 1), (0.3, -1)], [[(2, 1), (1, 1), (0, -1)]]),
    ]
    calls += [([(a, 1)], [[(0, 1)]]) for a in (0.2, 0.1, 0.3, 1 / 3, 0.5, 0.25)]
    calls += calls[:4]

    def values(lassos, words, cfg):
        return [(e.mean, e.stderr) for e in estimate_wilson_many(lassos, words, cfg)]

    # at N=16 and 8 samples the default splits the samples four ways
    assert cfg_small(N=16, samples=8).workers == 4
    walked = [walked_in_one_go(*call, cfg_small(N=16, samples=8)) for call in calls]
    # reading a slot as an increment of its run's path moves a value by
    # rounding only, against each slot walked from the identity
    for call in calls:
        got = values(*call, cfg_small(N=16, samples=8))
        want = walked_from_the_identity(*call, cfg_small(N=16, samples=8))
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    for kw in ({"workers": 1}, {}, {"workers": 3}):
        shared = cfg_small(N=16, samples=8, **kw)
        for (lassos, words), want in zip(calls, walked):
            assert values(lassos, words, shared) == want
            assert values(lassos, words, cfg_small(N=16, samples=8, **kw)) == want

    for change in ({"seed": 6}, {"N": 5}, {"samples": 9}, {"step_count": 60}):
        shared = cfg_small(N=6, samples=10)
        lassos, words = calls[4]
        values(lassos, words, shared)
        for attr, value in change.items():
            setattr(shared, attr, value)
        fresh = cfg_small(**{"N": 6, "samples": 10, **change})
        assert values(lassos, words, shared) == values(lassos, words, fresh)


def test_chunk_rule():
    for N in (2, 4, 16, 64, 128):
        room = mc._NOISE_FLOATS // (mc._BLOCK_STEPS * N * N)
        for S in (1, 2, 5, 6, 8, 9, 100, 3000):
            for workers in (1, 2, 3, 4):
                chunks = mc._chunks(N, S, workers)
                assert [i for lo, hi in chunks for i in range(lo, hi)] == list(range(S))
                assert all(lo < hi for lo, hi in chunks)
                assert all(hi - lo == 1 or hi - lo <= room for lo, hi in chunks)
                if room >= -(-S // workers):  # the worker share sets the size
                    assert len(chunks) >= min(workers, S)
                assert len(chunks) >= min(workers, S)  # no worker sits idle
    # the sampler workloads split as the equal ranges did: N=4 with 100
    # samples on one worker is one chunk, with 40 steps a noise block, and
    # N=64 with 2 samples on two or more workers is two one-sample chunks
    assert mc._chunks(4, 100, 1) == [(0, 100)]
    assert mc._NOISE_FLOATS // (100 * 4 * 4) == 40
    assert mc._chunks(64, 2, 2) == mc._chunks(64, 2, 4) == [(0, 1), (1, 2)]
    assert mc._chunks(8, 5, 4) == [(0, 1), (1, 2), (2, 3), (3, 5)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_chunked_calls_match_fresh_configs(workers):
    # At N=16 a chunk holds at most 16 samples, so 40 samples walk in
    # three chunks of 13, 13 and 14.  The second call resumes the first
    # one's path from its snapshot at 25 steps, so each chunk sets its own
    # generators from the snapshot's states.  Three threads on fewer cores
    # switch often here.
    assert len(mc._chunks(16, 40, workers)) == 3
    calls = [
        ([(0.5, 1), (0.3, -1)], [[(0, 1), (1, 1)], [(1, -1), (0, 1), (1, 1)]]),
        ([(1.0, 1), (0.3, 1)], [[(0, 1)], [(0, 1), (1, -1)]]),
    ]

    def values(lassos, words, cfg):
        return [(e.mean, e.stderr) for e in estimate_wilson_many(lassos, words, cfg)]

    shared = cfg_small(N=16, samples=40, workers=workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for lassos, words in calls:
            got = values(lassos, words, shared)
            assert got == values(lassos, words, cfg_small(N=16, samples=40, workers=workers))
            assert got == walked_in_one_go(lassos, words, cfg_small(N=16, samples=40))
    finally:
        sys.setswitchinterval(interval)


_AREA_REFUSED = "face area must be finite and >= 0, got "
_LETTER_REFUSED = "letter must be (lasso index, +1 or -1), got "


@pytest.mark.parametrize(
    "lasso,letter,message",
    [
        ((True, 1), (0, 1), _AREA_REFUSED + "True"),
        (("1", 1), (0, 1), _AREA_REFUSED + "1"),
        ((Decimal("1"), 1), (0, 1), _AREA_REFUSED + "1"),
        ((1j, 1), (0, 1), _AREA_REFUSED + "1j"),
        ((None, 1), (0, 1), _AREA_REFUSED + "None"),
        ((1.0, True), (0, 1), "orientation must be +1 or -1, got True"),
        ((1.0, 1.0), (0, 1), "orientation must be +1 or -1, got 1.0"),
        ((1.0, 1), (0, True), _LETTER_REFUSED + "(0, True)"),
        ((1.0, 1), (0.0, 1), _LETTER_REFUSED + "(0.0, 1)"),
        ((1, 1), (0, 1), None),
        ((np.int64(1), np.int64(1)), (np.int32(0), np.int64(1)), None),
        ((np.float64(1.0), 1), (0, 1), None),
        ((Fraction(1), 1), (0, 1), None),
    ],
)
def test_lasso_and_letter_inputs(lasso, letter, message):
    # Refused inputs are ValueErrors; integers, floats and fractions of
    # Python and numpy are areas, with the values of the float area.
    cfg = cfg_small(N=4, samples=3)
    if message is not None:
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_wilson_many([lasso], [[letter]], cfg)
        return
    got = estimate_wilson_many([lasso], [[letter]], cfg)[0]
    want = estimate_wilson_many([(1.0, 1)], [[(0, 1)]], cfg_small(N=4, samples=3))[0]
    assert (got.mean, got.stderr) == (want.mean, want.stderr)


def test_path_store_stays_bounded():
    # Each call below starts its second slot at a new draw offset; the
    # store keeps at most twice the snapshots one call needs (here 2).
    cfg = cfg_small(N=4, samples=3)
    for i in range(40):
        estimate_wilson_many([(0.02 * (i + 1), 1), (1.0, 1)], [[(0, 1), (1, 1)]], cfg)
    assert sum(len(snaps) for snaps in cfg._paths.paths.values()) <= 4


def count_sample_steps(monkeypatch):
    """A list that gathers the sample-steps (samples x steps) of each
    ``mc.evolve_unitaries`` call from now on."""
    walked, evolve = [], mc.evolve_unitaries

    def counted(gens, N, t, step_count, start=None, dt=None):
        walked.append(len(gens) * round(t / dt))
        return evolve(gens, N, t, step_count, start=start, dt=dt)

    monkeypatch.setattr(mc, "evolve_unitaries", counted)
    return walked


def test_corpus_walks_one_path_per_config(monkeypatch):
    # Every corpus lasso area is a whole number of steps of 1/50, so each
    # call's slots form one run from draw 0 and every call reads that one
    # path: the corpus walks as far as its largest total lasso area, 4.
    # A path per slot offset walked 6, the sum over slots of the largest
    # area in that slot.
    cfg = cfg_small(N=4, samples=3, workers=2)
    sample_steps = count_sample_steps(monkeypatch)
    for word in DEFAULT_CORPUS:
        lassos, letters = loop_observable(word)
        estimate_wilson_many(lassos, [tuple(letters) * k for k in (1, 2, 3)], cfg)
    assert sum(sample_steps) == 200 * cfg.samples
    assert list(cfg._paths.paths) == [(0, 0.02)]


def test_alternating_step_sizes_walk_each_slot_once(monkeypatch):
    # 0.5 and 0.45 take steps of 0.02 and 0.45/23, so every slot is a run
    # of its own: the call walks each slot's steps once, and each value is
    # bit for bit the slot walked from the identity.
    lassos = [(0.5, 1), (0.45, -1), (0.5, 1), (0.0, 1), (0.45, 1)]
    words = [[(0, 1), (1, 1)], [(2, -1), (4, 1), (1, 1)], [(3, 1)]]
    cfg = cfg_small(N=4, samples=3)
    assert mc.step_grid(0.5, 50)[1] != mc.step_grid(0.45, 50)[1]
    want = walked_from_the_identity(lassos, words, cfg_small(N=4, samples=3))
    sample_steps = count_sample_steps(monkeypatch)
    got = [(e.mean, e.stderr) for e in estimate_wilson_many(lassos, words, cfg)]
    assert sum(sample_steps) == cfg.samples * sum(math.ceil(50 * a) for a, _ in lassos)
    assert got == want


def test_path_store_bounds_one_long_path(monkeypatch):
    # Each call is one run from draw 0 that ends a step further than the
    # call before it, so one path grows; the store drops the entries of it
    # read longest ago and keeps the last call's, which walks nothing again.
    cfg = cfg_small(N=4, samples=3, step_count=64)
    sample_steps = count_sample_steps(monkeypatch)
    for i in range(40):
        lassos = [(1.0, 1), ((i + 1) / 64, 1)]
        estimate_wilson_many(lassos, [[(0, 1), (1, 1)]], cfg)
        store = cfg._paths
        assert list(store.paths) == [(0, 1 / 64)]
        assert sum(len(path) for path in store.paths.values()) <= store.budget == 4
    walked = len(sample_steps)
    estimate_wilson_many(lassos, [[(1, -1)]], cfg)
    assert len(sample_steps) == walked


def test_adjoints_are_dropped_after_their_last_word():
    # Each word reads one lasso inverted, and each adjoint is built once and
    # dropped after its word: at most two are alive at once (the last
    # word's product and the next word's adjoint), not six.
    cfg = cfg_small(N=16, samples=50)
    lassos, words = [(1.0, 1)] * 6, [[(k, -1)] for k in range(6)]
    estimate_wilson_many(lassos, words, cfg)  # the paths, evolved beforehand
    size = cfg.samples * cfg.N * cfg.N * 16
    tracemalloc.start()
    try:
        estimate_wilson_many(lassos, words, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * size


def test_powers_are_walked_one_word_at_a_time():
    # Powers 1..500 of a one-letter word, handed over one at a time, hold
    # one word's letters at once, not all 125,250 of them.
    cfg = MatrixSamplerConfig(N=2, samples=2, seed=1, step_count=50)
    estimate_wilson_many([(1.0, 1)], [[(0, 1)]], cfg)  # the path, evolved beforehand
    tracemalloc.start()
    try:
        got = estimate_wilson_many([(1.0, 1)], (((0, 1),) * k for k in range(1, 501)), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 500
    assert peak < 1 << 20


def test_each_letter_object_is_checked_once_across_powers(monkeypatch):
    # Powers 1..500 of a one-letter word read one letter object, so it is
    # checked once (two as_int calls), not once per letter of each power.
    cfg = MatrixSamplerConfig(N=2, samples=2, seed=1, step_count=50)
    letter = (0, 1)
    want = [estimate_wilson_many([(1.0, 1)], [(letter,) * k], cfg)[0] for k in (1, 2, 500)]
    calls = []
    real = mc.as_int

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(mc, "as_int", counted)
    got = estimate_wilson_many([(1.0, 1)], ((letter,) * k for k in range(1, 501)), cfg)
    assert len(calls) <= 1 + 2  # the lasso's orientation, then the letter
    assert [(got[k - 1].mean, got[k - 1].stderr) for k in (1, 2, 500)] == [
        (w.mean, w.stderr) for w in want
    ]
    # a letter equal to a checked one is still checked, and refused
    calls.clear()
    with pytest.raises(ValueError, match="letter must be"):
        estimate_wilson_many([(1.0, 1)], [[letter], [letter, (0.0, 1)]], cfg)
    assert len(calls) == 1 + 2 + 1 and isinstance(calls[-1], float)


def test_each_adjoint_is_built_once_across_powers(monkeypatch):
    # Powers 1..3 of one word read the same letters, so each inverse
    # letter's adjoint is built once and kept from one power to the next.
    lassos, letters = loop_observable("NESWNEESWNWS")
    words = [tuple(letters) * k for k in (1, 2, 3)]
    cfg = cfg_small(N=4, samples=6)
    estimate_wilson_many(lassos, words, cfg)  # the paths, evolved beforehand
    built = []
    dagger = mc._dagger

    def counted(U):
        built.append(U)
        return dagger(U)

    monkeypatch.setattr(mc, "_dagger", counted)
    estimate_wilson_many(lassos, words, cfg)
    assert len(built) == len({idx for idx, expo in letters if expo == -1}) > 0


def test_failed_call_leaves_no_unfilled_snapshot(monkeypatch):
    cfg = cfg_small(N=4, samples=5)

    def fail(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(mc, "evolve_unitaries", fail)
        with pytest.raises(KeyboardInterrupt):
            estimate_wilson_many([(1.0, 1)], [[(0, 1)]], cfg)
    fresh = estimate_wilson_many([(1.0, 1)], [[(0, 1)]], cfg_small(N=4, samples=5))[0]
    assert estimate_wilson_many([(1.0, 1)], [[(0, 1)]], cfg)[0].mean == fresh.mean


def test_used_config_copies_without_its_paths():
    cfg = cfg_small(N=4, samples=3)
    est = estimate_wilson_many([(1.0, 1)], [[(0, 1)]], cfg)[0]
    for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert twin._paths is None and cfg._paths is not None
        assert repr(twin) == repr(cfg)
        assert estimate_wilson_many([(1.0, 1)], [[(0, 1)]], twin)[0].mean == est.mean


def test_orientation_flag_conjugates():
    cfg = cfg_small(samples=40)
    plus = estimate_wilson_many([(0.8, 1)], [[(0, 1)]], cfg)[0]
    minus = estimate_wilson_many([(0.8, -1)], [[(0, 1)]], cfg)[0]
    assert abs(minus.mean - plus.mean.conjugate()) < 1e-12


def test_word_validation():
    cfg = cfg_small(samples=4)
    with pytest.raises(ValueError, match="references lasso"):
        estimate_wilson_many([(1.0, 1)], [[(1, 1)]], cfg)
    with pytest.raises(ValueError, match="orientation"):
        estimate_wilson_many([(1.0, 2)], [[(0, 1)]], cfg)
    # a letter is (lasso index, +1 or -1); block-entry letters are rejected
    for letter in ((0, 0, 0, False), (0, 2), (0, 1, 0, False)):
        with pytest.raises(ValueError, match="letter must be"):
            estimate_wilson_many([(1.0, 1)], [[letter]], cfg)
    for area in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"face area must be finite and >= 0, got {area}"):
            estimate_wilson_many([(area, 1)], [[(0, 1)]], cfg)


def test_areas_whose_step_count_overflows_are_refused():
    # 1e308 is a finite area, but 50 steps per unit time of it are not: the
    # walk's step grid would raise OverflowError.
    cfg = cfg_small(samples=4)
    for area in (1e308, 4e306):
        message = f"face area {area} at 50 steps per unit time needs a step count that is not"
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_wilson_many([(1.0, 1), (area, 1)], [[(0, 1)]], cfg)


def test_classical_gauge_invariance():
    # Conjugating every lasso matrix by one shared unitary fixes all traces:
    # for the scalar observable this invariance is exact per sample.
    cfg = cfg_small(samples=25)
    mats = [sample_batch(cfg, 0.6), sample_batch(cfg_small(seed=77, samples=25), 1.1)]
    rng = np.random.default_rng(2)
    q, r = np.linalg.qr(rng.standard_normal((cfg.N, cfg.N)) + 1j * rng.standard_normal((cfg.N, cfg.N)))
    V = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    word_trace = lambda ms: np.einsum("sii->s", ms[0] @ ms[1].conj().transpose(0, 2, 1) @ ms[0]) / cfg.N
    before = word_trace(mats)
    after = word_trace([V @ m @ V.conj().T for m in mats])
    assert np.abs(before - after).max() < 1e-10


def test_classical_braid_invariance():
    # Braiding maps the independent pair (U_s, U_t) to (U_t, U_t U_s U_t*),
    # which is again an independent pair with times (t, s).  Compare a mixed
    # word on the braided pair against a fresh independent (t, s) pair.
    s_t, t_t = 0.5, 1.2
    N, S = 24, 500

    def draw(seed, t):
        return sample_batch(MatrixSamplerConfig(N=N, samples=S, seed=seed, step_count=50), t)

    u1, u2 = draw(41, s_t), draw(42, t_t)
    braided = [u2, u2 @ u1 @ u2.conj().transpose(0, 2, 1)]
    fresh = [draw(43, t_t), draw(44, s_t)]

    def est(ms):
        v = np.einsum("sii->s", ms[0] @ ms[1] @ ms[0] @ ms[1]) / N
        return v.mean(), v.std() / math.sqrt(S)

    m_braid, se_braid = est(braided)
    m_fresh, se_fresh = est(fresh)
    assert abs(m_braid - m_fresh) < 3 * math.hypot(se_braid, se_fresh)


@pytest.mark.slow
def test_block_moments_drift_toward_reference():
    # Normalized trace of the (0,0) block power drifts toward the large-N
    # value as N grows (desk-scale version of the convergence claim).
    # The 1/N^2 drift only rises above sampling noise at small N, so the
    # sweep stops at N=8; seeds are frozen, making the check deterministic.
    # The large-N value is the free compression: a projection p of trace
    # 1/2 free from u_t, and tau((p u_t p)^k) / tau(p).
    t = 2.0
    k = 2

    def block_moment(N, samples, seed):
        cfg = MatrixSamplerConfig(N=N, samples=samples, seed=seed, step_count=50)
        U = sample_batch(cfg, t)
        d = N // 2
        blk = U[:, :d, :d]
        M = blk
        for _ in range(k - 1):
            M = M @ blk
        return np.einsum("sii->s", M).mean() / d

    proj = State(lambda word: 0.5, name="projection", tracial=True)
    compressed = product_state([proj, state_at(t)], "free")
    ref = compressed.moment(((0, "p"), (1, 1)) * k) / 0.5
    assert ref == 0.0
    errs = [abs(block_moment(N, 6000, seed=900 + N) - ref) for N in (4, 6, 8)]
    assert errs[0] > errs[1] > errs[2]


# Loops whose lasso word keeps at least two faces under this rule:
# cyclically reduce, drop every letter whose face occurs once, and repeat
# until nothing changes.  On such a word the product of the face states
# matters, where every corpus loop has the law of one Brownian motion.
# The first is irreducible as it stands; the other two are the first two
# random_loop(np.random.default_rng(22), 24) draws the rule keeps (draws
# 6955 and 7166), with cores b^-1 c b^-1 c^-1 and a^-1 b^-1 a^-1 b.
IRREDUCIBLE_LOOPS = ("NWWSESWNNESSWSWNWNEEEE", "SSWNENWSESWNWNEE", "NESWNNESSWNENWSS")


def test_irreducible_loops_are_the_seeded_draws_the_core_rule_keeps():
    rng = np.random.default_rng(22)
    draws = [random_loop(rng, 24).word for _ in range(7167)]
    assert (draws[6955], draws[7166]) == IRREDUCIBLE_LOOPS[1:]
    for word in IRREDUCIBLE_LOOPS[1:]:
        core = irreducible_core(_lasso_word(Loop(word), "NESW")[0])
        assert len({face for face, _ in core}) == 2


@pytest.mark.slow
def test_sampler_reproduces_the_free_field_on_irreducible_cores():
    t0 = time.perf_counter()
    cfg = MatrixSamplerConfig(N=32, samples=400, seed=22, step_count=50)
    fields = {product: HolonomyField(product) for product in HolonomyField.PRODUCTS}
    worst, misses, controls = (0.0, ""), [], {}
    for word in IRREDUCIBLE_LOOPS:
        lassos, letters = loop_observable(word)
        estimates = estimate_wilson_many(lassos, [tuple(letters) * k for k in (1, 2, 3)], cfg)
        for k, est in enumerate(estimates, 1):
            sigma = abs(est.mean - evaluate(fields["free"], word, k).value) / est.stderr
            worst = max(worst, (sigma, f"{word} k={k}"))
            if sigma > 3.0:
                misses.append(f"{word} k={k}: {sigma:.2f} sigma")
            if word == IRREDUCIBLE_LOOPS[0] and k == 1:
                for product in ("boolean", "tensor"):
                    value = evaluate(fields[product], word, k).value
                    controls[product] = abs(est.mean - value) / est.stderr
    elapsed = time.perf_counter() - t0
    print(f"9/9 within 3*stderr (N=32, 400 samples, seed 22), worst {worst[0]:.2f} sigma "
          f"at {worst[1]}; controls at k=1: boolean {controls['boolean']:.1f} sigma, "
          f"tensor {controls['tensor']:.1f} sigma, {elapsed:.0f}s")
    assert not misses, misses
    assert min(controls.values()) > 5.0, controls
    assert elapsed < 30.0


def test_wilson_estimate_fields():
    est = WilsonEstimate(0.5 + 0.1j, 0.01, 200)
    assert est.mean == 0.5 + 0.1j
    assert "WilsonEstimate" in repr(est)
