"""Finite-dimension random-matrix oracle for the exact field values.

Draws Brownian-motion samples on U(N), one independent matrix per lasso
with time equal to the face area, and estimates scalar Wilson loops: the
mean normalized trace of the matrix word.

Reproducibility: every sample owns a counter-based RNG stream spawned
from the seed, so estimates are independent of the worker count, and a
fixed (seed, config) pair reproduces values bit-for-bit.  Lasso slot k of
a call reads its sample's stream from where slot k-1 stopped, so every
lasso matrix is a prefix of one path per (start draw, step size).  A
config keeps the paths evolved through it, with the one set of per-sample
generators that walks them, and calls sharing a config take their
matrices from those paths and evolve only what no earlier call did; the
values are bit-for-bit those of a fresh config.  The paths are
dropped when the config's seed, N, samples or step_count change; copies
and pickles of a config start without them.  Estimates from calls sharing
a config are therefore correlated, as they already were through the
shared streams (the first lasso of every loop of area 1 is the same
matrix).  A config retains at most twice the path snapshots that its
most demanding call needs: about two per unit of that call's total lasso
area plus two per lasso, each one samples x N x N complex entries
(26 MB at N=64, 400 samples) plus one generator state per sample; they
are freed with the config.
"""

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._kernels import evolve_unitaries, step_grid

__all__ = [
    "MatrixSamplerConfig",
    "WilsonEstimate",
    "estimate_wilson_many",
]

_UNITARITY_TOL = 1e-8


# A batch splits across the usable CPUs by default once samples * N**3
# reaches this; below it, thread dispatch costs more than the split saves.
_SPLIT_WORK = 2**15


def _integer(value, least, what):
    """``value`` as an int >= ``least``; otherwise ValueError, bools included."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        n = least - 1
    if n < least:
        raise ValueError(f"{what}, got {value!r}")
    return n


def default_workers(N, samples):
    """One per usable CPU for a big enough batch, else one."""
    if samples * N**3 < _SPLIT_WORK:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


class MatrixSamplerConfig:
    """Sampling parameters: matrix size, step density, seed, count.

    ``step_count`` is the number of SDE steps per unit of time; at least
    50 per unit time are required for the retraction error to stay well
    under the statistical resolution.  ``workers`` threads split the
    samples; by default one per usable CPU when samples * N**3 >= _SPLIT_WORK
    and one otherwise.  N, samples, seed, step_count and workers must be
    integers (numpy integers too, bools not).
    """

    def __init__(
        self,
        N=64,
        samples=400,
        seed=0,
        step_count=200,
        workers=None,
    ):
        N = _integer(N, 2, "matrix size must be an integer >= 2")
        samples = _integer(samples, 1, "sample count must be an integer >= 1")
        seed = _integer(seed, 0, "seed must be an integer >= 0")
        step_count = _integer(
            step_count,
            50,
            "step_count too small or not an integer: need at least 50 steps per "
            "unit time (unitarity/discretization drift exceeds tolerance)",
        )
        if workers is None:
            workers = default_workers(N, samples)
        else:
            workers = _integer(workers, 1, "worker count must be an integer >= 1")
        self.N = N
        self.samples = samples
        self.seed = seed
        self.step_count = step_count
        self.workers = workers
        self._paths = None  # a _PathStore: the paths evolved through this config

    def __getstate__(self):
        # copies and pickles start without paths; the store and its lock
        # stay with this instance
        return {**self.__dict__, "_paths": None}

    def __repr__(self):
        return (
            f"MatrixSamplerConfig(N={self.N}, samples={self.samples}, "
            f"seed={self.seed}, step_count={self.step_count}, workers={self.workers})"
        )


class WilsonEstimate:
    """Monte Carlo estimate: sample mean, stderr = sample std / sqrt(samples)."""

    def __init__(self, mean, stderr, samples):
        self.mean = complex(mean)
        self.stderr = float(stderr)
        self.samples = int(samples)

    def __repr__(self):
        return (
            f"WilsonEstimate(mean={self.mean:.6g}, stderr={self.stderr:.3g}, "
            f"samples={self.samples})"
        )


def _streams(seed, samples):
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(child)) for child in root.spawn(samples)]


def _check_unitary(U):
    """Raise unless every matrix of the (S, N, N) batch U is unitary to tolerance."""
    drift = float(np.abs(_dagger(U) @ U - np.eye(U.shape[-1])).max(initial=0.0))
    if not drift <= _UNITARITY_TOL:
        raise RuntimeError(
            f"unitarity drift {drift:.3e} exceeds tolerance {_UNITARITY_TOL}"
        )


class _PathStore:
    """The Brownian paths evolved through one config.

    Lasso slot k of a call reads the per-sample streams from draw offset
    o_k = steps_0 + ... + steps_{k-1} (one draw is the noise of one step),
    so its matrix is a prefix of the path that starts at o_k with step dt.
    ``paths`` maps (o, dt) to {steps: (matrices, states)}: a read-only
    (S, N, N) snapshot after that many steps, kept at every multiple of
    step_count and at every requested length, with each stream's generator
    state at draw o + steps; ``origin`` holds the states at draw 0, and
    ``gens`` are the store's one generator per sample, set to a snapshot's
    states before they walk on from it.  Paths are kept in the order they
    were last read, and the ones read longest ago are dropped while the
    store holds more than twice the snapshots that the largest call so far
    needs on its own.  ``lock`` is held by a call from planning to
    trimming, so threads may share a config.
    """

    def __init__(self, cfg, key):
        self.key = key
        self.lock = threading.Lock()
        self.gens = _streams(cfg.seed, cfg.samples)
        self.origin = (None, [g.bit_generator.state for g in self.gens])
        self.paths = {}
        self.budget = 0

    def plan(self, times, step_count, shape):
        """The matrices for each lasso time, and the jobs that fill them.

        A job is (dt, steps at start, snapshot to start from, [(steps,
        snapshot), ...] to fill in order).  A job starts from a snapshot
        of its own path or, at step 0, from the identity with the streams
        where the previous slot's snapshot left them; so jobs filled in
        order only read snapshots that are filled.
        """
        ident = np.broadcast_to(np.eye(shape[1], dtype=complex), shape)
        out, jobs, need, offset, prev = [], [], 0, 0, self.origin
        for t in times:
            if t == 0:
                out.append(ident)
                continue
            steps, dt = step_grid(t, step_count)
            key = (offset, dt)
            snaps = self.paths[key] = self.paths.pop(key, {})
            if steps not in snaps:
                base = max((n for n in snaps if n < steps), default=0)
                src = snaps[base] if base else (None, prev[1])
                ends = [*range(base - base % step_count + step_count, steps, step_count), steps]
                new = [(n, (np.empty(shape, complex), [None] * shape[0])) for n in ends]
                snaps.update(new)
                jobs.append((dt, base, src, new))
            prev = snaps[steps]
            out.append(prev[0])
            need += -(-steps // step_count)
            offset += steps
        self.budget = max(self.budget, 2 * need)
        return out, jobs

    def trim(self):
        held = sum(len(s) for s in self.paths.values())
        while held > self.budget:
            held -= len(self.paths.pop(next(iter(self.paths))))


def _store_key(cfg):
    """What the paths depend on; the store starts afresh when it changes."""
    return (cfg.seed, cfg.N, cfg.samples, cfg.step_count)


def _lasso_matrices(cfg, times):
    """One read-only (samples, N, N) array per lasso time, in slot order.

    Matrices come from the paths already evolved through ``cfg`` where
    they can; the rest is evolved on from the nearest snapshot below it,
    and every new snapshot passes the unitarity check once.
    """
    key = _store_key(cfg)
    store = cfg._paths
    if store is None or store.key != key:
        store = cfg._paths = _PathStore(cfg, key)
    shape = (cfg.samples, cfg.N, cfg.N)
    with store.lock:
        try:
            mats, jobs = store.plan(times, cfg.step_count, shape)
            if jobs:
                _run_jobs(jobs, store.gens, cfg)
                for *_, new in jobs:
                    for _, (U, _) in new:
                        U.flags.writeable = False
                        _check_unitary(U)
        except BaseException:
            # snapshots planned by this call may be unfilled or unchecked
            store.paths.clear()
            raise
        store.trim()
    return mats


def _run_jobs(jobs, gens, cfg):
    """Fill the snapshots that ``_PathStore.plan`` laid out, with the store's generators."""

    def work(lo, hi):
        chunk = gens[lo:hi]
        for dt, n, (U, states), new in jobs:
            for g, state in zip(chunk, states[lo:hi]):
                g.bit_generator.state = state
            U = None if U is None else U[lo:hi]
            for end, (snap, snap_states) in new:
                U = evolve_unitaries(chunk, cfg.N, (end - n) * dt, cfg.step_count, start=U, dt=dt)
                snap[lo:hi] = U
                snap_states[lo:hi] = [g.bit_generator.state for g in chunk]
                n = end

    _by_sample(cfg, work)


def _by_sample(cfg, work):
    """Run ``work(lo, hi)`` over the samples, split across cfg.workers threads.

    Every sample owns its stream, so the split does not affect the values.
    """
    S = cfg.samples
    w = min(cfg.workers, S)
    if w <= 1:
        work(0, S)
    else:
        bounds = [round(S * i / w) for i in range(w + 1)]
        with ThreadPoolExecutor(max_workers=w) as pool:
            futs = [
                pool.submit(work, bounds[i], bounds[i + 1])
                for i in range(w)
                if bounds[i] < bounds[i + 1]
            ]
            for f in futs:
                f.result()


def _dagger(U):
    return U.conj().transpose(0, 2, 1)


def _product(mats, letters, prod=None):
    """``prod`` (no factor when None) times the letters' matrices, left to right."""
    for idx, expo in letters:
        m = mats[idx] if expo == 1 else _dagger(mats[idx])
        prod = m if prod is None else prod @ m
    return prod


def _scalar_values(mats, word, N):
    """The normalized trace of a nonempty word's product, one value per sample."""
    return np.einsum("sii->s", _product(mats, word)) / N


def estimate_wilson_many(lassos, words, cfg):
    """Estimate several scalar Wilson loops over one lasso family with shared samples.

    ``lassos`` is a list of (face area, orientation) pairs; orientation -1
    means the lasso is traversed against its bulk.  A word is a sequence
    of (lasso index, exponent +1 or -1) letters, and its estimate is the
    mean normalized trace of the letters' matrix product.  A word that
    extends the word before it continues that word's product; a product
    is built left to right either way, so each value is bit for bit that
    of the word estimated on its own.
    """
    areas = []
    for area, orient in lassos:
        if not 0 <= area < math.inf:
            raise ValueError(f"face area must be finite and >= 0, got {area}")
        if orient not in (1, -1):
            raise ValueError(f"orientation must be +1 or -1, got {orient}")
        areas.append(area)
    for word in words:
        for letter in word:
            if len(letter) != 2 or letter[1] not in (1, -1):
                raise ValueError(f"letter must be (lasso index, +1 or -1), got {letter!r}")
            if not 0 <= letter[0] < len(lassos):
                raise ValueError(f"word references lasso {letter[0]} of {len(lassos)}")

    mats = _lasso_matrices(cfg, areas)
    for k, (_, orient) in enumerate(lassos):
        if orient == -1:
            mats[k] = _dagger(mats[k])

    out, prev, prod = [], [], None
    for word in words:
        letters = [tuple(letter) for letter in word]
        if not letters:
            out.append(WilsonEstimate(1.0, 0.0, cfg.samples))
            continue
        if letters[: len(prev)] == prev:
            prod = _product(mats, letters[len(prev) :], prod)
        else:
            prod = _product(mats, letters)
        prev = letters
        values = np.einsum("sii->s", prod) / cfg.N
        mean = values.mean()
        stderr = float(values.std()) / math.sqrt(cfg.samples)
        out.append(WilsonEstimate(mean, stderr, cfg.samples))
    return out
