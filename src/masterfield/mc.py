"""Finite-dimension random-matrix oracle for the exact field values.

Draws Brownian-motion samples on U(N) (or O(N)), one independent matrix
per lasso with time equal to the face area, and estimates Wilson-type
observables: the normalized trace of the matrix word for scalar
observables, or a normalized block trace for entry words over a block
partition.

Reproducibility: every sample owns a counter-based RNG stream spawned
from the seed, so estimates are independent of the worker count, and a
fixed (seed, config) pair reproduces values bit-for-bit.  Lasso slot k of
a call reads its sample's stream from where slot k-1 stopped, so every
lasso matrix is a prefix of one path per (start draw, step size).  A
config keeps the paths evolved through it, and calls sharing a config
take their matrices from those paths and evolve only what no earlier call
did; the values are bit-for-bit those of a fresh config.  The paths are
dropped when the config's seed, N, samples, step_count or field_scalars
change; copies and pickles of a config start without them, and
``sample_ubm_batch`` always evolves afresh.  Estimates from calls sharing
a config are therefore correlated, as they already were through the
shared streams (the first lasso of every loop of area 1 is the same
matrix).  A config retains at most twice the path snapshots that its
most demanding call needs: about two per unit of that call's total lasso
area plus two per lasso, each one samples x N x N scalars (26 MB at
N=64, 400 samples, complex) plus one generator state per sample; they
are freed with the config.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._kernels import evolve_unitaries, scalar_dtype, step_grid

__all__ = [
    "MatrixSamplerConfig",
    "BlockPartition",
    "WilsonEstimate",
    "sample_ubm",
    "sample_ubm_batch",
    "estimate_wilson",
    "estimate_wilson_many",
]

_UNITARITY_TOL = 1e-8


def default_workers():
    raw = os.environ.get("MASTERFIELD_WORKERS", "1")
    try:
        w = int(raw)
    except ValueError:
        w = 0
    if w < 1:
        raise ValueError(f"MASTERFIELD_WORKERS must be an integer >= 1, got {raw!r}")
    return w


class MatrixSamplerConfig:
    """Sampling parameters: matrix size, scalars, step density, seed, count.

    ``step_count`` is the number of SDE steps per unit of time; at least
    50 per unit time are required for the retraction error to stay well
    under the statistical resolution.
    """

    def __init__(
        self,
        N=64,
        samples=400,
        seed=0,
        step_count=200,
        field_scalars="complex",
        workers=None,
    ):
        if N < 2:
            raise ValueError(f"matrix size must be at least 2, got {N}")
        if samples < 1:
            raise ValueError(f"sample count must be positive, got {samples}")
        if step_count < 50:
            raise ValueError(
                "step_count too small: need at least 50 steps per unit time, "
                f"got {step_count} (unitarity/discretization drift exceeds tolerance)"
            )
        if field_scalars not in ("complex", "real"):
            raise ValueError(
                f"field_scalars must be 'complex' or 'real', got {field_scalars!r}"
            )
        workers = default_workers() if workers is None else int(workers)
        if workers < 1:
            raise ValueError(f"worker count must be at least 1, got {workers}")
        self.N = N
        self.samples = samples
        self.seed = seed
        self.step_count = step_count
        self.field_scalars = field_scalars
        self.workers = workers
        self._paths = None  # a _PathStore: the paths evolved through this config

    def __getstate__(self):
        # copies and pickles start without paths; the store and its lock
        # stay with this instance
        return {**self.__dict__, "_paths": None}

    def __repr__(self):
        return (
            f"MatrixSamplerConfig(N={self.N}, samples={self.samples}, "
            f"seed={self.seed}, step_count={self.step_count}, "
            f"field_scalars={self.field_scalars!r}, workers={self.workers})"
        )


class BlockPartition:
    """A partition N = d_1 + ... + d_n defining diagonal blocks and projectors."""

    def __init__(self, d):
        d = tuple(int(x) for x in d)
        if not d or any(x <= 0 for x in d):
            raise ValueError(f"block sizes must be positive, got {d}")
        self.d = d
        self.N = sum(d)
        offs = [0]
        for x in d:
            offs.append(offs[-1] + x)
        self.offsets = tuple(offs)

    @classmethod
    def square(cls, n, d):
        """n equal blocks of size d (so N = n*d)."""
        return cls((d,) * n)

    def __len__(self):
        return len(self.d)

    def slice_of(self, i):
        return slice(self.offsets[i], self.offsets[i + 1])

    def projector(self, i):
        p = np.zeros((self.N, self.N))
        sl = self.slice_of(i)
        p[sl, sl] = np.eye(self.d[i])
        return p

    def __repr__(self):
        return f"BlockPartition(d={self.d})"


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
    ident = np.eye(U.shape[-1])
    drift = max(
        float(np.abs(u.conj().T @ u - ident).max()) for u in U.reshape(-1, *U.shape[-2:])
    )
    if drift > _UNITARITY_TOL:
        raise RuntimeError(
            f"unitarity drift {drift:.3e} exceeds tolerance {_UNITARITY_TOL}"
        )


def sample_ubm(cfg, t):
    """One Brownian-motion sample at time t (the first stream of the seed)."""
    U = evolve_unitaries(_streams(cfg.seed, 1), cfg.N, t, cfg.step_count, cfg.field_scalars)
    _check_unitary(U)
    return U[0]


def sample_ubm_batch(cfg, t):
    """All cfg.samples Brownian-motion samples at time t, shape (samples, N, N).

    The samples are evolved afresh, not taken from the paths kept by
    ``cfg``, and the array is the caller's own.
    """
    gens = _streams(cfg.seed, cfg.samples)
    U = np.empty((cfg.samples, cfg.N, cfg.N), scalar_dtype(cfg.field_scalars))

    def work(lo, hi):
        U[lo:hi] = evolve_unitaries(gens[lo:hi], cfg.N, t, cfg.step_count, cfg.field_scalars)

    _by_sample(cfg, work)
    _check_unitary(U)
    return U


class _PathStore:
    """The Brownian paths evolved through one config.

    Lasso slot k of a call reads the per-sample streams from draw offset
    o_k = steps_0 + ... + steps_{k-1} (one draw is the noise of one step),
    so its matrix is a prefix of the path that starts at o_k with step dt.
    ``paths`` maps (o, dt) to {steps: (matrices, states)}: a read-only
    (S, N, N) snapshot after that many steps, kept at every multiple of
    step_count and at every requested length, with each stream's generator
    state at draw o + steps; ``origin`` holds the states at draw 0.  Paths
    are kept in the order they were last read, and the ones read longest
    ago are dropped while the store holds more than twice the snapshots
    that the largest call so far needs on its own.  ``lock`` is held by
    a call from planning to trimming, so threads may share a config.
    """

    def __init__(self, cfg, key):
        self.key = key
        self.lock = threading.Lock()
        self.origin = (None, [g.bit_generator.state for g in _streams(cfg.seed, cfg.samples)])
        self.paths = {}
        self.budget = 0

    def plan(self, times, step_count, shape, dtype):
        """The matrices for each lasso time, and the jobs that fill them.

        A job is (dt, steps at start, snapshot to start from, [(steps,
        snapshot), ...] to fill in order).  A job starts from a snapshot
        of its own path or, at step 0, from the identity with the streams
        where the previous slot's snapshot left them; so jobs filled in
        order only read snapshots that are filled.
        """
        ident = np.broadcast_to(np.eye(shape[1], dtype=dtype), shape)
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
                new = [(n, (np.empty(shape, dtype), [None] * shape[0])) for n in ends]
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
    return (cfg.seed, cfg.N, cfg.samples, cfg.step_count, cfg.field_scalars)


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
    dtype = scalar_dtype(cfg.field_scalars)
    shape = (cfg.samples, cfg.N, cfg.N)
    with store.lock:
        try:
            mats, jobs = store.plan(times, cfg.step_count, shape, dtype)
            if jobs:
                _run_jobs(jobs, cfg)
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


def _run_jobs(jobs, cfg):
    """Fill the snapshots that ``_PathStore.plan`` laid out."""
    gens = _streams(cfg.seed, cfg.samples)

    def work(lo, hi):
        chunk = gens[lo:hi]
        for dt, n, (U, states), new in jobs:
            for g, state in zip(chunk, states[lo:hi]):
                g.bit_generator.state = state
            U = None if U is None else U[lo:hi]
            for end, (snap, snap_states) in new:
                U = evolve_unitaries(
                    chunk, cfg.N, (end - n) * dt, cfg.step_count,
                    cfg.field_scalars, start=U, dt=dt,
                )
                snap[lo:hi] = U
                snap_states[lo:hi] = [g.bit_generator.state for g in chunk]
                n = end

    _by_sample(cfg, work)


def _by_sample(cfg, work):
    """Run ``work(lo, hi)`` over the samples, split across cfg.workers threads.

    Every sample owns its stream, so the partition does not affect the values.
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


def _scalar_values(mats, word, N):
    S = mats[0].shape[0] if mats else 0
    prod = None
    for idx, expo in word:
        m = mats[idx] if expo == 1 else _dagger(mats[idx])
        prod = m if prod is None else prod @ m
    if prod is None:
        return np.ones(S, dtype=complex)
    return np.einsum("sii->s", prod) / N


def _entry_values(mats, word, partition):
    prod = None
    row0 = None
    prev_col = None
    for idx, i, j, star in word:
        if not (0 <= i < len(partition) and 0 <= j < len(partition)):
            raise ValueError(f"block index ({i},{j}) outside partition {partition.d}")
        blk = mats[idx][:, partition.slice_of(i), partition.slice_of(j)]
        if star:
            blk = _dagger(blk)
            i, j = j, i
        if prod is None:
            prod, row0 = blk, i
        else:
            if prev_col != i:
                raise ValueError(
                    f"entry word does not conform: block row {i} follows column {prev_col}"
                )
            prod = prod @ blk
        prev_col = j
    if prod is None:
        S = mats[0].shape[0] if mats else 0
        return np.ones(S, dtype=complex)
    if prev_col != row0:
        raise ValueError(
            f"entry word is not closed: starts at row {row0}, ends at column {prev_col}"
        )
    return np.einsum("sii->s", prod) / partition.d[row0]


def estimate_wilson_many(lassos, words, cfg, partition=None):
    """Estimate several observables over one lasso family with shared samples.

    ``lassos`` is a list of (face area, orientation) pairs; orientation -1
    means the lasso is traversed against its bulk.  Scalar observables are
    words of (lasso index, exponent) pairs; entry observables are words of
    (lasso index, block row, block column, star) and require ``partition``.
    """
    areas = []
    for area, orient in lassos:
        if area < 0:
            raise ValueError(f"face area must be >= 0, got {area}")
        if orient not in (1, -1):
            raise ValueError(f"orientation must be +1 or -1, got {orient}")
        areas.append(area)
    if partition is not None and partition.N != cfg.N:
        raise ValueError(f"partition covers {partition.N} but N = {cfg.N}")
    for word in words:
        for letter in word:
            idx = letter[0]
            if not (0 <= idx < len(lassos)):
                raise ValueError(f"word references lasso {idx} of {len(lassos)}")
            if partition is None and letter[1] not in (1, -1):
                raise ValueError(f"exponent must be +1 or -1, got {letter[1]}")

    mats = _lasso_matrices(cfg, areas)
    for k, (_, orient) in enumerate(lassos):
        if orient == -1:
            mats[k] = _dagger(mats[k])

    out = []
    for word in words:
        if len(word) == 0:
            out.append(WilsonEstimate(1.0, 0.0, cfg.samples))
            continue
        if partition is None:
            values = _scalar_values(mats, word, cfg.N)
        else:
            values = _entry_values(mats, word, partition)
        mean = values.mean()
        stderr = float(values.std()) / math.sqrt(cfg.samples)
        out.append(WilsonEstimate(mean, stderr, cfg.samples))
    return out


def estimate_wilson(lassos, word, cfg, partition=None):
    """Single-observable form of estimate_wilson_many."""
    return estimate_wilson_many(lassos, [word], cfg, partition=partition)[0]
