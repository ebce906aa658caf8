"""Finite-dimension random-matrix oracle for the exact field values.

Draws Brownian-motion samples on U(N), one independent matrix per lasso
with time equal to the face area, and estimates scalar Wilson loops: the
mean normalized trace of the matrix word.

Reproducibility: every sample owns a counter-based RNG stream spawned
from the seed, so estimates are independent of the worker count, and a
fixed (seed, config) pair reproduces values bit-for-bit.  Lasso slot k of
a call reads its sample's stream from where slot k-1 stopped.  Consecutive
slots with one step size form a run, which walks one path P from the
identity at its first slot's start draw, and each slot's matrix is the
path's increment over the slot's own steps, P(end) P(start)^dagger: a
Brownian motion's increments over disjoint intervals are independent
copies of it, and this one equals the slot's walk from the identity over
the same draws up to rounding.  So every lasso matrix is an increment of
one path per (run start draw, step size).  A config keeps the paths
evolved through it, with the one set of per-sample generators that walks
them and the increments read from them, and calls sharing a config take
their matrices from those and evolve only what no earlier call did; the
values are bit-for-bit those of a fresh config.  The paths are dropped
when the config's seed, N, samples or step_count change; copies and
pickles of a config start without them.  Estimates from calls sharing a
config are therefore correlated, as they already were through the shared
streams (the first lasso of every loop of area 1 is the same matrix).  A
config retains at most twice as many path snapshots and increments as
its most demanding call would need snapshots with a path per slot: about
two per unit of that call's total lasso area plus two per lasso, each one
samples x N x N complex entries (26 MB at N=64, 400 samples), plus one
generator state per sample for a snapshot; they are freed with the
config.

The Cayley step
---------------
One step advances U by the Cayley retraction of an antihermitian Gaussian
increment,

    U  <-  (I - B/2)^{-1} (I + B/2) U,      B = A - A^3/12,  A = i dH,

which is exactly unitary (B is antihermitian) and realizes the group
Brownian motion with entry variance t/N and normalized-trace drift
e^{-t/2}.  The cubic compensation makes the retraction agree with the
exact exponential exp(A) to fifth order; without it the plain Cayley map
exp(A + A^3/12 + ...) carries a weak drift error linear in the step size,
measurable against the Monte Carlo resolution at coarse step counts.

The increment is built from one real (N, N) block X of standard normals,

    A = sqrt(dt/N) ((-1+i)/2 X + (1+i)/2 X^T),

so Re A = sqrt(dt/N) (X^T - X)/2 and Im A = sqrt(dt/N) (X + X^T)/2.  The
sum and the difference of two independent normals are independent, so
the diagonal is i N(0, dt/N) and the off-diagonal real and imaginary parts
are independent N(0, dt/2N): the GUE law from N^2 normals, the Hermitian
part's degrees of freedom, and A is antihermitian bit for bit.

Since (I - B/2)^{-1} (I + B/2) = 2 (I - B/2)^{-1} - I, the step is computed
with C = A/4 as

    U  <-  solve(M/2, U) - U,      M/2 = I/2 - C + (4/3) C^3,

which costs two matmuls (for C^3) and one solve per sample-step, with no
B U product.

The walk is batched across samples: every step takes one increment per
sample from that sample's own stream and advances all samples at once,
so a sample's values do not depend on the samples batched with it.  The
increments are drawn a block of steps at a time, one ``standard_normal``
call per sample and block, which on one stream gives bit for bit the draws,
and the generator state, of one call per step.  The last block ends at the
call's last step, so no stream is read past the piece the call walks.  A
block is as many steps as fit in ``_NOISE_FLOATS`` float64s (512 KB), and
at least one.  The batch is one chunk of the samples (``_chunks``), which
walks all of a call's steps on one thread, and the chunk is small enough
for ``_BLOCK_STEPS``: a block is 40 steps at N=4 with 100 samples, and 16
at N=64 for a one-sample chunk, at any sample count.
"""

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._ints import as_int

__all__ = ["MatrixSamplerConfig", "WilsonEstimate", "estimate_wilson_many"]

_UNITARITY_TOL = 1e-8

_NOISE_FLOATS = 1 << 16

# A chunk is small enough that a noise block holds this many steps.
_BLOCK_STEPS = 16

# A batch splits across the usable CPUs by default once samples * N**3
# reaches this; below it, thread dispatch costs more than the split saves.
_SPLIT_WORK = 2**15


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
    under the statistical resolution.  Up to ``workers`` threads walk the
    samples, at most one per chunk of them; by default one per usable CPU
    when samples * N**3 >= _SPLIT_WORK and one otherwise.  N, samples,
    seed, step_count and workers must be integers (numpy integers too,
    bools not).
    """

    def __init__(
        self,
        N=64,
        samples=400,
        seed=0,
        step_count=200,
        workers=None,
    ):
        N = as_int(N, "matrix size must be an integer >= 2", 2)
        samples = as_int(samples, "sample count must be an integer >= 1", 1)
        seed = as_int(seed, "seed must be an integer >= 0", 0)
        step_count = as_int(
            step_count,
            "step_count too small or not an integer: need at least 50 steps per "
            "unit time (unitarity/discretization drift exceeds tolerance)",
            50,
        )
        if workers is None:
            workers = default_workers(N, samples)
        else:
            workers = as_int(workers, "worker count must be an integer >= 1", 1)
        self.N = N
        self.samples = samples
        self.seed = seed
        self.step_count = step_count
        self.workers = workers
        self._paths = None  # a _PathStore: the paths and increments read through this config

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


def step_grid(t, step_count):
    """(steps, dt) of the Cayley walk to time t > 0 at ``step_count`` per unit."""
    steps = max(1, math.ceil(step_count * t - 1e-9))
    return steps, t / steps


def evolve_unitaries(gens, N, t, step_count, start=None, dt=None):
    """One Brownian-motion sample per generator, evolved for time t.

    Returns an (S, N, N) array, S = len(gens).  Each generator backs one
    sample stream, consumed in step-major order, so identical generators
    give identical samples.

    ``start`` (S, N, N) is the matrix each sample starts from, the
    identity by default; each generator is read from the position it
    stands at.  ``dt`` fixes the step size, t / ceil(step_count t) by
    default.  A path cut into pieces, each piece started from the last
    one's matrices with the generators where it left them and with the
    same ``dt``, equals the path walked in one call bit for bit.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    S = len(gens)
    if start is None:
        U = np.broadcast_to(np.eye(N, dtype=complex), (S, N, N)).copy()
    else:
        U = np.array(start, dtype=complex, order="C")
    if S == 0 or t == 0:
        return U
    if dt is None:
        steps, dt = step_grid(t, step_count)
    else:
        steps = round(t / dt)
    # C = A/4 = h ((X^T - X) + i (X + X^T)); the noise is scaled by h as drawn
    h = math.sqrt(dt / N) / 8.0
    block = max(1, _NOISE_FLOATS // (S * N * N))
    noise = np.empty((S, min(block, steps), N, N))
    C = np.empty((S, N, N), complex)
    for j in range(steps):
        if j % block == 0:
            n = min(block, steps - j)
            for s, g in enumerate(gens):
                g.standard_normal(out=noise[s, :n])
            noise[:, :n] *= h
        Y = noise[:, j % block]
        Yt = Y.transpose(0, 2, 1)
        np.subtract(Yt, Y, out=C.real)
        np.add(Y, Yt, out=C.imag)
        # M/2 = I/2 - C + (4/3) C^3, built in the C^3 buffer
        M = C @ C @ C
        M *= 4.0 / 3.0
        M -= C
        M.reshape(S, N * N)[:, :: N + 1] += 0.5
        V = np.linalg.solve(M, U)
        U = np.subtract(V, U, out=V)
    return U


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
    o_k = steps_0 + ... + steps_{k-1} (one draw is the noise of one step).
    Consecutive slots with one step size dt form a run (a zero-time slot
    reads no draws and does not end one), which walks one path P from its
    first slot's offset o: a slot at o + m of n steps takes the increment
    P(m + n) P(m)^dagger, the walk over its own draws up to rounding, and
    the run's first slot takes P(n) itself.  ``paths`` maps (o, dt) to the
    path's entries: key (0, n) holds a read-only (S, N, N) snapshot P(n)
    with each stream's generator state at draw o + n, kept at every
    multiple of step_count and at every slot's end, and key (m, n), m > 0,
    holds the increment P(n) P(m)^dagger with no states.  ``origin`` holds
    the states at draw 0, and ``gens`` are the store's one generator per
    sample, set to a snapshot's states before they walk on from it.  Paths,
    and the entries of each, are kept in the order they were last read,
    and the entries read longest ago are dropped while the store holds
    more than twice the snapshots that the largest call so far would need
    with every slot on a path of its own.  ``lock`` is held by a call from
    planning to trimming, so threads may share a config.
    """

    def __init__(self, cfg, key):
        self.key = key
        self.lock = threading.Lock()
        self.gens = _streams(cfg.seed, cfg.samples)
        self.origin = (None, [g.bit_generator.state for g in self.gens])
        self.paths = {}
        self.budget = 0

    def plan(self, times, step_count, shape):
        """The matrices for each lasso time, the jobs that fill its
        snapshots and the increments formed from them.

        A job is (dt, steps at start, snapshot to start from, [(key,
        snapshot), ...] to fill in order).  A job starts from a snapshot
        of its own path or, at step 0, from the identity with the streams
        where the previous slot's snapshot left them; so jobs filled in
        order only read snapshots that are filled.  An increment is
        (array to fill, P(m + n), P(m)), formed after the jobs.
        """
        ident = np.broadcast_to(np.eye(shape[1], dtype=complex), shape)
        out, jobs, incs, need, offset, prev, run_dt = [], [], [], 0, 0, self.origin, None
        for t in times:
            if t == 0:
                out.append(ident)
                continue
            steps, dt = step_grid(t, step_count)
            if dt != run_dt:  # a new run, from the states the previous slot left
                start, m, run_dt = prev[1], 0, dt
                path = self.paths[offset, dt] = self.paths.pop((offset, dt), {})
            end = m + steps
            if (0, end) not in path:
                base = max((n for i, n in path if i == 0 and n < end), default=0)
                src = path[0, base] if base else (None, start)
                ends = [*range(base - base % step_count + step_count, end, step_count), end]
                new = [((0, n), (np.empty(shape, complex), [None] * shape[0])) for n in ends]
                path.update(new)
                jobs.append((dt, base, src, new))
            prev = path[0, end] = path.pop((0, end))  # read: last in the order
            if m:
                inc = path.pop((m, end), None)
                if inc is None:
                    inc = (np.empty(shape, complex), None)
                    incs.append((inc[0], prev[0], path[0, m][0]))
                path[m, end] = inc
            out.append(path[m, end][0])
            need += -(-steps // step_count)
            offset += steps
            m = end
        self.budget = max(self.budget, 2 * need)
        return out, jobs, incs

    def trim(self):
        held = sum(len(path) for path in self.paths.values())
        for key, path in list(self.paths.items()):
            while held > self.budget and path:
                del path[next(iter(path))]
                held -= 1
            if not path:
                del self.paths[key]


def _lasso_matrices(cfg, times):
    """One read-only (samples, N, N) array per lasso time, in slot order.

    Matrices come from the paths already evolved through ``cfg`` where
    they can; the rest is evolved on from the nearest snapshot below it,
    and every new snapshot and increment passes the unitarity check once.
    """
    key = (cfg.seed, cfg.N, cfg.samples, cfg.step_count)  # what the paths depend on
    store = cfg._paths
    if store is None or store.key != key:
        store = cfg._paths = _PathStore(cfg, key)
    shape = (cfg.samples, cfg.N, cfg.N)
    with store.lock:
        try:
            mats, jobs, incs = store.plan(times, cfg.step_count, shape)
            if jobs or incs:
                _run_jobs(jobs, incs, store.gens, cfg)
                fresh = [U for *_, new in jobs for _, (U, _) in new] + [U for U, *_ in incs]
                for U in fresh:
                    U.flags.writeable = False
        except BaseException:
            # entries planned by this call may be unfilled or unchecked
            store.paths.clear()
            raise
        store.trim()
    return mats


def _run_jobs(jobs, incs, gens, cfg):
    """Fill the snapshots and increments that ``_PathStore.plan`` laid out,
    with the store's generators, and check each chunk's rows of them for
    unitarity."""

    def work(lo, hi):
        chunk = gens[lo:hi]
        for dt, n, (U, states), new in jobs:
            for g, state in zip(chunk, states[lo:hi]):
                g.bit_generator.state = state
            U = None if U is None else U[lo:hi]
            for (_, end), (snap, snap_states) in new:
                U = evolve_unitaries(chunk, cfg.N, (end - n) * dt, cfg.step_count, start=U, dt=dt)
                _check_unitary(U)
                snap[lo:hi] = U
                snap_states[lo:hi] = [g.bit_generator.state for g in chunk]
                n = end
        for inc, later, earlier in incs:
            np.matmul(later[lo:hi], _dagger(earlier[lo:hi]), out=inc[lo:hi])
            _check_unitary(inc[lo:hi])

    _by_sample(cfg, work)


def _chunks(N, samples, workers):
    """The (lo, hi) sample ranges, in order and near-equal: enough that each
    leaves room for ``_BLOCK_STEPS`` steps of noise, and one for every
    worker while there are samples to give it."""
    room = max(1, _NOISE_FLOATS // (_BLOCK_STEPS * N * N))
    count = max(-(-samples // room), min(workers, samples))
    return [(i * samples // count, (i + 1) * samples // count) for i in range(count)]


def _by_sample(cfg, work):
    """Run ``work(lo, hi)`` on every chunk of the samples, on at most
    cfg.workers threads, or in order on this one when that is one.

    Every sample owns its stream, so the split does not affect the values.
    """
    chunks = _chunks(cfg.N, cfg.samples, cfg.workers)
    threads = min(cfg.workers, len(chunks))
    if threads == 1:
        for lo, hi in chunks:
            work(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, *zip(*chunks)))


def _dagger(U):
    return U.conj().transpose(0, 2, 1)


def _letter(letter, count):
    """``letter`` as a (lasso index, exponent) pair of ints by ``as_int``."""
    try:
        idx, expo = letter
        idx, expo = as_int(idx, ""), as_int(expo, "")
    except (TypeError, ValueError):
        expo = 0
    if expo not in (1, -1):
        raise ValueError(f"letter must be (lasso index, +1 or -1), got {letter!r}")
    if not 0 <= idx < count:
        raise ValueError(f"word references lasso {idx} of {count}")
    return idx, expo


def estimate_wilson_many(lassos, words, cfg):
    """Estimate several scalar Wilson loops over one lasso family with shared samples.

    ``lassos`` is an iterable of (face area, orientation) pairs;
    orientation -1 means the lasso is traversed against its bulk.
    ``words`` is an iterable of words, each an iterable of (lasso index,
    exponent +1 or -1) letters, and a word's estimate is the mean
    normalized trace of its letters' matrix product.  A word that extends
    the word before it continues that word's product; a product is built
    left to right either way, so each value is bit for bit that of the
    word estimated on its own.  An area is a real number, not a bool;
    indices, exponents and orientations are integers by ``as_int``.

    The words are walked once, in order, and a word's letters are checked
    when the walk reaches it, so a bad letter fails after the lassos'
    matrices are evolved.  A letter's matrix, its lasso's adjoint where
    the exponent is not the orientation, is kept while consecutive words
    read it.
    """
    lassos = list(lassos)
    areas, orients = [], []
    for area, orient in lassos:
        real = isinstance(area, numbers.Real) and not isinstance(area, bool)
        if not (real and 0 <= area < math.inf):
            raise ValueError(f"face area must be finite and >= 0, got {area}")
        if not math.isfinite(cfg.step_count * area):
            raise ValueError(
                f"face area {area} at {cfg.step_count} steps per unit time "
                "needs a step count that is not finite"
            )
        try:
            sign = as_int(orient, "", -1, 1)
        except ValueError:
            sign = 0
        if not sign:
            raise ValueError(f"orientation must be +1 or -1, got {orient}")
        areas.append(area)
        orients.append(sign)

    mats = _lasso_matrices(cfg, areas)
    out, prev, prod, table = [], [], None, {}
    for word in words:
        letters = [_letter(letter, len(lassos)) for letter in word]
        table = {
            (idx, expo): table[idx, expo] if (idx, expo) in table
            else mats[idx] if orients[idx] == expo
            else _dagger(mats[idx])
            for idx, expo in set(letters)
        }
        if not letters:
            out.append(WilsonEstimate(1.0, 0.0, cfg.samples))
            continue
        if letters[: len(prev)] != prev:
            prev, prod = [], None
        for letter in letters[len(prev) :]:
            prod = table[letter] if prod is None else prod @ table[letter]
        prev = letters
        values = np.einsum("sii->s", prod) / cfg.N
        mean = values.mean()
        stderr = float(values.std()) / math.sqrt(cfg.samples)
        out.append(WilsonEstimate(mean, stderr, cfg.samples))
    return out
