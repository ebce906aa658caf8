"""Sample-path kernel for Brownian motion on the unitary group.

One step advances U by the Cayley retraction of an antihermitian Gaussian
increment,

    U  <-  (I - B/2)^{-1} (I + B/2) U,      B = A - A^3/12,  A = i dH,

which is exactly unitary (B is antihermitian) and realizes the group
Brownian motion with entry variance t/N and normalized-trace drift
e^{-t/2}.  The cubic compensation makes the retraction agree with the
exact exponential exp(A) to fifth order; without it the plain Cayley map
exp(A + A^3/12 + ...) carries a weak drift error linear in the step size,
measurable against the Monte Carlo resolution at coarse step counts.

Since (I - B/2)^{-1} (I + B/2) = 2 (I - B/2)^{-1} - I, the step is computed
as

    U  <-  2 solve(M, U) - U,      M = I - B/2 = I - A/2 + A^3/24,

which costs two matmuls (for A^3) and one solve per sample-step, with no
B U product.

The walk is batched across samples: every step takes one increment per
sample from that sample's own stream and advances all samples at once,
so a sample's values do not depend on the samples batched with it.  The
increments are drawn a block of steps at a time, one ``standard_normal``
call per sample and block, which on one stream gives bit for bit the draws,
and the generator state, of one call per step.  The last block ends at the
call's last step, so no stream is read past the piece the call walks.  The
noise buffer holds at most ``_NOISE_FLOATS`` float64s (512 KB): a block is
20 steps at N=4 with 100 samples, 4 at N=64 with 2 and 1 at N=64 with 400,
where one block per 50-step piece would take 1.3 GB.
"""

import math

import numpy as np

__all__ = ["step_grid", "evolve_unitaries"]

_NOISE_FLOATS = 1 << 16


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
    return _evolve_batched(gens, U, steps, dt)


def _evolve_batched(gens, U, steps, dt):
    S, N = U.shape[0], U.shape[1]
    diag = np.arange(N)
    # A = i (Z + Z*) / 2 sqrt(dt/N): a GUE increment of entry variance dt/N
    scale = 0.5 * math.sqrt(dt / N)
    block = max(1, _NOISE_FLOATS // (S * N * N * 2))
    noise = np.empty((S, min(block, steps), N, N, 2))
    for j in range(steps):
        if j % block == 0:
            n = min(block, steps - j)
            for s, g in enumerate(gens):
                g.standard_normal(out=noise[s, :n])
        Z = noise[:, j % block].view(np.complex128)[..., 0]
        A = Z + Z.conj().transpose(0, 2, 1)
        A *= 1j * scale
        # M = I - B/2 = I - A/2 + A^3/24, built in the A^3 buffer
        M = A @ A @ A
        M /= 24.0
        A *= 0.5
        M -= A
        M[:, diag, diag] += 1.0
        V = np.linalg.solve(M, U)
        V *= 2.0
        U = np.subtract(V, U, out=V)
    return U
