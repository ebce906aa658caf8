"""The benchmark's workloads: inputs from a seed, the timed job, the checks.

Every workload is a closed loop: one caller, each call waits for the one
before.  A repetition runs the workload's fixed job once; ``run.py``
repeats it for the measured time.  The oracles here share no code with
masterfield: the closed form of the free unitary Brownian motion moments
(Biane), lattice geometry done from scratch, values stored with the
benchmark, and for the sampler a z-score against those stored values.
"""

import cmath
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "exact_deep_reference.json")

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
EXACT_TOL = 1e-12
GROSS_SIGMA = 8.0  # sampler gross-error bound, in standard errors

# -- oracles -----------------------------------------------------------------

_STEP = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
_BACK = {"N": "S", "S": "N", "E": "W", "W": "E"}


def closed_form_moment(t, k):
    """m_k(t) = e^{-kt/2} sum_{j<k} (-t)^j k^{j-1} C(k, j+1) / j!  (Biane)."""
    k = abs(k)
    if k == 0:
        return 1.0
    t = Fraction(t)
    poly = sum(
        (-t) ** j * Fraction(k) ** (j - 1) * math.comb(k, j + 1) / math.factorial(j)
        for j in range(k)
    )
    return float(poly) * math.exp(-k * float(t) / 2)


def single_face_area(word):
    """The face's area if the loop's drawing has one bounded face, traversed once.

    Free reduction, then stripping of conjugating first/last step pairs,
    leaves the cyclic core; with one bounded face in the whole drawing (the
    tails included), the loop goes once round it when that core visits no
    vertex twice.  Returns None otherwise.
    """
    if face_count(word) != 1:
        return None
    core = []
    for c in word:
        if core and core[-1] == _BACK[c]:
            core.pop()
        else:
            core.append(c)
    i, j = 0, len(core)
    while j - i >= 2 and core[i] == _BACK[core[j - 1]]:
        i, j = i + 1, j - 1
    core = core[i:j]
    if not core:
        return None
    x = y = area2 = 0
    seen = {(0, 0)}
    for n, c in enumerate(core):
        dx, dy = _STEP[c]
        area2 += x * (y + dy) - (x + dx) * y
        x, y = x + dx, y + dy
        if (x, y) in seen and n != len(core) - 1:
            return None
        seen.add((x, y))
    return abs(area2) / 2


def face_count(word):
    """Bounded faces of the loop's drawing, by Euler's formula F = E - V + 1."""
    x = y = 0
    verts = {(0, 0)}
    edges = set()
    for c in word:
        dx, dy = _STEP[c]
        edges.add(frozenset(((x, y), (x + dx, y + dy))))
        x, y = x + dx, y + dy
        verts.add((x, y))
    return len(edges) - len(verts) + 1


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["values"]


def _finite(v):
    return isinstance(v, (int, float, complex)) and cmath.isfinite(v)


def tail_percentile(workload, calls_per_rep):
    """Highest ladder percentile with ``tail_beyond`` calls or more beyond it."""
    n = calls_per_rep * workload.min_reps
    return max(p for p in TAIL_LADDER if n * (100 - p) / 100 >= workload.tail_beyond)


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Exact:
    """Exact evaluations: ``plan`` is the (product, k) calls made per loop."""

    name: str
    why: str
    plan: tuple
    loops: int = 0  # 0: the stored corpus; else this many random loops
    min_reps: int = 2
    tail_beyond: int = 10
    kind = "exact"

    def inputs(self, mf, seed):
        rng = np.random.default_rng(seed)
        if self.loops == 0:
            words = list(load_reference())
            rng.shuffle(words)
            return words
        return [mf.planar.random_loop(rng).word for _ in range(self.loops)]

    def warm(self, mf):
        mf.fubm_moments(1.0, 20)
        mf.evaluate(mf.HolonomyField(), "NESW", 1)

    def calls_per_rep(self, words):
        return len(words) * len(self.plan)

    def job(self, mf, words, rep, tick=lambda: None):
        """One repetition on fresh fields; returns (outputs, latencies).

        ``tick`` runs between calls (run.py's host-speed probe).
        """
        fields = {p: mf.HolonomyField(product=p) for p in {p for p, _ in self.plan}}
        outs, lats = [], []
        for w in words:
            for product, k in self.plan:
                t0 = perf_counter()
                try:
                    out = mf.evaluate(fields[product], w, k).value
                except Exception as exc:  # a failed operation, counted below
                    out = exc
                lats.append(perf_counter() - t0)
                outs.append(out)
                tick()
        return outs, lats

    def values_per_rep(self, words):
        return self.calls_per_rep(words)

    def check(self, words, reps):
        """Count failed calls; ``reps`` is a list of per-repetition outputs."""
        ref = load_reference() if self.loops == 0 else {}
        oracles = {}  # (word, k) -> values the call must match
        for w in set(words):
            area = single_face_area(w)
            for k in {k for _, k in self.plan}:
                want = [ref[w][k - 1]] if w in ref else []
                if area is not None:
                    want.append(closed_form_moment(area, k))
                oracles[w, k] = want
        keys = [(w, k) for w in words for _, k in self.plan]
        failed = 0
        for outs in reps:
            for key, v, v0 in zip(keys, outs, reps[0]):
                ok = _finite(v) and abs(v) <= 1 + EXACT_TOL
                # every repetition must give the first one's value
                ok = ok and v == v0 and all(abs(v - x) <= EXACT_TOL for x in oracles[key])
                failed += not ok
        return failed, {}

    def shares(self, mf, words):
        """What caching could exploit: repeated words, and face counts."""
        faces = [face_count(w) for w in words]
        return {
            "loops": len(words),
            "distinct_word_share": len(set(words)) / len(words),
            "single_face_share": sum(single_face_area(w) is not None for w in words) / len(words),
            "face_count_histogram": {str(f): faces.count(f) for f in sorted(set(faces))},
        }


@dataclass(frozen=True)
class Sampler:
    """The corpus sampler job: per loop, estimate k = 1..3 and compare.

    ``pooled`` checks each loop on the samples of all repetitions together
    (at N = 64 the finite-N bias is far below any pooled standard error);
    otherwise each repetition is checked on its own, so that the finite-N
    bias stays a fixed share of the standard error however many repetitions
    run.
    """

    name: str
    why: str
    N: int
    samples: int
    pooled: bool
    step_count: int = 50
    powers: tuple = (1, 2, 3)
    min_reps: int = 4
    tail_beyond: int = 10
    kind = "mc"

    def inputs(self, mf, seed):
        return {"words": list(load_reference()), "seed": seed}

    def warm(self, mf):
        mf.fubm_moments(1.0, 20)
        mf.evaluate(mf.HolonomyField(), "NESW", 1)
        cfg = mf.MatrixSamplerConfig(N=self.N, samples=1, seed=0, step_count=self.step_count)
        mf.estimate_wilson_many([(0.1, 1)], [((0, 1),)], cfg)

    def calls_per_rep(self, inputs):
        return len(inputs["words"])

    def config(self, mf, inputs, rep):
        seed = int(np.random.SeedSequence([inputs["seed"], rep]).generate_state(1)[0])
        return mf.MatrixSamplerConfig(
            N=self.N, samples=self.samples, seed=seed, step_count=self.step_count
        )

    def job(self, mf, inputs, rep, tick=lambda: None):
        cfg = self.config(mf, inputs, rep)
        field = mf.HolonomyField()
        outs, lats = [], []
        for w in inputs["words"]:
            t0 = perf_counter()
            try:
                lassos, letters = mf.loop_observable(w)
                est = mf.estimate_wilson_many(
                    lassos, [tuple(letters) * k for k in self.powers], cfg
                )
                exact = [mf.evaluate(field, w, k).value for k in self.powers]
                out = [(e.mean, e.stderr, e.samples) for e in est], exact
            except Exception as exc:  # a failed operation, counted below
                out = exc
            lats.append(perf_counter() - t0)
            outs.append(out)
            tick()
        return outs, lats

    def values_per_rep(self, inputs):
        return len(inputs["words"]) * len(self.powers)

    def check(self, inputs, reps):
        ref = load_reference()
        words = inputs["words"]
        groups = [reps] if self.pooled else [[r] for r in reps]
        failed, misses3, zmax = 0, 0, 0.0
        for group in groups:
            for i, w in enumerate(words):
                outs = [r[i] for r in group]
                bad = any(not self._output_ok(o, w, ref) for o in outs)
                if not bad:
                    for j, k in enumerate(self.powers):
                        z = _pooled_z([o[0][j] for o in outs], ref[w][k - 1])
                        zmax = max(zmax, z)
                        misses3 += z > 3
                        bad |= not z <= GROSS_SIGMA
                failed += len(outs) if bad else 0
        return failed, {
            "z_max": zmax,
            "z_3sigma_misses": misses3,
            "z_checks": len(groups) * len(words) * len(self.powers),
            "z_gross_bound": GROSS_SIGMA,
            "samples_per_check": self.samples * len(groups[0]),
        }

    def _output_ok(self, out, w, ref):
        if isinstance(out, Exception):
            return False
        est, exact = out
        if not all(_finite(m) and _finite(s) and s > 0 for m, s, _ in est):
            return False
        return all(abs(v - ref[w][k - 1]) <= EXACT_TOL for v, k in zip(exact, self.powers))

    def shares(self, mf, inputs):
        """Unit-time evolutions per sample, and as many if paths were shared per lasso slot."""
        slots = [[a for a, _ in mf.loop_observable(w)[0]] for w in inputs["words"]]
        width = max(len(s) for s in slots)
        return {
            "loops": len(slots),
            "unit_evolutions_per_sample": sum(map(sum, slots)),
            "unit_evolutions_if_slots_shared": sum(
                max(s[j] for s in slots if j < len(s)) for j in range(width)
            ),
        }


def _pooled_z(estimates, exact):
    """|mean - exact| over the standard error, pooling equal-size estimates.

    Each estimate's stderr is the population std over sqrt(samples); it is
    rescaled to the unbiased variance before pooling.
    """
    var = sum(s * s * n / (n - 1) for _, s, n in estimates) / len(estimates) ** 2
    mean = sum(m for m, _, _ in estimates) / len(estimates)
    return abs(mean - exact) / math.sqrt(var)


WORKLOADS = {
    w.name: w
    for w in (
        Exact(
            "exact_deep",
            "free product, corpus, k = 1..6: State.joint_cumulant in freeprob does almost all the work",
            plan=tuple(("free", k) for k in range(1, 7)),
        ),
        Exact(
            "exact_many",
            "2000 seeded random loops, boolean/tensor k = 1..3 and free k = 1: planar and context building dominate, inputs repeat",
            plan=tuple((p, k) for p in ("boolean", "tensor") for k in (1, 2, 3)) + (("free", 1),),
            loops=2000,
            # p99, not p99.9: a few calls, garbage-collector pauses among
            # them, set p99.9, which spread 9-13% from seed to seed (p99: 3%)
            tail_beyond=100,
        ),
        Sampler(
            "mc_N64",
            "corpus sampler job at N = 64, 2 samples a repetition: dense solve and matmul in _kernels dominate",
            N=64,
            samples=2,
            pooled=True,
            min_reps=8,
        ),
        Sampler(
            "mc_N4",
            "corpus sampler job at N = 4, 100 samples a repetition: per-sample RNG calls and Python overhead dominate",
            N=4,
            samples=100,
            pooled=False,
            # ten, so that the tail is p90: p75 falls on the step between
            # two of the clusters the ten corpus loops' latencies form
            min_reps=10,
        ),
    )
}
