"""Outside-in tracing of masterfield's layers, installed by monkeypatching.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` swaps
the names that one layer uses to call the next for timed wrappers, runs one
job, and ``uninstall`` puts the originals back.  Every wrapped call is a
span (name, parent span, start, end) kept in flat in-memory arrays; the
spans are written out only when the run ends.  A layer's self time is the
time its spans cover minus the time covered by their child spans.

Hot calls inside a layer (``State.moment``, ``State.joint_cumulant``) are
counted but get no span of their own.  The tracer keeps one span stack, so
it assumes the sampler runs on one thread (the library default).
"""

import time
from array import array

import numpy as np

# Span names, and the layer each one's self time is charged to.
LAYER_OF = {
    "bench": "bench",
    "holonomy.evaluate": "holonomy",
    "holonomy.loop_observable": "holonomy",
    "planar.build_graph": "planar",
    "planar.lasso_basis": "planar",
    "planar.decompose": "planar",
    "levy.state_at": "levy",
    "levy.moment": "levy",
    "freeprob.product_state": "freeprob",
    "freeprob.moment": "freeprob",
    "mc.estimate_wilson_many": "mc",
    "kernels.evolve_unitaries": "kernels.other",
    "kernels.rng": "kernels.rng",
    "kernels.solve": "kernels.solve",
}
NAMES = list(LAYER_OF)
_ID = {name: i for i, name in enumerate(NAMES)}


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._child = []  # time covered by children, parallel to _stack
        self.self_s = dict.fromkeys(NAMES, 0.0)
        self.calls = dict.fromkeys(NAMES, 0)
        self.counts = {
            "freeprob.moment.calls": 0,
            "freeprob.joint_cumulant.calls": 0,
            "holonomy.context_lookups": 0,
            "holonomy.contexts_built": 0,
            "kernels.sample_steps": 0,
        }
        self.evolve_sample_time = 0.0  # evolved time summed over samples
        self.fields = []
        self.states = []
        self.hooks = []
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        idx = len(self.start)
        self.name.append(_ID[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        t1 = time.perf_counter()
        self.end[idx] = t1
        self._stack.pop()
        child = self._child.pop()
        dur = t1 - self.start[idx]
        name = NAMES[self.name[idx]]
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._child:
            self._child[-1] += dur

    def span(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def run(self, job):
        """Run ``job()`` as the root span; return its wall time."""
        idx = self._open("bench")
        try:
            job()
        finally:
            self._close(idx)
        return self.end[idx] - self.start[idx]

    # -- hooks ---------------------------------------------------------------

    def _patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)`` if it exists."""
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            return
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))
        self.hooks.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def install(self, mf):
        from masterfield import freeprob, holonomy, mc

        span = self.span
        counts = self.counts
        for attr in ("evaluate", "loop_observable"):
            self._patch(mf, attr, lambda f, a=attr: span(f"holonomy.{a}", f))
        self._patch(mf, "estimate_wilson_many", lambda f: span("mc.estimate_wilson_many", f))

        def field(cls):
            def wrapped(*args, **kwargs):
                obj = cls(*args, **kwargs)
                self.fields.append(obj)
                return obj

            return wrapped

        self._patch(mf, "HolonomyField", field)
        for attr in ("build_graph", "lasso_basis", "decompose"):
            self._patch(holonomy, attr, lambda f, a=attr: span(f"planar.{a}", f))

        def state_at(f):
            def wrapped(*args, **kwargs):
                st = f(*args, **kwargs)
                st._moment_fn = span("levy.moment", st._moment_fn)
                self.states.append(st)
                return st

            return span("levy.state_at", wrapped)

        def product_state(f):
            def wrapped(*args, **kwargs):
                st = f(*args, **kwargs)
                st.moment = span("freeprob.moment", st.moment)
                self.states.append(st)
                return st

            return span("freeprob.product_state", wrapped)

        self._patch(holonomy, "state_at", state_at)
        self._patch(holonomy, "product_state", product_state)

        def counted(key, f):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return f(*args, **kwargs)

            return wrapped

        self._patch(freeprob.State, "moment", lambda f: counted("freeprob.moment.calls", f))
        self._patch(
            freeprob.State, "joint_cumulant",
            lambda f: counted("freeprob.joint_cumulant.calls", f),
        )
        self._patch(holonomy, "_context", lambda f: counted("holonomy.context_lookups", f))
        self._patch(holonomy, "_LoopContext", lambda f: counted("holonomy.contexts_built", f))

        def evolve(f):
            traced = span("kernels.evolve_unitaries", f)

            def wrapped(gens, N, t, *args, **kwargs):
                self.evolve_sample_time += t * len(gens)
                return traced(gens, N, t, *args, **kwargs)

            return wrapped

        def solve(f):
            traced = span("kernels.solve", f)

            def wrapped(a, b):
                counts["kernels.sample_steps"] += a.shape[0] if a.ndim == 3 else 1
                return traced(a, b)

            return wrapped

        def streams(f):
            return lambda *args, **kwargs: [_Generator(g, self) for g in f(*args, **kwargs)]

        self._patch(mc, "evolve_unitaries", evolve)
        self._patch(mc, "_streams", streams)
        self._patch(np.linalg, "solve", solve)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def contexts_resident(self):
        return sum(len(getattr(f, "_contexts", ())) for f in self.fields)

    def memo_entries(self):
        total = 0
        for st in self.states:
            for memo in ("_moments", "_cumulants", "_free_memo"):
                total += len(getattr(st, memo, ()))
        return total

    def layer_self_s(self):
        out = {}
        for name, secs in self.self_s.items():
            layer = LAYER_OF[name]
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def write(self, path):
        np.savez(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class _Generator:
    """A numpy Generator whose ``standard_normal`` calls are spans."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self.standard_normal = tracer.span("kernels.rng", gen.standard_normal)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)
