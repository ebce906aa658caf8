"""masterfield benchmark: exact and sampler workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_deep --seed 1 --seconds 25 --trace 0

It imports masterfield from ``src/`` of that checkout (and fails with exit
code 2 if it cannot), makes every input from ``--seed``, and drives only the
public API.  One process, BLAS pinned to one thread, the sampler's worker
count left at the library default.

The workload's fixed job repeats, each repetition on fresh fields, for
``--seconds`` (at least the workload's minimum number of repetitions).
Set-up (import, input generation, warm-up) runs afresh before each of the
first five repetitions and reports its median.  Every output is checked
(see workloads.py).

The host is shared and its speed drifts, so every 0.2 s, between two calls,
a fixed probe job is timed (probe.py), and every reported time is scaled
by the run's probe factor to seconds on a reference host speed; the
``info`` line holds the raw times and the factor.  The last line of stdout
is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; the line before it
is an ``info`` object with the machine record, the input shares, the
latency sample count and tail percentile, and the sampler z-scores.  With
``--trace 1`` half the time runs untraced, then one repetition runs under
the outside-in tracer (tracer.py) and the metrics are the per-layer ones;
the spans go to ``.perfbench-out/`` in the checkout.

``python3 perfbench/selftest.py`` checks that a seed fixes every count and
output, and that the printed metrics match BENCHMARK.json.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from probe import REF_S, Probe, timed_pass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, tail_percentile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUPS = 5
MAX_MEASURE_S = 120.0  # stop repeating past this, whatever the minimum


# -- machine record ----------------------------------------------------------


def git_commit():
    """The checkout's commit from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def machine(mf):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    kernels = sys.modules.get("masterfield._kernels")
    choice = getattr(kernels, "kernel_choice", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": choice() if choice else None,
        "sampler_workers": mf.MatrixSamplerConfig().workers,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


# -- running -----------------------------------------------------------------


def import_masterfield():
    """A fresh import of masterfield from this checkout's src/."""
    for name in [n for n in sys.modules if n == "masterfield" or n.startswith("masterfield.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    mf = importlib.import_module("masterfield")
    if not os.path.abspath(mf.__file__).startswith(SRC + os.sep):
        raise ImportError(f"masterfield came from {mf.__file__}, not from {SRC}")
    return mf


def setup(workload, seed):
    """Returns the set-up's raw time, its probe factor, mf and the inputs.

    Set-up is too short for the run's probe factor to fit it, so probe
    passes right before and after it give its own.
    """
    before = timed_pass()
    t0 = perf_counter()
    mf = import_masterfield()
    inputs = workload.inputs(mf, seed)
    workload.warm(mf)
    secs = perf_counter() - t0
    factor = REF_S / statistics.fmean((before, timed_pass()))
    return (secs, factor), mf, inputs


def repeat(workload, seed, seconds, setups, probe):
    """Repeat the job for ``seconds`` (min_reps repetitions at least).

    A fresh set-up, whose (time, probe factor) is appended to ``setups``,
    precedes each of the first SETUPS repetitions; it is not charged to the
    repetitions.  ``probe`` ticks between the job's calls; its passes count
    toward ``seconds`` but not toward a repetition's wall.  Returns the
    last set-up's (mf, inputs) and the walls, outputs and per-call
    latencies of each repetition.
    """
    walls, outs, lats = [], [], []
    t_start = perf_counter()
    while True:
        if len(setups) < SETUPS:
            timing, mf, inputs = setup(workload, seed)
            setups.append(timing)
        gc.collect()  # each repetition starts from a clean heap
        probed = sum(probe.times)
        t0 = perf_counter()
        out, lat = workload.job(mf, inputs, len(walls), probe.tick)
        walls.append(perf_counter() - t0 - (sum(probe.times) - probed))
        outs.append(out)
        lats.append(lat)
        spent = perf_counter() - t_start - sum(secs for secs, _ in setups)
        if spent > MAX_MEASURE_S or (
            len(walls) >= workload.min_reps and spent + statistics.median(walls) > seconds
        ):
            break
    while len(setups) < SETUPS:
        timing, mf, inputs = setup(workload, seed)
        setups.append(timing)
    return mf, inputs, walls, outs, lats


def _ratio(a, b):
    return a / b if b else 0.0


def end_to_end(workload, inputs, setups, walls, lats, factor):
    """Median set-up, mean repetition, per-call percentiles, all probe-scaled.

    The host's speed switches between levels for seconds at a time; a mean
    over many repetitions blends the levels where a median jumps between
    them, and the run's probe ``factor``, which scales the repetition and
    call times, takes out the level the run saw on average.  Each set-up's
    time is scaled by its own factor.  The tail percentile pools every call
    of the run.
    """
    pct = tail_percentile(workload, workload.calls_per_rep(inputs))
    pooled_ms = np.concatenate(lats) * 1e3
    raw = {
        "setup_s": (statistics.median(secs for secs, _ in setups), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "eval_p50_ms": (statistics.fmean(np.median(lat) * 1e3 for lat in lats), "ms"),
        "eval_tail_ms": (float(np.percentile(pooled_ms, pct)), "ms"),
    }
    metrics = {k: (v * factor, unit) for k, (v, unit) in raw.items()}
    metrics["setup_s"] = (statistics.median(secs * f for secs, f in setups), "s")
    metrics["max_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info = {
        "reps": len(walls),
        "rep_wall_s": walls,
        "raw": {k: v for k, (v, _) in raw.items()},
        "eval_calls": len(pooled_ms),
        "eval_tail_percentile": pct,
        "eval_ms_at_percentile": {
            str(p): float(np.percentile(pooled_ms, p)) * factor for p in (50, 90, 99, 99.9)
        },
        "values_per_s": workload.values_per_rep(inputs) * len(walls) / sum(walls),
    }
    if workload.kind == "mc":
        info["samples_per_s"] = workload.samples * len(walls) / sum(walls)
    return metrics, info


def flop_per_sample_step(N):
    """Real flops of one complex Cayley step: three N^3 matmuls and one solve.

    A complex multiply-add is 8 real flops; A^3 and B@U are 3 * 8 N^3, and
    LU with N right-hand sides is (1/3 + 1) N^3 complex multiply-adds.
    """
    return 3 * 8 * N**3 + 8 * (1 / 3 + 1) * N**3


def per_layer(workload, tr, traced_wall, untraced_walls):
    sf = tr.layer_self_s()
    calls, counts = tr.calls, tr.counts
    planar_calls = sum(calls[f"planar.{a}"] for a in ("build_graph", "lasso_basis", "decompose"))
    steps = counts["kernels.sample_steps"]
    linalg_s = sf["kernels.other"] + sf["kernels.solve"]
    kernel_s = linalg_s + sf["kernels.rng"]
    flop = flop_per_sample_step(workload.N) if workload.kind == "mc" else 0.0
    samples = workload.samples if workload.kind == "mc" else 0
    lookups = counts["holonomy.context_lookups"]
    built = counts["holonomy.contexts_built"]
    return {
        "planar.calls": (planar_calls, "count"),
        "planar.self_s": (sf["planar"], "s"),
        "planar.us_per_loop": (_ratio(sf["planar"], calls["planar.build_graph"]) * 1e6, "us"),
        "holonomy.self_s": (sf["holonomy"], "s"),
        "holonomy.contexts_built": (built, "count"),
        "holonomy.context_lookups": (lookups, "count"),
        "holonomy.context_hit_ratio": (_ratio(lookups - built, lookups), "ratio"),
        "holonomy.contexts_resident": (tr.contexts_resident(), "count"),
        "levy.state_at.calls": (calls["levy.state_at"], "count"),
        "levy.self_s": (sf["levy"], "s"),
        "freeprob.product_state.calls": (calls["freeprob.product_state"], "count"),
        "freeprob.moment.calls": (counts["freeprob.moment.calls"], "count"),
        "freeprob.joint_cumulant.calls": (counts["freeprob.joint_cumulant.calls"], "count"),
        "freeprob.self_s": (sf["freeprob"], "s"),
        "freeprob.memo_entries": (tr.memo_entries(), "count"),
        "mc.calls": (calls["mc.estimate_wilson_many"], "count"),
        "mc.self_s": (sf["mc"], "s"),
        "mc.unit_evolutions_per_sample": (_ratio(tr.evolve_sample_time, samples), "count"),
        "kernels.calls": (calls["kernels.evolve_unitaries"], "count"),
        "kernels.sample_steps": (steps, "count"),
        "kernels.us_per_sample_step": (_ratio(kernel_s, steps) * 1e6, "us"),
        "kernels.rng_calls": (calls["kernels.rng"], "count"),
        "kernels.rng_s": (sf["kernels.rng"], "s"),
        "kernels.solve_calls": (calls["kernels.solve"], "count"),
        "kernels.solve_s": (sf["kernels.solve"], "s"),
        "kernels.other_s": (sf["kernels.other"], "s"),
        "kernels.flop_per_sample_step": (flop, "flop"),
        "kernels.gflops": (_ratio(flop * steps, linalg_s) / 1e9, "GFLOP/s"),
        "bench.self_s": (sf["bench"], "s"),
        "traced_wall_s": (traced_wall, "s"),
        "trace_overhead_frac": (traced_wall / statistics.median(untraced_walls) - 1, "ratio"),
    }


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (result, info, tracer or None)."""
    setups = []
    probe = Probe()
    mf, inputs, walls, outs, lats = repeat(
        workload, seed, seconds / 2 if trace else seconds, setups, probe
    )
    info = {
        "workload": workload.name,
        "seed": seed,
        "machine": machine(mf),
        "setup_s_each": [secs for secs, _ in setups],
        "setup_probe_factors": [f for _, f in setups],
        "probe": {"passes": len(probe.times), "mean_s": statistics.fmean(probe.times),
                  "factor": probe.factor()},
        "inputs": workload.shares(mf, inputs),
    }
    tr = None
    if trace:
        tr = Tracer()
        traced = []
        gc.collect()
        tr.install(mf)
        try:
            traced_wall = tr.run(lambda: traced.append(workload.job(mf, inputs, len(walls))))
        finally:
            tr.uninstall()
        outs.append(traced[0][0])
        info["trace_hooks"] = tr.hooks
        metrics = per_layer(workload, tr, traced_wall, walls)
    else:
        metrics, timing = end_to_end(workload, inputs, setups, walls, lats, probe.factor())
        info.update(timing)
    failed, check_info = workload.check(inputs, outs)
    attempted = workload.calls_per_rep(inputs) * len(outs)
    info["checks"] = check_info
    info["failed_frac"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info, tr


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_masterfield()
    except ImportError as exc:
        print(f"perfbench: cannot import masterfield from {SRC}: {exc}", file=sys.stderr)
        return 2
    result, info, tr = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    if tr is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz")
        tr.write(path)
        info["spans"] = {"file": os.path.relpath(path, ROOT), "count": len(tr.start)}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
