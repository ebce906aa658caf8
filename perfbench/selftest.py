"""Self-test of the benchmark, on shrunken copies of its workloads.

Checks that a seed fixes everything the benchmark compares exactly (the
per-layer counts and every output), that another seed changes the
random loops and the sampler streams, and that a run prints exactly the
metrics BENCHMARK.json declares.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import dataclasses
import json
import os
import sys

import run  # first: pins the BLAS threads before numpy loads
from tracer import Tracer
from workloads import WORKLOADS

SMALL = {
    "exact_deep": {"plan": tuple(("free", k) for k in range(1, 5))},
    "exact_many": {"loops": 200},
    "mc_N64": {"N": 8, "samples": 40, "min_reps": 1},
    "mc_N4": {"samples": 40, "min_reps": 1},
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def traced_job(workload, seed):
    """Inputs, outputs and per-layer counts of one traced repetition."""
    _, mf, inputs = run.setup(workload, seed)
    tr = Tracer()
    out = []
    tr.install(mf)
    try:
        tr.run(lambda: out.append(workload.job(mf, inputs, 0)))
    finally:
        tr.uninstall()
    metrics = run.per_layer(workload, tr, 1.0, [1.0])
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    return inputs, out[0][0], counts


def check(ok, what):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def main():
    for name in WORKLOADS:
        w = small(name)
        inputs, outs, counts = traced_job(w, 1)
        inputs2, outs2, counts2 = traced_job(w, 1)
        check(inputs == inputs2 and outs == outs2, f"{name}: same seed, same inputs and outputs")
        check(counts == counts2, f"{name}: same seed, same counts")
        check(all(v > 0 for k, v in counts.items() if k.startswith(("planar.", "holonomy."))),
              f"{name}: planar and holonomy counts are nonzero")
        if w.kind == "mc":
            check(counts["kernels.sample_steps"] > 0 and counts["kernels.rng_calls"] > 0,
                  f"{name}: kernel counts are nonzero")
        failed, _ = w.check(inputs, [outs])
        check(failed == 0, f"{name}: outputs pass the checks")

    w = small("exact_many")
    check(traced_job(w, 1)[0] != traced_job(w, 2)[0], "exact_many: another seed, other loops")
    for name in ("mc_N64", "mc_N4"):
        w = small(name)
        _, outs, _ = traced_job(w, 1)
        _, outs2, _ = traced_job(w, 2)
        check(all(a[0] != b[0] for a, b in zip(outs, outs2)),
              f"{name}: another seed, other sampler streams")
        check(all(a[1] == b[1] for a, b in zip(outs, outs2)),
              f"{name}: another seed, same exact values")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json names the workloads workloads.py defines")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _, _ = run.measure(small("exact_many"), 3, 0.0, trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want, f"--trace {trace} prints exactly the {key} metrics")
        check(result["correct"] and result["failed"] == 0, f"--trace {trace} run is correct")


if __name__ == "__main__":
    sys.exit(main())
