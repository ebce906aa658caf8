"""Command-line interface: evaluate loops, run invariance sweeps, drive the sampler.

Every command emits CSV (stdout by default) with floats at 15 significant
digits, so deterministic runs are byte-stable and suitable for golden files.
Diagnostics go to stderr; the exit status is 0 on success, 1 when a check or
comparison fails, and 2 for unusable input.
"""

import argparse
import csv
import math
import sys

from .holonomy import (
    DEFAULT_CORPUS,
    HolonomyField,
    _observable,
    check_area_invariance,
    check_braid_invariance,
    check_gauge_invariance_scalar,
    check_infinite_divisibility,
    evaluate,
)
from .levy import fubm_moments
from .mc import MatrixSamplerConfig, estimate_wilson_many
from .planar import Loop


def _fmt(x):
    return f"{x:.15g}"


def _fail(message):
    print(message, file=sys.stderr)


def _below(name, value, least):
    """True, after saying so on stderr, when an integer flag is under its least value."""
    if value < least:
        _fail(f"{name} must be >= {least}, got {value}")
    return value < least


def _read_corpus(source):
    """A loop-word list: the built-in corpus, or one word per line, # comments.

    ValueError, with a one-line message, if the file cannot be read or
    holds no loop.
    """
    if source == "default":
        return list(DEFAULT_CORPUS)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            words = [w for w in (line.split("#", 1)[0].strip() for line in fh) if w]
    except OSError as exc:
        raise ValueError(f"cannot read corpus {source}: {exc.strerror or exc}") from None
    if not words:
        raise ValueError(f"corpus {source} holds no loop")
    return words


def _field_from(args):
    return HolonomyField(product=args.field, t_scale=args.t_scale)


def _run_eval(args, out):
    if not args.constant and not args.loop:
        _fail(
            "not a loop: empty word allowed only as explicit constant "
            "`eval --constant`"
        )
        return 2
    try:
        loop = Loop("" if args.constant else args.loop)
    except ValueError as exc:
        _fail(f"not a loop: {exc}")
        return 2
    try:
        # a finite t-scale can still overflow a face area
        result = evaluate(_field_from(args), loop, args.k)
    except ValueError as exc:
        _fail(str(exc))
        return 2
    out.writerow(["loop", "k", "value", "method"])
    out.writerow([result.loop.word, args.k, _fmt(result.value), result.method])
    return 0


def _area_pairs(corpus):
    words = _read_corpus(corpus)
    if len(words) % 2:
        raise ValueError(
            "check area compares consecutive pairs: corpus must "
            f"hold an even number of loops, got {len(words)}"
        )
    return {"pairs": list(zip(words[0::2], words[1::2]))}


# Each check kind: its sweep, and the options it takes from a --corpus file
# (None: it reads no corpus).  The default corpus takes the sweep's defaults.
_CHECKS = {
    "braid": (check_braid_invariance, lambda corpus: {"loops": _read_corpus(corpus)}),
    "area": (check_area_invariance, _area_pairs),
    "divisibility": (check_infinite_divisibility, None),
    "gauge": (check_gauge_invariance_scalar, None),
}


def _run_check(args, out):
    field = _field_from(args)
    check, corpus_options = _CHECKS[args.kind]
    if args.corpus != "default" and corpus_options is None:
        _fail(f"check {args.kind} does not read loops from a corpus; use --corpus default")
        return 2
    try:
        options = {} if args.corpus == "default" else corpus_options(args.corpus)
        report = check(field, **options)
    except ValueError as exc:
        _fail(str(exc))
        return 2
    out.writerow(["check", "case", "deviation"])
    for label, deviation in report.records:
        out.writerow([args.kind, label, _fmt(deviation)])
    if not report.ok:
        label, deviation = report.failures[0]
        _fail(
            f"{report.name}: FAIL at {label}: deviation {deviation:.3e} "
            f"exceeds tol {report.tol:g}"
        )
        return 1
    return 0


def _run_moments(args, out):
    try:
        values = fubm_moments(args.t, args.kmax)
    except ValueError as exc:
        _fail(str(exc))
        return 2
    out.writerow(["k", "m_k"])
    for k in range(1, args.kmax + 1):
        out.writerow([k, _fmt(values[k])])
    return 0


def _sampler_config(args):
    return MatrixSamplerConfig(
        N=args.N,
        samples=args.samples,
        seed=args.seed,
        step_count=args.steps,
        workers=args.workers,
    )


def _sampler_jobs(args, source, field):
    """The sampler config and a ``(word, lassos, letters)`` job per loop.

    A loop's lassos and letters are its sampler view under ``field``.
    None, after saying why on stderr, if the corpus, config or a loop is bad.
    """
    try:
        words = _read_corpus(source)
        cfg = _sampler_config(args)
    except ValueError as exc:
        _fail(str(exc))
        return None
    jobs = []
    for word in words:
        try:
            lassos, letters = _observable(field, Loop(word))
        except ValueError as exc:
            _fail(f"cannot use loop {word!r}: {exc}")
            return None
        jobs.append((word, lassos, letters))
    return cfg, jobs


def _run_mc(args, out):
    if _below("power", args.k, 0):
        return 2
    loaded = _sampler_jobs(args, args.loops, HolonomyField(t_scale=args.t_scale))
    if loaded is None:
        return 2
    cfg, jobs = loaded
    rows = []
    for word, lassos, letters in jobs:
        est = estimate_wilson_many(lassos, [tuple(letters) * args.k], cfg)[0]
        rows.append(
            [word, _fmt(est.mean.real), _fmt(est.mean.imag), _fmt(est.stderr)]
        )
    out.writerow(["word", "mean_re", "mean_im", "stderr"])
    out.writerows(rows)
    return 0


def _run_compare_mc(args, out):
    if _below("kmax", args.kmax, 1):
        return 2
    # the exact evaluations below reuse the shapes the sampler jobs derive
    field = HolonomyField(t_scale=args.t_scale)
    loaded = _sampler_jobs(args, args.corpus, field)
    if loaded is None:
        return 2
    cfg, loops = loaded
    powers = list(range(1, args.kmax + 1))
    first_bad = None
    rows = []
    for word, lassos, letters in loops:
        estimates = estimate_wilson_many(
            lassos, [tuple(letters) * k for k in powers], cfg
        )
        for k, est in zip(powers, estimates):
            exact = evaluate(field, word, k).value
            err = abs(est.mean - exact)
            bound = 3.0 * est.stderr
            ok = err <= bound
            if not ok and first_bad is None:
                first_bad = (word, k, err, bound)
            rows.append(
                [
                    word,
                    k,
                    _fmt(exact),
                    _fmt(est.mean.real),
                    _fmt(est.mean.imag),
                    _fmt(est.stderr),
                    int(ok),
                ]
            )
    out.writerow(["loop", "k", "exact", "mc_re", "mc_im", "stderr", "ok"])
    out.writerows(rows)
    if first_bad is not None:
        word, k, err, bound = first_bad
        _fail(
            f"compare-mc: FAIL at {word} k={k}: |mc - exact| = {err:.3e} "
            f"exceeds 3*stderr = {bound:.3e}"
        )
        return 1
    return 0


def _add_t_scale_flag(p):
    p.add_argument(
        "--t-scale",
        dest="t_scale",
        type=float,
        default=1.0,
        help="area-to-time scale factor (positive, finite)",
    )


def _add_field_flags(p):
    p.add_argument(
        "--field",
        choices=HolonomyField.PRODUCTS,
        default="free",
        help="product structure combining the face states",
    )
    _add_t_scale_flag(p)


def _add_sampler_flags(p, steps_default):
    p.add_argument("--N", type=int, default=64, help="matrix dimension")
    p.add_argument("--samples", type=int, default=400, help="Monte Carlo samples")
    p.add_argument("--seed", type=int, default=7, help="stream seed")
    p.add_argument(
        "--steps",
        type=int,
        default=steps_default,
        help="integration steps per unit time",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="evolution threads (default: one per usable CPU when "
        "samples * N^3 >= 2^15, else 1)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="masterfield",
        description="Holonomy fields on the planar lattice: exact values, "
        "invariance sweeps, and a finite-N matrix sampler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one loop exactly")
    p.add_argument("--loop", default=None, help="loop word over N/E/S/W")
    p.add_argument(
        "--constant",
        action="store_true",
        help="evaluate the constant (empty) loop",
    )
    p.add_argument("--k", type=int, default=1, help="moment order")
    _add_field_flags(p)
    p.add_argument("--out", default="csv")
    p.set_defaults(run=_run_eval)

    p = sub.add_parser("check", help="run an invariance sweep")
    p.add_argument("kind", choices=sorted(_CHECKS))
    p.add_argument(
        "--corpus",
        default="default",
        help="'default' or a file with one loop word per line (# comments)",
    )
    _add_field_flags(p)
    p.add_argument("--out", default="csv")
    p.set_defaults(run=_run_check)

    p = sub.add_parser("moments", help="free unitary Brownian motion moments")
    p.add_argument("--t", type=float, required=True, help="time parameter")
    p.add_argument("--kmax", type=int, required=True, help="largest moment order")
    p.add_argument("--out", default="csv")
    p.set_defaults(run=_run_moments)

    p = sub.add_parser("mc", help="estimate Wilson loops with the matrix sampler")
    p.add_argument(
        "--loops",
        required=True,
        help="'default' or a file with one loop word per line",
    )
    p.add_argument("--k", type=int, default=1, help="moment order")
    _add_t_scale_flag(p)
    _add_sampler_flags(p, steps_default=200)
    p.add_argument("--out", default="csv")
    p.set_defaults(run=_run_mc)

    p = sub.add_parser(
        "compare-mc", help="exact corpus values vs sampler estimates"
    )
    p.add_argument("--corpus", default="default")
    p.add_argument("--kmax", type=int, default=3, help="compare k = 1..kmax")
    _add_t_scale_flag(p)
    # 50 steps per unit time is the validated minimum: discretization bias
    # stays a few sigma under the 3*stderr acceptance band while the whole
    # corpus fits in the five-minute budget on one core.
    _add_sampler_flags(p, steps_default=50)
    p.add_argument("--out", default="csv")
    p.set_defaults(run=_run_compare_mc)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    t_scale = getattr(args, "t_scale", 1.0)
    if not 0 < t_scale < math.inf:
        _fail(f"t-scale must be positive and finite, got {t_scale}")
        return 2
    # Like a shell redirection, --out is opened (created or truncated)
    # before the command runs, so a bad path costs no work.
    if args.out in ("csv", "-"):
        return args.run(args, csv.writer(sys.stdout, lineterminator="\n"))
    try:
        sink = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        _fail(f"cannot write {args.out}: {exc.strerror or exc}")
        return 2
    with sink:
        return args.run(args, csv.writer(sink, lineterminator="\n"))


if __name__ == "__main__":
    raise SystemExit(main())
