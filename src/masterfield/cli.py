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
    check_area_invariance,
    check_braid_invariance,
    check_gauge_invariance_scalar,
    check_infinite_divisibility,
    evaluate,
    loop_observable,
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
    """A loop-word list: the built-in corpus, or one word per line, # comments."""
    if source == "default":
        return list(DEFAULT_CORPUS)
    words = []
    with open(source, "r", encoding="utf-8") as fh:
        for line in fh:
            token = line.split("#", 1)[0].strip()
            if token:
                words.append(token)
    return words


class _Output:
    """CSV sink: stdout for '-'/'csv', otherwise the named file."""

    def __init__(self, target):
        self.target = target
        self._fh = None

    def __enter__(self):
        if self.target in ("csv", "-"):
            stream = sys.stdout
        else:
            self._fh = open(self.target, "w", encoding="utf-8", newline="")
            stream = self._fh
        return csv.writer(stream, lineterminator="\n")

    def __exit__(self, *exc):
        if self._fh is not None:
            self._fh.close()


def _field_from(args):
    return HolonomyField(product=args.field, t_scale=args.t_scale)


def _run_eval(args):
    if _below("power", args.k, 0):
        return 2
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
    with _Output(args.out) as out:
        out.writerow(["loop", "k", "value", "method"])
        out.writerow([result.loop.word, args.k, _fmt(result.value), result.method])
    return 0


_CHECKS = {
    "braid": check_braid_invariance,
    "area": check_area_invariance,
    "divisibility": check_infinite_divisibility,
    "gauge": check_gauge_invariance_scalar,
}


def _run_check(args):
    field = _field_from(args)
    try:
        if args.kind == "braid":
            report = check_braid_invariance(field, loops=_read_corpus(args.corpus))
        elif args.kind == "area":
            if args.corpus == "default":
                report = check_area_invariance(field)
            else:
                words = _read_corpus(args.corpus)
                if len(words) % 2:
                    _fail(
                        "check area compares consecutive pairs: corpus must "
                        f"hold an even number of loops, got {len(words)}"
                    )
                    return 2
                pairs = list(zip(words[0::2], words[1::2]))
                report = check_area_invariance(field, pairs=pairs)
        else:
            if args.corpus != "default":
                _fail(
                    f"check {args.kind} does not read loops from a corpus; "
                    "use --corpus default"
                )
                return 2
            report = _CHECKS[args.kind](field)
    except ValueError as exc:
        _fail(str(exc))
        return 2
    with _Output(args.out) as out:
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


def _run_moments(args):
    try:
        values = fubm_moments(args.t, args.kmax)
    except ValueError as exc:
        _fail(str(exc))
        return 2
    with _Output(args.out) as out:
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


def _sampler_jobs(args, source):
    """The sampler config and a ``(word, lassos, letters)`` job per loop.

    None, after saying why on stderr, if the corpus, config or a loop is bad.
    """
    try:
        words = _read_corpus(source)
        cfg = _sampler_config(args)
    except (OSError, ValueError) as exc:
        _fail(str(exc))
        return None
    jobs = []
    for word in words:
        try:
            lassos, letters = loop_observable(word, t_scale=args.t_scale)
        except ValueError as exc:
            _fail(f"cannot use loop {word!r}: {exc}")
            return None
        jobs.append((word, lassos, letters))
    return cfg, jobs


def _run_mc(args):
    if _below("power", args.k, 0):
        return 2
    loaded = _sampler_jobs(args, args.loops)
    if loaded is None:
        return 2
    cfg, jobs = loaded
    rows = []
    for word, lassos, letters in jobs:
        est = estimate_wilson_many(lassos, [tuple(letters) * args.k], cfg)[0]
        rows.append(
            [word, _fmt(est.mean.real), _fmt(est.mean.imag), _fmt(est.stderr)]
        )
    with _Output(args.out) as out:
        out.writerow(["word", "mean_re", "mean_im", "stderr"])
        out.writerows(rows)
    return 0


def _run_compare_mc(args):
    if _below("kmax", args.kmax, 1):
        return 2
    loaded = _sampler_jobs(args, args.corpus)
    if loaded is None:
        return 2
    cfg, loops = loaded
    field = HolonomyField(t_scale=args.t_scale)
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
    with _Output(args.out) as out:
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
        help="evolution threads (default: MASTERFIELD_WORKERS or 1)",
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
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
