"""Command-line interface: evaluate loops, run invariance sweeps, drive the sampler.

Every command emits CSV (stdout by default) with floats at 15 significant
digits, so deterministic runs are byte-stable and suitable for golden files.
Each command is a ``_run_*(args)`` that returns its CSV rows, header first,
and a failure line or None, or raises ``ValueError`` for unusable input.
Only ``main`` writes: it opens ``--out``, writes the rows, puts at most one
line on stderr and returns the exit status: 0 on success, 1 when a check or
comparison fails, and 2 for unusable input.
"""

import argparse
import contextlib
import csv
import os
import sys

from ._ints import as_int
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


def _fmt(x):
    return f"{x:.15g}"


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


def _run_eval(args):
    if args.constant and args.loop is not None:
        raise ValueError("eval takes --loop or --constant, not both")
    if not (args.constant or args.loop):
        raise ValueError(
            "not a loop: empty word allowed only as explicit constant `eval --constant`"
        )
    result = evaluate(_field_from(args), args.loop or "", args.k)
    rows = [["loop", "k", "value", "method"]]
    rows.append([result.loop.word, args.k, _fmt(result.value), result.method])
    return rows, None


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


def _run_check(args):
    field = _field_from(args)
    check, corpus_options = _CHECKS[args.kind]
    if args.corpus != "default" and corpus_options is None:
        raise ValueError(
            f"check {args.kind} does not read loops from a corpus; use --corpus default"
        )
    report = check(field, **({} if args.corpus == "default" else corpus_options(args.corpus)))
    rows = [["check", "case", "deviation"]]
    rows += [[args.kind, label, _fmt(deviation)] for label, deviation in report.records]
    if report.ok:
        return rows, None
    label, deviation = report.failures[0]
    return rows, (
        f"{report.name}: FAIL at {label}: deviation {deviation:.3e} "
        f"exceeds tol {report.tol:g}"
    )


def _run_moments(args):
    values = fubm_moments(args.t, args.kmax)
    return [["k", "m_k"]] + [[k, _fmt(values[k])] for k in range(1, args.kmax + 1)], None


def _sampler_jobs(args, field):
    """The sampler config and a ``(word, lassos, letters)`` job per corpus loop.

    A loop's lassos and letters are its sampler view under ``field``.  A
    standard error needs two samples, so ``--samples`` must be at least 2.
    """
    words = _read_corpus(args.corpus)
    cfg = MatrixSamplerConfig(
        N=args.N,
        samples=as_int(args.samples, "sample count must be an integer >= 2", 2),
        seed=args.seed,
        step_count=args.steps,
        workers=args.workers,
    )
    return cfg, [(word, *_observable(field, word)) for word in words]


def _run_mc(args):
    field = HolonomyField(t_scale=args.t_scale)
    as_int(args.k, "power must be >= 0", 0)
    as_int(args.k, f"power must be <= {sys.maxsize}", most=sys.maxsize)
    cfg, jobs = _sampler_jobs(args, field)
    rows = [["word", "mean_re", "mean_im", "stderr"]]
    for word, lassos, letters in jobs:
        try:
            repeated = tuple(letters) * args.k
        except MemoryError:
            raise ValueError(f"power {args.k} makes a word too long to hold in memory") from None
        est = estimate_wilson_many(lassos, [repeated], cfg)[0]
        rows.append([word, _fmt(est.mean.real), _fmt(est.mean.imag), _fmt(est.stderr)])
    return rows, None


def _run_compare_mc(args):
    # the exact evaluations below reuse the shapes the sampler jobs derive
    field = HolonomyField(t_scale=args.t_scale)
    kmax = as_int(args.kmax, "kmax must be >= 1", 1)
    powers = range(1, as_int(kmax, f"kmax must be <= {sys.maxsize}", most=sys.maxsize) + 1)
    cfg, jobs = _sampler_jobs(args, field)
    failure = None
    rows = [["loop", "k", "exact", "mc_re", "mc_im", "stderr", "ok"]]
    for word, lassos, letters in jobs:
        estimates = estimate_wilson_many(lassos, (tuple(letters) * k for k in powers), cfg)
        for k, est in zip(powers, estimates):
            exact = evaluate(field, word, k).value
            err = abs(est.mean - exact)
            bound = 3.0 * est.stderr
            if not err <= bound and failure is None:
                failure = (
                    f"compare-mc: FAIL at {word} k={k}: |mc - exact| = {err:.3e} "
                    f"exceeds 3*stderr = {bound:.3e}"
                )
            values = (exact, est.mean.real, est.mean.imag, est.stderr)
            rows.append([word, k, *map(_fmt, values), int(err <= bound)])
    return rows, failure


def _add_t_scale_flag(p):
    p.add_argument(
        "--t-scale", type=float, default=1.0, help="area-to-time scale factor (positive, finite)"
    )


def _add_field_flags(p):
    p.add_argument(
        "--field",
        choices=HolonomyField.PRODUCTS,
        default="free",
        help="product structure combining the face states: free is the holonomy "
        "field; boolean and tensor are negative controls that fail some of its invariances "
        "(check gauge reads only --t-scale, so all three give the same rows)",
    )
    _add_t_scale_flag(p)


def _add_sampler_flags(p, steps_default):
    p.add_argument("--N", type=int, default=64, help="matrix dimension")
    p.add_argument("--samples", type=int, default=400, help="Monte Carlo samples (>= 2)")
    p.add_argument("--seed", type=int, default=7, help="stream seed")
    p.add_argument(
        "--steps", type=int, default=steps_default, help="integration steps per unit time"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="evolution threads, at most one per chunk of samples (default: one "
        "per usable CPU when samples * N^3 >= 2^15, else 1)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="masterfield",
        description="Holonomy fields on the planar lattice: exact values, "
        "invariance sweeps, and a finite-N matrix sampler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand takes --out from this parent
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", default="csv", help="CSV file to write, or 'csv' or '-' for stdout"
    )

    p = sub.add_parser("eval", parents=[common], help="evaluate one loop exactly")
    p.add_argument("--loop", default=None, help="loop word over N/E/S/W")
    p.add_argument("--constant", action="store_true", help="evaluate the constant (empty) loop")
    p.add_argument("--k", type=int, default=1, help="moment order")
    _add_field_flags(p)
    p.set_defaults(run=_run_eval)

    p = sub.add_parser("check", parents=[common], help="run an invariance sweep")
    p.add_argument("kind", choices=sorted(_CHECKS))
    p.add_argument(
        "--corpus",
        default="default",
        help="'default' or a file with one loop word per line (# comments)",
    )
    _add_field_flags(p)
    p.set_defaults(run=_run_check)

    p = sub.add_parser(
        "moments", parents=[common], help="free unitary Brownian motion moments"
    )
    p.add_argument("--t", type=float, required=True, help="time parameter")
    p.add_argument("--kmax", type=int, required=True, help="largest moment order")
    p.set_defaults(run=_run_moments)

    p = sub.add_parser(
        "mc", parents=[common], help="estimate Wilson loops with the matrix sampler"
    )
    p.add_argument(
        "--loops",
        dest="corpus",
        metavar="LOOPS",
        required=True,
        help="'default' or a file with one loop word per line",
    )
    p.add_argument("--k", type=int, default=1, help="moment order")
    _add_t_scale_flag(p)
    _add_sampler_flags(p, steps_default=200)
    p.set_defaults(run=_run_mc)

    p = sub.add_parser(
        "compare-mc", parents=[common], help="exact corpus values vs sampler estimates"
    )
    p.add_argument("--corpus", default="default")
    p.add_argument("--kmax", type=int, default=3, help="compare k = 1..kmax")
    _add_t_scale_flag(p)
    # 50 steps per unit time is the validated minimum: discretization bias
    # stays a few sigma under the 3*stderr acceptance band while the whole
    # corpus fits in the five-minute budget on one core.
    _add_sampler_flags(p, steps_default=50)
    p.set_defaults(run=_run_compare_mc)

    return parser


def _open_out(args):
    """The CSV sink: stdout, or the --out file, created or truncated now.

    Like a shell redirection, --out is opened before the command runs, so a
    bad path costs no work.  A named corpus is read first, so one that
    cannot be read or holds no loop, or that --out names, leaves --out as
    it was.
    """
    if args.out in ("csv", "-"):
        return contextlib.nullcontext(sys.stdout)
    corpus = getattr(args, "corpus", "default")
    if corpus != "default":
        _read_corpus(corpus)
        if os.path.exists(args.out) and os.path.samefile(corpus, args.out):
            raise ValueError(f"--out {args.out} is the corpus {corpus}; it would be overwritten")
    try:
        return open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with _open_out(args) as sink:
            rows, failure = args.run(args)
            csv.writer(sink, lineterminator="\n").writerows(rows)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
