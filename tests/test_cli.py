"""Command-line interface: golden rows, exit codes, corpus files, determinism."""

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masterfield import (
    DEFAULT_CORPUS,
    HolonomyField,
    MatrixSamplerConfig,
    cli,
    estimate_wilson_many,
    evaluate,
    holonomy,
    loop_observable,
)
from masterfield.cli import main
from masterfield.mc import WilsonEstimate


GOLDEN_EVAL = "loop,k,value,method\nNESW,1,0.606530659712633,exact\n"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_eval_golden_row(capsys):
    rc, out, err = run(capsys, ["eval", "--loop", "NESW", "--k", "1", "--field", "free"])
    assert rc == 0
    assert out == GOLDEN_EVAL
    assert err == ""


def test_eval_constant(capsys):
    rc, out, _ = run(capsys, ["eval", "--constant", "--k", "3"])
    assert rc == 0
    assert out.splitlines()[1] == ",3,1,exact"


def test_eval_empty_loop_is_an_error(capsys):
    rc, out, err = run(capsys, ["eval", "--loop", "", "--k", "1"])
    assert rc == 2
    assert out == ""
    assert err.strip() == (
        "not a loop: empty word allowed only as explicit constant `eval --constant`"
    )


def test_eval_rejects_malformed_words(capsys):
    rc, _, err = run(capsys, ["eval", "--loop", "NEXW"])
    assert rc == 2 and "invalid step" in err
    rc, _, err = run(capsys, ["eval", "--loop", "NE"])
    assert rc == 2 and "not closed" in err
    rc, _, err = run(capsys, ["eval", "--loop", "NESW", "--k", "-2"])
    assert rc == 2 and err == "power must be >= 0, got -2\n"
    # --constant does not silently drop a --loop given with it
    rc, out, err = run(capsys, ["eval", "--constant", "--loop", "NE"])
    assert (rc, out, err) == (2, "", "eval takes --loop or --constant, not both\n")


def test_eval_product_selection(capsys):
    rc, out, _ = run(capsys, ["eval", "--loop", "NESENWSW", "--k", "2", "--field", "boolean"])
    assert rc == 0
    assert out.splitlines()[1] == "NESENWSW,2,0.135335283236613,exact"
    rc, out, _ = run(capsys, ["eval", "--loop", "NESENWSW", "--k", "2", "--field", "tensor"])
    assert out.splitlines()[1] == "NESENWSW,2,0,exact"


def test_eval_t_scale(capsys):
    rc, out, _ = run(capsys, ["eval", "--loop", "NESW", "--k", "1", "--t-scale", "2.0"])
    assert rc == 0
    # area 1 at t_scale 2 is the time-2 state: e^{-1}
    assert out.splitlines()[1] == "NESW,1,0.367879441171442,exact"


def test_moments_table(capsys):
    rc, out, _ = run(capsys, ["moments", "--t", "1", "--kmax", "3"])
    assert rc == 0
    assert out.splitlines() == [
        "k,m_k",
        "1,0.606530659712633",
        "2,0",
        "3,-0.111565080074215",
    ]
    rc, _, err = run(capsys, ["moments", "--t", "1", "--kmax", "0"])
    assert rc == 2 and err
    rc, _, err = run(capsys, ["moments", "--t", "-1", "--kmax", "3"])
    assert rc == 2 and err


def test_check_divisibility_pass(capsys):
    rc, out, err = run(capsys, ["check", "divisibility"])
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "check,case,deviation"
    assert len(lines) == 1 + 25
    for line in lines[1:]:
        assert float(line.rsplit(",", 1)[1]) <= 1e-10


def test_check_area_with_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "pairs.txt"
    corpus.write_text("# comparable rectangles\nNEESWW  # 2x1\nNNESSW\n")
    rc, out, _ = run(capsys, ["check", "area", "--corpus", str(corpus)])
    assert rc == 0
    assert len(out.splitlines()) == 1 + 4

    corpus.write_text("NESW\nNEESWW\nNNESSW\n")
    rc, _, err = run(capsys, ["check", "area", "--corpus", str(corpus)])
    assert rc == 2 and "even number" in err

    corpus.write_text("NESW\nNEESWW\n")
    rc, _, err = run(capsys, ["check", "area", "--corpus", str(corpus)])
    assert rc == 2 and "not comparable" in err


def test_check_gauge_rejects_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "loops.txt"
    corpus.write_text("NESW\n")
    rc, _, err = run(capsys, ["check", "gauge", "--corpus", str(corpus)])
    assert rc == 2 and "does not read loops" in err
    rc, out, _ = run(capsys, ["check", "gauge", "--corpus", "default"])
    assert rc == 0 and len(out.splitlines()) == 1 + 30


def test_check_braid_with_corpus_file(tmp_path, capsys):
    corpus = tmp_path / "loops.txt"
    corpus.write_text("NESW\n\n# a two-face word\nNESENWSW\n")
    rc, out, err = run(capsys, ["check", "braid", "--corpus", str(corpus)])
    assert rc == 0 and err == ""
    lines = out.splitlines()
    # one-face loop: identity only; two-face loop: braid words of length <= 4
    assert len(lines) == 1 + 1 + 31
    assert lines[1].startswith("braid,")


def test_mc_schema_and_worker_independence(tmp_path, monkeypatch):
    # with two usable CPUs the default splits N=8, 64 samples two ways
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert MatrixSamplerConfig(N=8, samples=64).workers == 2
    corpus = tmp_path / "loops.txt"
    corpus.write_text("NESW\nNESENWSW\n")
    base = ["mc", "--loops", str(corpus), "--N", "8", "--samples", "64",
            "--seed", "3", "--steps", "50"]
    a, b, c = (tmp_path / f"{name}.csv" for name in "abc")
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--workers", "1", "--out", str(b)]) == 0
    assert main(base + ["--workers", "4", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "word,mean_re,mean_im,stderr"
    assert len(lines) == 3
    word, re_, im, se = lines[1].split(",")
    assert word == "NESW"
    assert abs(float(re_) - 0.6065) < 0.2
    assert abs(float(im)) < 0.2
    assert float(se) > 0


def test_mc_missing_corpus_file(capsys):
    rc, _, err = run(capsys, ["mc", "--loops", "/nonexistent/loops.txt"])
    assert rc == 2 and err


def test_mc_rejects_bad_sampler_config(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled with a bad config")

    monkeypatch.setattr(cli, "estimate_wilson_many", no_sampling)
    rc, _, err = run(capsys, ["mc", "--loops", "default", "--steps", "10"])
    assert rc == 2 and "step_count too small" in err
    rc, out, err = run(capsys, ["mc", "--loops", "default", "--k", "-1"])
    assert rc == 2 and out == "" and "power must be >= 0" in err
    rc, out, err = run(capsys, ["compare-mc", "--kmax", "0"])
    assert rc == 2 and out == "" and "kmax must be >= 1" in err
    rc, _, err = run(capsys, ["mc", "--loops", "default", "--workers", "-5"])
    assert rc == 2 and "worker count must be an integer >= 1, got -5" in err
    for command in (["mc", "--loops", "default"], ["compare-mc"]):
        rc, out, err = run(capsys, command + ["--seed", "-1"])
        assert (rc, out, err) == (2, "", "seed must be an integer >= 0, got -1\n")
        # one sample has a standard error of 0, a band nothing fits in
        rc, out, err = run(capsys, command + ["--samples", "1"])
        assert (rc, out, err) == (2, "", "sample count must be an integer >= 2, got 1\n")
    assert MatrixSamplerConfig(N=2, samples=1).samples == 1


def test_compare_mc_small_pass(tmp_path, capsys):
    corpus = tmp_path / "one.txt"
    corpus.write_text("NESW\n")
    rc, out, err = run(
        capsys,
        ["compare-mc", "--corpus", str(corpus), "--N", "8", "--samples", "60",
         "--seed", "7", "--steps", "50", "--kmax", "2"],
    )
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "loop,k,exact,mc_re,mc_im,stderr,ok"
    assert len(lines) == 3
    assert all(line.endswith(",1") for line in lines[1:])


def test_compare_mc_detects_finite_size_bias(tmp_path, capsys):
    # At N=2 the k=2 moment carries a 1/N^2 correction around +0.03; with
    # 6400 samples the stderr band is far tighter than that, so the run
    # must fail and say where.
    corpus = tmp_path / "one.txt"
    corpus.write_text("NESW\n")
    argv = ["compare-mc", "--corpus", str(corpus), "--N", "2", "--samples", "6400",
            "--seed", "7", "--steps", "50", "--kmax", "2"]
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert "compare-mc: FAIL at NESW k=2" in err
    assert len(err.splitlines()) == 1
    assert out.splitlines()[2].endswith(",0")
    # a failing run writes the same rows to --out, and the same one line
    path = tmp_path / "compare.csv"
    assert run(capsys, argv + ["--out", str(path)]) == (1, "", err)
    assert path.read_bytes() == out.encode()


def test_compare_mc_fails_on_a_nan_estimate(capsys, monkeypatch):
    # A NaN mean is no value within the band: its row reads ok = 0, and the
    # run exits 1 with one line on stderr, as for any other failing row.
    def nan_means(lassos, words, cfg):
        return [WilsonEstimate(math.nan, 0.1, cfg.samples) for _ in words]

    monkeypatch.setattr(cli, "estimate_wilson_many", nan_means)
    rc, out, err = run(capsys, ["compare-mc", "--N", "2", "--samples", "2", "--kmax", "1"])
    assert rc == 1
    assert err.startswith("compare-mc: FAIL at NESW k=1") and len(err.splitlines()) == 1
    rows = out.splitlines()[1:]
    assert len(rows) == len(DEFAULT_CORPUS) and all(row.endswith(",0") for row in rows)


def test_compare_mc_derives_each_loop_once(tmp_path, monkeypatch):
    # The sampler's lassos and letters come from the exact field's context:
    # one graph per corpus loop, and the CSV that lassos from
    # loop_observable give, byte for byte.
    graphs = []
    build_graph = holonomy.build_graph

    def counted(*args, **kwargs):
        graphs.append(args)
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(holonomy, "build_graph", counted)
    path = tmp_path / "compare.csv"
    argv = ["compare-mc", "--N", "4", "--samples", "50", "--seed", "7", "--out", str(path)]
    assert main(argv) == 0
    assert len(graphs) == len(DEFAULT_CORPUS) == 10
    monkeypatch.undo()

    cfg = MatrixSamplerConfig(N=4, samples=50, seed=7, step_count=50)
    field = HolonomyField()
    rows = ["loop,k,exact,mc_re,mc_im,stderr,ok"]
    for word in DEFAULT_CORPUS:
        lassos, letters = loop_observable(word)
        estimates = estimate_wilson_many(lassos, [tuple(letters) * k for k in (1, 2, 3)], cfg)
        for k, est in enumerate(estimates, 1):
            exact = evaluate(field, word, k).value
            ok = int(abs(est.mean - exact) <= 3 * est.stderr)
            rows.append(
                f"{word},{k},{exact:.15g},{est.mean.real:.15g},{est.mean.imag:.15g},"
                f"{est.stderr:.15g},{ok}"
            )
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def run_module(*args):
    """``python -m`` in a subprocess, with the repo's ``src`` first on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_entry_point_subprocess():
    proc = run_module("masterfield.cli", "eval", "--loop", "NESW", "--k", "1", "--field", "free")
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_EVAL


def test_package_runs_as_a_module():
    proc = run_module("masterfield", "eval", "--loop", "NESW")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, GOLDEN_EVAL, "")


def test_eval_past_order_20(capsys):
    rc, out, err = run(capsys, ["eval", "--loop", "NESW", "--k", "21"])
    assert rc == 0 and err == ""
    assert out.splitlines()[1].startswith("NESW,21,")


_TIME_FLAG_COMMANDS = {
    "eval": ["eval", "--loop", "NESW"],
    "check": ["check", "braid"],
    "mc": ["mc", "--loops", "default", "--N", "2", "--samples", "2"],
    "compare-mc": ["compare-mc", "--N", "2", "--samples", "2"],
    "moments": ["moments", "--kmax", "3"],
}
_BAD_TIMES = [
    (command, "--t-scale", value)
    for command in ("eval", "check", "mc", "compare-mc")
    for value in ("0", "-1", "inf", "nan")
] + [("moments", "--t", value) for value in ("-1", "inf", "nan")]


def no_work(*args, **kwargs):
    raise AssertionError("the command ran on unusable input")


_SUBCOMMANDS = next(
    a.choices for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
)
# the arguments each subcommand requires
_REQUIRED = {
    "eval": [],
    "check": ["braid"],
    "moments": ["--t", "1", "--kmax", "1"],
    "mc": ["--loops", "default"],
    "compare-mc": [],
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_every_subcommand_takes_out_and_help(capsys, command):
    # --out comes from one parent parser that serves every subcommand
    argv = [command, *_REQUIRED[command], "--out", "some/path.csv"]
    assert cli.build_parser().parse_args(argv).out == "some/path.csv"
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    assert "--out" in capsys.readouterr().out


@pytest.mark.parametrize("command,flag,value", _BAD_TIMES)
def test_bad_times_and_scales_exit_2(capsys, monkeypatch, command, flag, value):
    monkeypatch.setattr(cli, "estimate_wilson_many", no_work)
    rc, out, err = run(capsys, _TIME_FLAG_COMMANDS[command] + [flag, value])
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "finite" in err


_SAMPLER = ["--N", "2", "--samples", "2"]
_BAD_PATHS = [
    (["check", "braid", "--corpus", "{missing}"], "cannot read corpus"),
    (["check", "area", "--corpus", "{dir}"], "cannot read corpus"),
    (["mc", "--loops", "{dir}"], "cannot read corpus"),
    (["eval", "--loop", "NESW", "--out", "{no_dir}/x.csv"], "cannot write"),
    (["check", "gauge", "--out", "{dir}"], "cannot write"),
    (["compare-mc", *_SAMPLER, "--out", "{no_dir}/x.csv"], "cannot write"),
    (["compare-mc", *_SAMPLER, "--corpus", "{empty}"], "holds no loop"),
    (["compare-mc", *_SAMPLER, "--corpus", "{comments}"], "holds no loop"),
    (["check", "braid", "--corpus", "{empty}"], "holds no loop"),
    (["check", "braid", "--corpus", "{comments}"], "holds no loop"),
    (["mc", "--loops", "{comments}", *_SAMPLER], "holds no loop"),
    (["check", "braid", "--corpus", "{loops}", "--out", "{loops}"], "is the corpus"),
    (["mc", "--loops", "{loops}", *_SAMPLER, "--out", "{dir}/./loops.txt"], "is the corpus"),
    (["compare-mc", *_SAMPLER, "--corpus", "{loops}", "--out", "{loops}"], "is the corpus"),
]


@pytest.mark.parametrize("argv,message", _BAD_PATHS, ids=[" ".join(a) for a, _ in _BAD_PATHS])
def test_bad_paths_and_empty_corpora_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    # One stderr line and exit 2, before any loop is evaluated or sampled.
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "comments.txt").write_text("# no loops here\n\n   # nor here\n")
    (tmp_path / "loops.txt").write_text("NESW\n")
    paths = {
        "loops": tmp_path / "loops.txt",
        "missing": tmp_path / "missing.txt",
        "no_dir": tmp_path / "no_such_dir",
        "dir": tmp_path,
        "empty": tmp_path / "empty.txt",
        "comments": tmp_path / "comments.txt",
    }
    monkeypatch.setattr(cli, "estimate_wilson_many", no_work)
    monkeypatch.setattr(cli, "evaluate", no_work)
    rc, out, err = run(capsys, [a.format(**paths) for a in argv])
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and message in err
    assert (tmp_path / "loops.txt").read_text() == "NESW\n"


def test_overflowing_face_area_exits_2(tmp_path, capsys):
    corpus = tmp_path / "two.txt"
    corpus.write_text("NNEESSWW\n")
    rc, out, err = run(capsys, ["eval", "--loop", "NNEESSWW", "--t-scale", "1e308"])
    assert rc == 2 and out == "" and "not finite" in err
    rc, out, err = run(
        capsys, ["mc", "--loops", str(corpus), "--N", "2", "--samples", "2",
                 "--t-scale", "1e308"]
    )
    assert rc == 2 and out == "" and "not finite" in err


def test_moments_where_the_polynomial_overflows(capsys):
    rc, out, err = run(capsys, ["moments", "--t", "1e16", "--kmax", "20"])
    assert rc == 0 and err == ""
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert len(values) == 20
    assert all(abs(v) <= 1 for v in values)


def test_overflowing_step_count_exits_2(tmp_path, capsys):
    # area 1 at t-scale 1e308 is a finite time, but 200 steps per unit of it
    # are not a finite step count
    corpus = tmp_path / "one.txt"
    corpus.write_text("NESW\n")
    rc, out, err = run(
        capsys, ["mc", "--loops", str(corpus), *_SAMPLER, "--t-scale", "1e308"]
    )
    assert (rc, out) == (2, "")
    assert err == (
        "face area 1e+308 at 200 steps per unit time needs a step count that is not finite\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--loops", "{new}", *_SAMPLER, "--out", "{new}"],
        ["check", "braid", "--corpus", "{new}", "--out", "{dir}/./new.csv"],
        ["compare-mc", *_SAMPLER, "--corpus", "{new}", "--out", "{new}"],
    ],
    ids=["mc", "check", "compare-mc"],
)
def test_out_naming_a_missing_corpus_creates_nothing(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "estimate_wilson_many", no_work)
    monkeypatch.setattr(cli, "evaluate", no_work)
    new = tmp_path / "new.csv"
    rc, out, err = run(capsys, [a.format(new=new, dir=tmp_path) for a in argv])
    assert (rc, out, err) == (2, "", f"cannot read corpus {new}: No such file or directory\n")
    assert not new.exists()


@pytest.mark.parametrize("corpus", ["missing", "empty"])
@pytest.mark.parametrize(
    "command",
    [["mc", *_SAMPLER, "--loops"], ["check", "braid", "--corpus"],
     ["compare-mc", *_SAMPLER, "--corpus"]],
    ids=["mc", "check", "compare-mc"],
)
def test_an_unusable_corpus_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, command, corpus):
    # The corpus is read before --out is opened, so --out keeps its bytes.
    monkeypatch.setattr(cli, "estimate_wilson_many", no_work)
    monkeypatch.setattr(cli, "evaluate", no_work)
    (tmp_path / "empty.txt").write_text("")
    path, sink = tmp_path / f"{corpus}.txt", tmp_path / "out.csv"
    sink.write_bytes(b"word,mean_re,mean_im,stderr\nNESW,0.6,0,0.01\n")
    rc, out, err = run(capsys, [*command, str(path), "--out", str(sink)])
    message = {
        "missing": f"cannot read corpus {path}: No such file or directory\n",
        "empty": f"corpus {path} holds no loop\n",
    }[corpus]
    assert (rc, out, err) == (2, "", message)
    assert sink.read_bytes() == b"word,mean_re,mean_im,stderr\nNESW,0.6,0,0.01\n"


_HUGE = "1" + "0" * 29  # above sys.maxsize: no word or list is that long


@pytest.mark.parametrize(
    "argv,message",
    [
        (["eval", "--loop", "NESW", "--k", _HUGE], "power must be an integer <= "),
        (["mc", "--loops", "default", *_SAMPLER, "--k", _HUGE], "power must be <= "),
        (["moments", "--t", "1", "--kmax", _HUGE], "kmax must be an integer <= "),
        (["compare-mc", *_SAMPLER, "--kmax", _HUGE], "kmax must be <= "),
    ],
    ids=["eval", "mc", "moments", "compare-mc"],
)
def test_powers_above_the_index_range_exit_2(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "estimate_wilson_many", no_work)
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (2, "", f"{message}{sys.maxsize}, got {_HUGE}\n")


# Only sys.maxsize itself: its repeated word overflows at once, while a
# power of 10**8 or so may well be allocated and fill the memory.
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--loop", "NESENWSW", "--k", str(sys.maxsize)],
        ["mc", "--loops", "default", *_SAMPLER, "--k", str(sys.maxsize)],
    ],
    ids=["eval", "mc"],
)
def test_a_power_too_large_for_memory_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "estimate_wilson_many", no_work)
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (
        2, "", f"power {sys.maxsize} makes a word too long to hold in memory\n"
    )


# A small grammar of argument vectors: for each command, the options always
# given and those given or left out.  Every finite number in _SMALL is at
# most 4, so a sampler run drawn from it stays short, and an option drawn
# twice takes its last value.  The braid sweep reads a two-loop corpus, as
# on the default corpus it takes a second.
_VALUES = ["0", "-1", "1", "2", "1.5", "nan", "inf", "1e308", "x", _HUGE]
_SMALL = [v for v in _VALUES if v not in ("1e308", _HUGE)]
_CORPORA = ["default", "{pair}", "/nonexistent/loops.txt"]
_FIELD_OPTIONS = [("--field", ["free", "boolean", "tensor", "x"]), ("--t-scale", _VALUES)]
_SAMPLER_SIZES = [("--N", ["2", "4"]), ("--samples", ["2", "4"])]
_SAMPLER_OPTIONS = [("--N", _SMALL), ("--samples", _SMALL), ("--t-scale", _SMALL),
                    ("--steps", _SMALL), ("--seed", _VALUES), ("--workers", _SMALL)]
_GRAMMAR = {
    ("eval",): ([], [("--loop", ["NESW", "NESENWSW", "NE", "NEXW", ""]), ("--constant", None),
                     ("--k", _VALUES), *_FIELD_OPTIONS]),
    ("check", "braid"): ([("--corpus", _CORPORA[1:])], _FIELD_OPTIONS),
    **{("check", kind): ([], [("--corpus", _CORPORA), *_FIELD_OPTIONS])
       for kind in ("area", "divisibility", "gauge", "x")},
    ("moments",): ([("--t", _VALUES), ("--kmax", _VALUES)], []),
    ("mc",): ([("--loops", _CORPORA), *_SAMPLER_SIZES], [("--k", _VALUES), *_SAMPLER_OPTIONS]),
    ("compare-mc",): (_SAMPLER_SIZES, [("--corpus", _CORPORA), ("--kmax", _VALUES),
                                       *_SAMPLER_OPTIONS]),
}


@st.composite
def argument_vectors(draw):
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    always, maybe = _GRAMMAR[command]
    argv = list(command)
    for flag, values in always + [option for option in maybe if draw(st.booleans())]:
        argv += [flag, draw(st.sampled_from(values))] if values else [flag]
    return argv


@pytest.fixture(scope="module")
def pair_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "pair.txt"
    path.write_text("NEESWW\nNNESSW\n")
    return str(path)


@settings(max_examples=150, deadline=None)
@given(argv=argument_vectors())
def test_every_argument_vector_exits_0_1_or_2(pair_corpus, argv):
    # No traceback: any exception but argparse's SystemExit fails the test.
    argv = [a.format(pair=pair_corpus) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exit_:
            assert exit_.code == 2 and err.getvalue().startswith("usage: masterfield")
            return
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2)
    assert len(lines) == (rc != 0)
    if rc == 2:
        assert out.getvalue() == ""
