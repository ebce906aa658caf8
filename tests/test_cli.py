"""Command-line interface: golden rows, exit codes, corpus files, determinism."""

import subprocess
import sys

import pytest

from masterfield import cli
from masterfield.cli import main


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


def test_mc_schema_and_worker_independence(tmp_path):
    corpus = tmp_path / "loops.txt"
    corpus.write_text("NESW\nNESENWSW\n")
    base = ["mc", "--loops", str(corpus), "--N", "8", "--samples", "16",
            "--seed", "3", "--steps", "50"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
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


def test_mc_rejects_bad_sampler_config(capsys):
    rc, _, err = run(capsys, ["mc", "--loops", "default", "--steps", "10"])
    assert rc == 2 and "step_count too small" in err
    rc, out, err = run(capsys, ["mc", "--loops", "default", "--k", "-1"])
    assert rc == 2 and out == "" and "power must be >= 0" in err
    rc, out, err = run(capsys, ["compare-mc", "--kmax", "0"])
    assert rc == 2 and out == "" and "kmax must be >= 1" in err
    rc, _, err = run(capsys, ["mc", "--loops", "default", "--workers", "-5"])
    assert rc == 2 and "worker count must be at least 1" in err


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
    rc, out, err = run(
        capsys,
        ["compare-mc", "--corpus", str(corpus), "--N", "2", "--samples", "6400",
         "--seed", "7", "--steps", "50", "--kmax", "2"],
    )
    assert rc == 1
    assert "compare-mc: FAIL at NESW k=2" in err
    assert len(err.splitlines()) == 1
    assert out.splitlines()[2].endswith(",0")


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "masterfield.cli", "eval", "--loop", "NESW",
         "--k", "1", "--field", "free"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_EVAL


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


@pytest.mark.parametrize("command,flag,value", _BAD_TIMES)
def test_bad_times_and_scales_exit_2(capsys, monkeypatch, command, flag, value):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the sampler ran on a bad time scale")

    monkeypatch.setattr(cli, "estimate_wilson_many", no_sampling)
    rc, out, err = run(capsys, _TIME_FLAG_COMMANDS[command] + [flag, value])
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and "finite" in err


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
