import json
import os

import numpy as np
import pytest

from dunkl_osc import (FULL_LINE, HALF_LINE, Grid, SampledFn, bump,
                       make_graded_grid, read_sampled_fn, sample,
                       write_sampled_fn)
from dunkl_osc.cli import MAXIMALS, PARTIAL_SUMS, RANGES, TRANSFORMS, main


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    g = make_graded_grid(-3.0, 3.0, 8, 32, 1.0)
    write_sampled_fn("f.csv", sample(bump(0.3, 1.4), g, FULL_LINE))
    h = g.positive_half()
    write_sampled_fn("fh.csv", sample(bump(1.5, 1.2), h, HALF_LINE))
    return tmp_path


def test_transform_roundtrip_files(workdir):
    assert main(["transform", "--kind", "dunkl", "--alpha", "0.5",
                 "--input", "f.csv", "--output", "F.csv"]) == 0
    out = read_sampled_fn("F.csv")
    assert out.grid.n > 0 and np.max(np.abs(out.values)) > 0


def test_unsupported_order_and_removed_flags_exit_2(workdir):
    # Dunkl order 60 needs J_60 and J_61, above special.MAX_ORDER
    assert main(["transform", "--kind", "dunkl", "--alpha", "60",
                 "--input", "f.csv", "--output", "F.csv"]) == 2
    assert not os.path.exists("F.csv")
    assert main(["transform", "--kind", "dunkl", "--grading", "2",
                 "--input", "f.csv", "--output", "F.csv"]) == 2
    assert main(["osc", "--alpha", "0", "--input", "f.csv",
                 "--sequences", "8", "--output", "osc.csv"]) == 2
    assert main(["sweep", "--kind", "oscillation", "--p", "2", "--alpha", "0",
                 "--n-panels", "8", "--blocks", "4", "--output", "r.jsonl"]) == 2
    # the grid comes from --input; range takes no seed
    assert main(["transform", "--kind", "dunkl", "--input", "f.csv",
                 "--n-panels", "8", "--output", "F.csv"]) == 2
    assert main(["range", "--predicate", "full", "--p", "2", "--seed", "7"]) == 2
    assert not os.path.exists("F.csv")
    assert not os.path.exists("osc.csv") and not os.path.exists("r.jsonl")


def test_partial_sum_and_family(workdir):
    assert main(["partial-sum", "--kind", "dunkl", "--alpha", "0",
                 "--t", "2", "--input", "f.csv", "--output", "S.csv"]) == 0
    assert main(["family", "--alpha", "0", "--input", "f.csv",
                 "--t-grid", "0.5,1,2,4", "--output", "fam.csv"]) == 0
    with open("fam.csv") as fh:
        assert fh.readline().startswith("x,0.5,1,2,4")


def test_osc_var_maximal(workdir):
    assert main(["osc", "--alpha", "0", "--input", "f.csv",
                 "--output", "osc.csv"]) == 0
    assert main(["var", "--alpha", "0", "--r", "2", "--input", "f.csv",
                 "--output", "var.csv"]) == 0
    assert main(["maximal", "--operator", "prestini-majorant", "--alpha", "0",
                 "--input", "fh.csv", "--t-grid", "0.5,1,2,4",
                 "--output", "mj.csv"]) == 0
    mj = read_sampled_fn("mj.csv")
    assert np.all(mj.values.real > 0)


def test_maximal_on_graded_half_line_csv(workdir):
    # a graded grid keeps its panel edges through the CSV, which the majorant needs
    g = make_graded_grid(0.0, 2.0, 6, 8, 2.0)
    write_sampled_fn("gh.csv", sample(bump(1.0, 0.8), g, HALF_LINE))
    assert main(["maximal", "--operator", "prestini-majorant", "--alpha", "0",
                 "--input", "gh.csv", "--output", "gmj.csv"]) == 0
    assert read_sampled_fn("gmj.csv").grid.key == g.key


# case -> the file's lines, from the header, column line and rows of a valid file
MALFORMED = {
    "v1-header": lambda h, c, rows: ["# dunkl-osc sampledfn v1 domain=full", c, *rows],
    "unknown-header": lambda h, c, rows: ["# some other file", c, *rows],
    "bogus-domain": lambda h, c, rows: [h.replace("domain=full", "domain=bogus"), c, *rows],
    "non-numeric-lo": lambda h, c, rows: [h.replace("lo=-3", "lo=abc"), c, *rows],
    "edges-out-of-order": lambda h, c, rows: [h.replace("edges=-3,", "edges=3,"), c, *rows],
    "missing-column-line": lambda h, c, rows: [h, *rows],
    "non-numeric-cell": lambda h, c, rows: [h, c, rows[0], rows[1][:rows[1].rindex(",")] + ",abc",
                                            *rows[2:]],
    "three-columns": lambda h, c, rows: [h, c, *[r[:r.rindex(",")] for r in rows]],
    "no-rows": lambda h, c, rows: [h, c],
    "comment-rows": lambda h, c, rows: [h, c, "# no data"],
    "not-utf8": lambda h, c, rows: [h, c, "\udcff" + rows[0], *rows[1:]],
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_csv_exits_2_with_one_line(workdir, capsys, case):
    with open("f.csv") as fh:
        head, cols, *rows = fh.read().splitlines()
    with open("bad.csv", "wb") as fh:
        fh.write("\n".join(MALFORMED[case](head, cols, rows)).encode("utf-8", "surrogateescape"))
    assert main(["transform", "--kind", "dunkl", "--input", "bad.csv",
                 "--output", "T.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not os.path.exists("T.csv")


def test_range_verdict(workdir, capsys):
    assert main(["range", "--predicate", "full", "--p", "3",
                 "--beta", "0", "--alpha", "0"]) == 0
    verdict = json.loads(capsys.readouterr().out.strip())
    assert verdict["result"] is True
    assert verdict["predicate"] == "full"
    assert "formula" in verdict


def test_range_negative_alpha_token(workdir, capsys):
    assert main(["range", "--predicate", "dyadic", "--p", "2",
                 "--beta", "0.5", "--alpha", "-0.5"]) == 0
    verdict = json.loads(capsys.readouterr().out.strip())
    assert verdict["result"] is True


def test_unknown_flag_exits_2(workdir):
    assert main(["transform", "--bogus"]) == 2


def test_missing_input_exits_2(workdir, capsys):
    assert main(["transform", "--kind", "dunkl", "--input", "missing.csv"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "missing.csv" in err and "\n" not in err


def test_two_node_grid_exits_2(workdir, capsys):
    g = Grid(np.array([-0.5, 0.5]), np.array([1.0, 1.0]), -1.0, 1.0)
    write_sampled_fn("tiny.csv", SampledFn(g, np.array([1.0, 2.0])))
    assert main(["transform", "--kind", "dunkl", "--input", "tiny.csv",
                 "--output", "T.csv"]) == 2
    assert "too small" in capsys.readouterr().err
    assert not os.path.exists("T.csv")


def test_argument_error_exits_2(workdir):
    # half-line operator on a full-line input
    assert main(["transform", "--kind", "hankel", "--alpha", "0",
                 "--input", "f.csv"]) == 2


def test_config_file_flags_win(workdir, capsys):
    with open("run.conf", "w") as fh:
        fh.write("# comment\nalpha=0.25\nn-panels=8\n")
    assert main(["transform", "--kind", "dunkl", "--input", "f.csv",
                 "--config", "run.conf", "--output", "F1.csv"]) == 0
    assert main(["transform", "--kind", "dunkl", "--alpha", "0.75",
                 "--input", "f.csv", "--config", "run.conf",
                 "--output", "F2.csv"]) == 0
    outs = capsys.readouterr().out
    assert "alpha=0.25" in outs and "alpha=0.75" in outs


def test_verify_writes_reports(workdir):
    code = main(["verify", "--suite", "identities", "--alpha", "-0.5,0",
                 "--n-panels", "6", "--seed", "7",
                 "--output", "rep.jsonl", "--summary", "sum.csv"])
    assert code in (0, 1)
    with open("rep.jsonl") as fh:
        lines = fh.read().splitlines()
    assert lines and json.loads(lines[0])["seed"] == 7
    with open("sum.csv") as fh:
        assert fh.readline().startswith("name,passed")


def test_threads_env_fallback(workdir, monkeypatch):
    monkeypatch.setenv("DUNKL_OSC_THREADS", "2")
    from dunkl_osc.cli import build_parser
    args = build_parser().parse_args(["verify"])
    assert args.threads == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha", "x"],
    ["family", "--input", "f.csv", "--t-grid", "a,b"],
    ["maximal", "--operator", "carleson-hunt", "--input", "f.csv", "--t-grid", "x"],
    ["sweep", "--kind", "weighted-carleson", "--alpha", ","],
    ["range", "--predicate", "ap", "--p", "2", "--a", "0.5"],
], ids=["verify-alpha", "family-t-grid", "maximal-t-grid", "sweep-empty-alpha",
        "range-a-without-b"])
def test_bad_values_exit_2_without_traceback(workdir, capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err and "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["range", "--predicate", "ap", "--beta", "nan", "--p", "2"], "--beta"),
    (["range", "--predicate", "ap", "--p", "inf"], "--p"),
    (["range", "--predicate", "ap-alpha", "--alpha", "nan", "--p", "2"], "--alpha"),
    (["sweep", "--kind", "oscillation", "--beta", "inf", "--n-panels", "4"], "--beta"),
    (["sweep", "--kind", "oscillation", "--p", "nan", "--n-panels", "4"], "--p"),
    (["verify", "--alpha", "0,nan", "--n-panels", "4"], "--alpha"),
], ids=["ap-beta-nan", "ap-p-inf", "ap-alpha-alpha-nan", "sweep-beta-inf", "sweep-p-nan",
        "verify-alpha-list-nan"])
def test_non_finite_flag_exits_2_with_one_line(workdir, capsys, argv, flag):
    # refused while parsing: no verdict, no report file, no sweep
    assert main(argv + ["--output", "out.txt"]) == 2
    out, err = capsys.readouterr()
    assert not out and not os.path.exists("out.txt")
    assert err.count("\n") == 1 and f"argument {flag}: expected a finite number" in err


def test_usage_errors_are_one_line(workdir, capsys):
    assert main(["transform", "--kind", "dunkl"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "required: --input" in err


def _range_verdict(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out.strip())


def test_config_values_are_typed(workdir, capsys):
    with open("run.conf", "w") as fh:
        fh.write("a=0.5\nb=1.5\n")
    inputs = _range_verdict(capsys, ["range", "--predicate", "full", "--p", "2",
                                     "--config", "run.conf"])["inputs"]
    assert inputs["a"] == 0.5 and inputs["b"] == 1.5


def test_config_loses_to_abbreviated_flag(workdir, capsys):
    with open("run.conf", "w") as fh:
        fh.write("alpha=0.25\n")
    argv = ["range", "--predicate", "full", "--p", "2", "--config", "run.conf"]
    assert _range_verdict(capsys, argv)["inputs"]["alpha"] == 0.25
    assert _range_verdict(capsys, argv + ["--alp", "0.75"])["inputs"]["alpha"] == 0.75


def test_config_values_obey_choices(workdir, capsys):
    with open("run.conf", "w") as fh:
        fh.write("kind=bogus\n")
    assert main(["partial-sum", "--t", "2", "--input", "fh.csv",
                 "--config", "run.conf", "--output", "S.csv"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not os.path.exists("S.csv")


def _table_argv(table, key):
    half = "fh.csv"
    if table == "transform":
        inp = half if TRANSFORMS[key][0] == HALF_LINE else "f.csv"
        return ["transform", "--kind", key, "--alpha", "0.5", "--input", inp]
    if table == "partial-sum":
        inp = half if PARTIAL_SUMS[key][0] == HALF_LINE else "f.csv"
        return ["partial-sum", "--kind", key, "--t", "2", "--input", inp]
    if table == "maximal":
        inp = (half if key in ("conjugate-hardy", "prestini-majorant", "carleson-hankel")
               else "f.csv")
        return ["maximal", "--operator", key, "--input", inp, "--t-grid", "0.5,1,2,4"]
    return ["range", "--predicate", key, "--p", "2", "--beta", "0.5"]


@pytest.mark.parametrize("table,key", [("transform", k) for k in TRANSFORMS]
                         + [("partial-sum", k) for k in PARTIAL_SUMS]
                         + [("maximal", k) for k in MAXIMALS]
                         + [("range", k) for k in RANGES])
def test_every_table_key_runs(workdir, table, key):
    assert main(_table_argv(table, key) + ["--output", "o.out"]) == 0
    assert os.path.exists("o.out")
