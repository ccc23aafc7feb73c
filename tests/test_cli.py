import json
import os

import numpy as np
import pytest

from dunkl_osc import (FULL_LINE, HALF_LINE, Grid, SampledFn, ThresholdSeq, build_family,
                       bump, make_graded_grid, oscillation, read_sampled_fn, sample,
                       write_sampled_fn)
from dunkl_osc.cli import MAXIMALS, PARTIAL_SUMS, RANGES, TRANSFORMS, main
from conftest import blas_threads, run_fresh


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


@pytest.mark.parametrize("operator,inp", [("carleson-dunkl", "fh.csv"),
                                          ("carleson-hankel", "f.csv")])
def test_carleson_maximal_on_the_wrong_domain_exits_2_with_one_line(workdir, capsys,
                                                                    operator, inp):
    assert main(["maximal", "--operator", operator, "--input", inp,
                 "--t-grid", "0.5,1,2,4", "--output", "m.csv"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and err.startswith(f"error: {inp}:")
    assert not os.path.exists("m.csv")


@pytest.mark.parametrize("operator,inp", [("carleson-hunt", "f.csv"),
                                          ("prestini-majorant", "fh.csv")])
def test_maximal_t_grid_above_the_band_exits_2_with_one_line(workdir, capsys, operator, inp):
    # the --t-grid values are the sup grid's frequencies as given: one above
    # the input grid's band is refused, as a carleson-dunkl cut is, not dropped
    argv = ["maximal", "--operator", operator, "--input", inp, "--output", "m.csv"]
    assert main(argv + ["--t-grid", "1,2,1000"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and "output frequency 1000 exceeds" in err
    assert not os.path.exists("m.csv")
    assert main(argv + ["--t-grid", "1,2"]) == 0


def test_osc_cuts_are_the_library_oscillation(workdir, capsys):
    assert main(["osc", "--input", "f.csv", "--t-grid", "0.5,1,2,4",
                 "--cuts", "1", "--output", "o1.csv"]) == 2
    assert capsys.readouterr().err.count("\n") == 1 and not os.path.exists("o1.csv")
    assert main(["osc", "--alpha", "0.5", "--input", "f.csv", "--t-grid", "0.5,1,2,4",
                 "--cuts", "2,0.5,4", "--output", "o3.csv"]) == 0
    fam = build_family(0.5, read_sampled_fn("f.csv"), ThresholdSeq(np.array([0.5, 1, 2, 4])))
    want = oscillation(fam, ThresholdSeq(np.array([0.5, 2.0, 4.0])))
    assert np.array_equal(read_sampled_fn("o3.csv").values, want.values)


def test_sweep_refuses_a_flag_its_kind_does_not_read(workdir, capsys):
    # prestini reads neither --beta nor --p: set on the command line or in a
    # config file, a value other than the default is refused before any work
    base = ["sweep", "--kind", "prestini", "--alpha", "0", "--n-panels", "8"]
    assert main(base + ["--beta", "0.7", "--p", "5", "--output", "r.jsonl"]) == 2
    out, err = capsys.readouterr()
    assert not out and err == "error: sweep --kind prestini does not read --p, --beta\n"
    with open("run.conf", "w") as fh:
        fh.write("beta=0.7\n")
    assert main(base + ["--config", "run.conf", "--output", "r.jsonl"]) == 2
    assert "does not read --beta" in capsys.readouterr().err
    assert not os.path.exists("r.jsonl")
    # a value equal to the default is accepted, and so is every flag the kind reads
    assert main(base + ["--beta", "0", "--threads", "2", "--x-max", "3",
                        "--output", "r.jsonl"]) == 0
    assert os.path.exists("r.jsonl")


@pytest.mark.parametrize("argv,default", [
    (["transform", "--kind", "fourier", "--input", "f.csv", "--alpha", "3"], "0"),
    (["partial-sum", "--kind", "fourier", "--t", "2", "--input", "f.csv", "--alpha", "1"], "0"),
    (["partial-sum", "--kind", "dunkl", "--t", "2", "--input", "f.csv", "--dimension", "7"], "1"),
    (["maximal", "--operator", "maximal-hilbert", "--input", "f.csv", "--alpha", "5"], "0"),
    (["maximal", "--operator", "hardy-littlewood", "--input", "f.csv", "--t-grid", "1,2"], None),
], ids=["transform", "partial-sum", "partial-sum-dimension", "maximal", "maximal-t-grid"])
def test_kind_refuses_a_flag_it_does_not_read(workdir, capsys, argv, default):
    # the rule of the sweep kinds: a value other than the default, set on the
    # command line or in a config file, is refused before any work
    flag, value = argv[-2:]
    want = f"error: {argv[0]} {argv[1]} {argv[2]} does not read {flag}\n"
    assert main(argv + ["--output", "o.csv"]) == 2
    out, err = capsys.readouterr()
    assert not out and err == want
    with open("run.conf", "w") as fh:
        fh.write(f"{flag[2:]}={value}\n")
    assert main(argv[:-2] + ["--config", "run.conf", "--output", "o.csv"]) == 2
    assert capsys.readouterr().err == want
    assert not os.path.exists("o.csv")
    if default is not None:
        assert main(argv[:-1] + [default, "--output", "o.csv"]) == 0
        assert os.path.exists("o.csv")


def test_odd_symmetric_grid_exits_2_naming_the_node_at_zero(workdir, capsys):
    g = Grid(np.arange(-4, 5) * (2.0 / 9.0), np.full(9, 2.0 / 9.0), -1.0, 1.0)
    write_sampled_fn("odd.csv", sample(bump(0.2, 0.7), g, FULL_LINE))
    for argv in (["transform", "--kind", "dunkl"], ["partial-sum", "--kind", "dunkl", "--t", "2"]):
        assert main(argv + ["--input", "odd.csv", "--output", "o.csv"]) == 2
        out, err = capsys.readouterr()
        assert not out and err.count("\n") == 1 and "node at 0" in err
    assert not os.path.exists("o.csv")
    assert main(["transform", "--kind", "fourier", "--input", "odd.csv", "--output", "o.csv"]) == 0


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


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_freq_max_is_refused_by_name(workdir, capsys, value):
    assert main(["transform", "--kind", "fourier", "--input", "f.csv",
                 f"--freq-max={value}", "--output", "F.csv"]) == 2
    out, err = capsys.readouterr()
    assert not out and err == f"error: freq_max must be positive, got {float(value):g}\n"
    assert not os.path.exists("F.csv")


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


def test_prestini_on_an_all_zero_corpus_exits_1_with_one_line(workdir, capsys):
    # on [-0.1, 0.1] every half-line corpus member (supported near 1) is zero
    assert main(["sweep", "--kind", "prestini", "--x-max", "0.1", "--n-panels", "8",
                 "--output", "r.jsonl"]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("numerical failure:") and "zero" in err and "\n" not in err
    assert not os.path.exists("r.jsonl")


def test_weighted_carleson_runs_one_batch_per_order(workdir):
    assert main(["sweep", "--kind", "weighted-carleson", "--p", "2", "--alpha", "0,1",
                 "--n-panels", "8", "--output", "r.jsonl"]) == 0
    with open("r.jsonl") as fh:
        alphas = [json.loads(line)["inputs"]["alpha"] for line in fh]
    assert alphas == [0.0] * 25 + [1.0] * 25


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


def test_bad_threads_env_exits_2_only_where_read(workdir, capsys, monkeypatch):
    # the environment value is typed like the flag, when a subcommand uses it
    monkeypatch.setenv("DUNKL_OSC_THREADS", "abc")
    assert main(["verify", "--help"]) == 0
    assert main(["range", "--predicate", "full", "--p", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "--n-panels", "2", "--output", "r.jsonl"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "argument --threads: expected a positive integer" in err
    assert not os.path.exists("r.jsonl")
    # an explicit flag wins over the bad default
    from dunkl_osc.cli import build_parser
    assert build_parser().parse_args(["verify", "--threads", "3"]).threads == 3


@pytest.mark.parametrize("value", ["0", "-3", "1.5"])
def test_threads_below_one_exit_2(workdir, capsys, value):
    argv = ["sweep", "--kind", "prestini", "--n-panels", "2", "--output", "r.jsonl"]
    assert main(argv + [f"--threads={value}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "argument --threads: expected a positive integer" in err
    assert not os.path.exists("r.jsonl")


@pytest.mark.parametrize("flag,value,field", [("--n-panels", "0", "n_side_panels=0"),
                                              ("--nodes-per-panel", "0", "nodes_per_panel=0"),
                                              ("--x-max", "0", "x_max=0.0"),
                                              ("--x-max", "-1", "x_max=-1.0")])
def test_bad_resolution_flag_exits_2_naming_its_field(workdir, capsys, flag, value, field):
    assert main(["sweep", "--kind", "prestini", f"{flag}={value}", "--output", "r.jsonl"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and field in err and "make_graded_grid" not in err
    assert not os.path.exists("r.jsonl")


# edges -> the operator whose output the edges changed before Grid checked them
WRONG_EDGES = {"-10,10": "maximal-hilbert", "-3,-1.1,3": "maximal-hilbert",
               "-3,-1,0,2.5": "conjugate-hardy"}


@pytest.mark.parametrize("edges", list(WRONG_EDGES))
def test_csv_edges_that_contradict_the_grid_exit_2(workdir, capsys, edges):
    with open("f.csv") as fh:
        head, *rest = fh.read().splitlines()
    with open("bad.csv", "w") as fh:
        fh.write("\n".join([head[:head.index("edges=")] + f"edges={edges}", *rest]) + "\n")
    assert main(["maximal", "--operator", WRONG_EDGES[edges], "--input", "bad.csv",
                 "--output", "M.csv"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and "panel edges" in err
    assert not os.path.exists("M.csv")


def test_transference_at_large_p_passes_without_warnings(workdir, capsys):
    # every term of the Hankel side's norms underflows at p = 300
    assert main(["sweep", "--kind", "transference", "--p", "300", "--n-panels", "2",
                 "--output", "r.jsonl"]) == 0
    assert capsys.readouterr().err == ""
    with open("r.jsonl") as fh:
        report = json.loads(fh.read())
    assert report["passed"] and all(v > 0.0 for _, v in report["residuals_or_ratios"][:-1])


def test_non_utf8_config_exits_2_with_one_line(workdir, capsys):
    with open("bin.conf", "wb") as fh:
        fh.write(b"\xff\xfe")
    assert main(["range", "--predicate", "full", "--p", "2", "--config", "bin.conf"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.count("\n") == 1 and "bin.conf: a config file must be UTF-8 text" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha", "x"],
    ["family", "--input", "f.csv", "--t-grid", "a,b"],
    ["maximal", "--operator", "carleson-hunt", "--input", "f.csv", "--t-grid", "x"],
    ["sweep", "--kind", "weighted-carleson", "--alpha", ","],
    ["range", "--predicate", "ap", "--p", "2", "--a", "0.5"],
    ["range", "--predicate", "transplant", "--p", "2", "--alpha", "-3"],
    ["verify", "--seed", "-1", "--n-panels", "2"],
    ["maximal", "--operator", "carleson-hunt", "--input", "f.csv", "--t-grid", "-1,2"],
], ids=["verify-alpha", "family-t-grid", "maximal-t-grid", "sweep-empty-alpha",
        "range-a-without-b", "range-transplant-alpha-below-half", "verify-negative-seed",
        "maximal-negative-t-grid"])
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


@pytest.mark.parametrize("argv,value", [
    (["verify", "--alpha", "0,0", "--n-panels", "4"], "0"),
    (["verify", "--alpha", "-0.5,0.5,0.50", "--n-panels", "4"], "0.5"),
    (["sweep", "--kind", "oscillation", "--alpha", "0,0", "--n-panels", "4"], "0"),
    (["sweep", "--kind", "prestini", "--alpha", "1,-0.5,1.0", "--n-panels", "4"], "1"),
], ids=["verify", "verify-spelled-twice", "sweep-oscillation", "sweep-prestini"])
def test_a_repeated_order_exits_2_naming_it(workdir, capsys, argv, value):
    # refused while parsing: a repeat would run (and report) every order twice
    assert main(argv + ["--output", "out.txt"]) == 2
    out, err = capsys.readouterr()
    assert not out and not os.path.exists("out.txt")
    assert err.count("\n") == 1 and f"argument --alpha: order {value} is repeated" in err


@pytest.mark.parametrize("argv", [
    ["family", "--input", "f.csv", "--t-grid", "1,1"],
    ["osc", "--input", "f.csv", "--t-grid", "1,2,4", "--cuts", "2,2"],
], ids=["t-grid", "cuts"])
def test_a_repeated_threshold_keeps_its_threshold_message(workdir, capsys, argv):
    assert main(argv + ["--output", "out.txt"]) == 2
    out, err = capsys.readouterr()
    assert not out and not os.path.exists("out.txt")
    assert err == "error: thresholds must be positive and strictly increasing\n"


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
    inputs = _range_verdict(capsys, ["range", "--predicate", "ap", "--p", "2",
                                     "--config", "run.conf"])["inputs"]
    assert inputs == {"p": 2.0, "a": 0.5, "b": 1.5}


def test_range_refuses_a_flag_its_predicate_does_not_read(workdir, capsys):
    # full reads neither gamma nor a weight; a weight predicate reads --beta
    # (|x|^beta) or --a and --b (w_ab), not both
    for argv, unread in [(["--predicate", "full", "--gamma", "5", "--a", "1", "--b", "1"],
                          "--gamma, --a, --b"),
                         (["--predicate", "ap", "--beta", "0.3", "--a", "1", "--b", "1"],
                          "--beta")]:
        assert main(["range", "--p", "2"] + argv + ["--output", "r.json"]) == 2
        out, err = capsys.readouterr()
        assert not out and err == f"error: range {argv[0]} {argv[1]} does not read {unread}\n"
    assert not os.path.exists("r.json")
    # the echo lists only the flags the predicate reads, a default included
    assert _range_verdict(capsys, ["range", "--predicate", "full", "--p", "2", "--gamma", "0"]
                          )["inputs"] == {"p": 2.0, "beta": 0.0, "alpha": 0.0}
    assert _range_verdict(capsys, ["range", "--predicate", "ap", "--p", "2", "--beta", "0.3"]
                          )["inputs"] == {"p": 2.0, "beta": 0.3}


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
    """The command of one table key, with a value for each flag that key reads."""
    half = "fh.csv"
    if table == "transform":
        domain, reads, _ = TRANSFORMS[key]
        return (["transform", "--kind", key, "--input", half if domain == HALF_LINE else "f.csv"]
                + ["--alpha", "0.5"] * ("alpha" in reads))
    if table == "partial-sum":
        domain, reads, _ = PARTIAL_SUMS[key]
        return (["partial-sum", "--kind", key, "--t", "2",
                 "--input", half if domain == HALF_LINE else "f.csv"]
                + ["--alpha", "0.5"] * ("alpha" in reads)
                + ["--dimension", "3"] * ("dimension" in reads))
    if table == "maximal":
        inp = (half if key in ("conjugate-hardy", "prestini-majorant", "carleson-hankel")
               else "f.csv")
        return (["maximal", "--operator", key, "--input", inp]
                + ["--alpha", "0.5"] * ("alpha" in MAXIMALS[key][1])
                + ["--t-grid", "0.5,1,2,4"] * ("t_grid" in MAXIMALS[key][1]))
    return ["range", "--predicate", key, "--p", "2", "--beta", "0.5"]


@pytest.mark.parametrize("table,key", [("transform", k) for k in TRANSFORMS]
                         + [("partial-sum", k) for k in PARTIAL_SUMS]
                         + [("maximal", k) for k in MAXIMALS]
                         + [("range", k) for k in RANGES])
def test_every_table_key_runs(workdir, table, key):
    assert main(_table_argv(table, key) + ["--output", "o.out"]) == 0
    assert os.path.exists("o.out")


def test_var_refuses_r_beyond_its_bound(workdir):
    for r in ("1001", "inf", "nan"):
        assert main(["var", "--alpha", "0", "--r", r, "--input", "f.csv",
                     "--output", "v.csv"]) == 2
    assert not os.path.exists("v.csv")
    assert main(["var", "--alpha", "0", "--r", "1000", "--input", "f.csv",
                 "--output", "v.csv"]) == 0
    assert np.max(np.abs(read_sampled_fn("v.csv").values)) > 0.0


# the names dunkl_osc exported when its __init__ imported every module
OLD_EXPORTS = """
ArgumentError CorpusMember DomainError DunklOscError ExperimentReport FULL_LINE GateError Grid
HALF_LINE NormSpec PartialSumFamily Resolution ResolutionError SampledFn SupGrid ThresholdSeq
Weight ap_alpha_check ap_check away_from_zero_corpus bcv_lattice_weights bessel_j_normalized
beta_star build_family bump carleson_hunt check_resolution conjectured_measure_ap_check
conjugate_hardy default_corpus default_sup_grid default_t_grid dunkl dunkl_inverse dunkl_modified
dunkl_modified_inverse dunkl_partial_sum dyadic_partition even_odd_split family_to_csv fourier
fourier_inverse fourier_partial_sum frequency_grid gaussian half_line_corpus hankel hankel_modified
hankel_partial_sum hardy_littlewood_max make_breakpoint_grid make_graded_grid max_oscillation
maximal_hilbert moment_cancelled_corpus multiply_power oscillation oscillation_ratio_sweep
power_weight prestini_constant_sweep prestini_majorant radial_partial_sum random_band_modes
range_dyadic_oscillation range_full_oscillation read_sampled_fn resolution_n512
resolvable_frequency run_identity_suite sample smooth_corpus transference_demo transplant_dunkl
transplant_range transplant_roundtrip_report variation w_ab_weight weighted_carleson_sweep
weighted_lp_norm write_reports_jsonl write_sampled_fn write_summary_csv
""".split()
# prints the OpenBLAS thread count of the process that runs it
PRINT_THREADS = "from conftest import blas_threads\nprint(blas_threads())\n"


def test_every_export_resolves_lazily_and_is_in_all():
    import dunkl_osc
    assert sorted(dunkl_osc.__all__) == sorted(OLD_EXPORTS)
    for name in OLD_EXPORTS:
        assert getattr(dunkl_osc, name) is not None and name in dir(dunkl_osc)
    with pytest.raises(AttributeError, match="no attribute 'bessel_j'"):
        dunkl_osc.bessel_j


def test_importing_the_package_loads_no_numpy():
    assert run_fresh("import os, sys, dunkl_osc\n"
                     "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                     ) == "False None\n"


def test_prestini_sweep_loads_no_numpy_ma(tmp_path):
    # default_sup_grid drops repeated frequencies without np.unique, which
    # imports numpy.ma inside the timed call
    out = run_fresh("import sys\nfrom dunkl_osc.cli import main\n"
                    f"rc = main(['sweep', '--kind', 'prestini', '--n-panels', '2', "
                    f"'--output', {str(tmp_path / 'r.jsonl')!r}])\n"
                    "print(rc, 'numpy.ma' in sys.modules)\n")
    assert out.splitlines()[-1] == "0 False"


@pytest.mark.skipif(blas_threads() is None, reason="the bundled OpenBLAS is not found")
def test_cli_starts_openblas_on_one_thread():
    # as the console script starts: the package, then the CLI, then numpy;
    # an empty thread variable counts as unset
    assert run_fresh("import dunkl_osc.cli\n" + PRINT_THREADS) == "1\n"
    assert run_fresh("import dunkl_osc.cli\n" + PRINT_THREADS, OMP_NUM_THREADS="") == "1\n"
    # a library import leaves OpenBLAS at its own default
    assert (run_fresh("import dunkl_osc.harness\n" + PRINT_THREADS)
            == run_fresh("import numpy\n" + PRINT_THREADS))


@pytest.mark.skipif(blas_threads() is None, reason="the bundled OpenBLAS is not found")
@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_start_yields_to_an_explicit_thread_setting(var):
    if run_fresh("import numpy\n" + PRINT_THREADS, **{var: "2"}) != "2\n":
        pytest.skip("OpenBLAS runs fewer than 2 threads on this machine")
    assert run_fresh("import dunkl_osc.cli\n" + PRINT_THREADS, **{var: "2"}) == "2\n"
