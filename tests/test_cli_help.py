import argparse

import pytest

from dunkl_osc.cli import build_parser, main

SUBCOMMANDS = ["transform", "partial-sum", "family", "osc", "var", "maximal",
               "range", "verify", "sweep"]


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_help_every_subcommand(cmd, capsys):
    assert main([cmd, "--help"]) == 0
    out = capsys.readouterr().out
    assert "usage:" in out and cmd in out


def test_parser_lists_all_subcommands():
    ap = build_parser()
    text = ap.format_help()
    for cmd in SUBCOMMANDS:
        assert cmd in text


INPUT_FLAGS = {"--alpha", "--input", "--t-grid", "--output", "--config"}
RUN_FLAGS = {"--n-panels", "--nodes-per-panel", "--x-max", "--seed", "--threads",
             "--output", "--config"}
OPTIONS = {
    "transform": {"--kind", "--alpha", "--input", "--freq-max", "--output", "--config"},
    "partial-sum": {"--kind", "--alpha", "--dimension", "--t", "--input", "--output",
                    "--config"},
    "family": INPUT_FLAGS,
    "osc": INPUT_FLAGS | {"--cuts"},
    "var": INPUT_FLAGS | {"--r"},
    "maximal": INPUT_FLAGS | {"--operator"},
    "range": {"--predicate", "--p", "--beta", "--alpha", "--gamma", "--a", "--b",
              "--output", "--config"},
    "verify": RUN_FLAGS | {"--suite", "--alpha", "--summary"},
    "sweep": RUN_FLAGS | {"--kind", "--p", "--beta", "--alpha", "--dimension",
                          "--experimental"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
           for name, sp in sub.choices.items()}
    assert got == OPTIONS
    assert sum(len(v) for v in got.values()) == 68
