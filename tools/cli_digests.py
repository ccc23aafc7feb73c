"""SHA-256 digests of the CLI's output files, for checking that a change
leaves every output byte-identical.

Runs, in a temporary directory, with the package of the checkout this
script lives in:

- ``verify`` at N=512, with ``--summary``, and at the default N=1536;
- every ``sweep`` kind at ``--n-panels 8 --seed 7`` (prestini at
  ``--alpha 0,1``, weighted-carleson with ``--experimental``, transference
  at p=2 and at p=3 with beta=0.5 in dimension 3, and at p=2 in dimensions
  1 and 2, so that both exact reductions and a dimension without one run;
  a kind that reads no resolution flag runs at ``--seed 7`` alone);
- every ``transform``, ``partial-sum`` and ``maximal`` kind, and ``family``,
  ``osc`` and ``var``, on N=512 CSVs this script writes: a real and a
  complex full-line function and a real half-line one.  Each kind runs on
  the CSVs of its table's domain (all three when the operator checks its
  own), with ``--alpha 0.5`` where it reads an order, and each ``maximal``
  kind that reads ``--t-grid`` runs with and without an in-band one;
- every ``range`` predicate at ``--p 2`` (``ap`` and ``ap-alpha`` on the
  weight w_ab with ``--a 0.5 --b 1.5``).

It prints one ``sha256  name`` line per file the commands write, sorted by
name, with ``runtime_ms`` removed from the JSON-lines reports and from the
summary CSV, and one ``exit N  name`` line per command that exits nonzero
(``verify`` at N=512 exits 1 by design).  The commands run in this
process, which imports ``dunkl_osc.cli`` before numpy, so OpenBLAS starts
as it does under the console script.  Run it in two checkouts and diff the
listings:

    python tools/cli_digests.py > new.txt
    (cd ../parent && python tools/cli_digests.py) > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dunkl_osc.cli import MAXIMALS, PARTIAL_SUMS, RANGES, SWEEPS, TRANSFORMS, main  # noqa: E402
from dunkl_osc import (FULL_LINE, HALF_LINE, bump, gaussian,  # noqa: E402
                       make_graded_grid, sample, write_sampled_fn)

# sweep kind -> the flag sets it runs with (default: one run without flags)
SWEEP_FLAGS = {"prestini": [["--alpha", "0,1"]], "weighted-carleson": [["--experimental"]],
               "transference": [["--p", "2"], ["--p", "3", "--beta", "0.5"],
                                ["--dimension", "1"], ["--dimension", "2"]]}
T_GRID = ["--t-grid", "0.5,1,2,4"]
# range predicate -> the flags it runs with besides --p 2
RANGE_FLAGS = {"ap": ["--a", "0.5", "--b", "1.5"], "ap-alpha": ["--a", "0.5", "--b", "1.5"]}
SUMMARY_HEAD = b"name,passed,max_residual_or_ratio,runtime_ms\n"


def _inputs() -> dict[str, list[str]]:
    """Write the N=512 input CSVs; domain -> their file names."""
    grid = make_graded_grid(-3.0, 3.0, 8, 32, 1.0)
    real = sample(bump(0.3, 1.4), grid, FULL_LINE)
    write_sampled_fn("full.csv", real)
    write_sampled_fn("fullc.csv", real.with_values(
        real.values + 1j * gaussian(-0.4, 0.3)(grid.points)))
    write_sampled_fn("half.csv", sample(bump(1.5, 1.2), grid.positive_half(), HALF_LINE))
    return {FULL_LINE: ["full.csv", "fullc.csv"], HALF_LINE: ["half.csv"]}


def _commands(inputs: dict[str, list[str]]):
    """(output name, argv) of every run on the input CSVs of _inputs."""
    yield "verify-n512.jsonl", ["verify", "--n-panels", "8", "--seed", "7",
                                "--summary", "verify-n512-summary.csv"]
    yield "verify-n1536.jsonl", ["verify", "--seed", "7"]
    for kind, (reads, _) in SWEEPS.items():
        res = ["--n-panels", "8"] if "n_panels" in reads else []
        for flags in SWEEP_FLAGS.get(kind, [[]]):
            name = "-".join([f"sweep-{kind}"] + [f.lstrip("-") for f in flags])
            yield f"{name}.jsonl", ["sweep", "--kind", kind, *res, "--seed", "7", *flags]
    every = [f for files in inputs.values() for f in files]
    for table, command, key in ((TRANSFORMS, "transform", "--kind"),
                                (PARTIAL_SUMS, "partial-sum", "--kind"),
                                (MAXIMALS, "maximal", "--operator")):
        for kind, (domain, reads, _) in table.items():
            flags = (["--alpha", "0.5"] if "alpha" in reads else []) + (
                ["--dimension", "3"] if "dimension" in reads else []) + (
                ["--t", "2"] if command == "partial-sum" else [])
            for inp in inputs[domain] if domain else every:
                base = [command, key, kind, "--input", inp, *flags]
                stem = f"{command}-{kind}-{Path(inp).stem}"
                yield f"{stem}.csv", base
                if "t_grid" in reads:
                    yield f"{stem}-t-grid.csv", base + T_GRID
    for command in ("family", "osc", "var"):
        for inp in every:
            yield f"{command}-{Path(inp).stem}.csv", [command, "--alpha", "0.5", "--input", inp]
    for predicate in RANGES:
        yield f"range-{predicate}.json", ["range", "--predicate", predicate, "--p", "2",
                                          *RANGE_FLAGS.get(predicate, [])]


def _digest(path: str) -> str:
    data = Path(path).read_bytes()
    if path.endswith(".jsonl"):
        reports = [json.loads(line) for line in data.decode().splitlines()]
        for r in reports:
            r.pop("runtime_ms", None)
        data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports).encode()
    elif data.startswith(SUMMARY_HEAD):   # runtime_ms is the last column
        data = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
    return hashlib.sha256(data).hexdigest()


def main_digests() -> int:
    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        inputs = _inputs()
        for name, argv in _commands(inputs):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--output", name])
            if code:
                lines.append(f"exit {code}  {name}")
        given = {f for files in inputs.values() for f in files}
        lines += [f"{_digest(name)}  {name}" for name in os.listdir() if name not in given]
        os.chdir(here)
    for line in sorted(lines, key=lambda s: s.split("  ", 1)[1]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
