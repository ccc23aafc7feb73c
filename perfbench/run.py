"""dunkl-osc benchmark: four CLI workloads, each a fresh process per timed
repetition, with a correctness gate on every repetition.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the benchmark repeats the
workload in fresh processes until the next repetition would overrun
``--seconds`` (at least MIN_REPS), times ``import dunkl_osc`` in extra
probe processes, and prints the end-to-end medians.  With ``--trace 1`` it
makes one untraced and two traced runs, checks that tracing changed no
report (``runtime_ms`` aside) and that the exact counters repeat, and
prints the per-layer metrics.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  Besides Python's
``__pycache__`` directories, it writes only under ``.bench_build/perfbench``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

# name -> (CLI arguments without --seed/--output, reports expected)
WORKLOADS = {
    "verify-n1536": (["verify", "--suite", "identities", "--alpha", "-0.5,0,0.5,1",
                      "--threads", "1"], 30),
    "sweep-osc-n512": (["sweep", "--kind", "oscillation", "--p", "2", "--alpha", "0,1",
                        "--n-panels", "8", "--threads", "2"], 2),
    "sweep-prestini-n512": (["sweep", "--kind", "prestini", "--alpha", "0",
                             "--n-panels", "8"], 1),
    "sweep-carleson-exp-n512": (["sweep", "--kind", "weighted-carleson", "--p", "2",
                                 "--alpha", "0", "--n-panels", "8", "--experimental"], 25),
}

MIN_REPS = 3          # timed repetitions per untraced run, whatever --seconds says
PROBES_PER_REP = 4    # import-only processes before each repetition
RUN_BUDGET_S = 150.0  # stop starting repetitions past this, to exit within 180 s

# counters a later change may cite as counts: they must repeat exactly
EXACT_COUNTS = ("special.bessel_j_normalized.points", "transforms.kernel_cache.misses",
                "transforms.hankel.calls", "transforms.hankel.kernel_gbytes",
                "projections.build_family.calls", "seminorms.oscillation.calls")


def log(msg: str) -> None:
    print(msg, flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.cli_args, self.expected = WORKLOADS[workload]
        self.work = root / ".bench_build" / "perfbench" / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.n_spawned = 0
        self.t_start = time.monotonic()

    def spawn(self, mode: str, cli_args: list[str]) -> dict:
        """Run one child process and return what it measured."""
        self.n_spawned += 1
        out = self.work / f"child{self.n_spawned}.json"
        timeout = max(10.0, 175.0 - (time.monotonic() - self.t_start))
        with open(self.work / "children.log", "ab") as fh:
            t_spawn = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(CHILD), repr(t_spawn), str(out), mode, *cli_args],
                env=self.env, cwd=self.work, stdout=fh, stderr=fh, timeout=timeout)
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"workload process failed to start or import dunkl_osc "
                               f"(exit {proc.returncode}); see {self.work / 'children.log'}")
        return json.loads(out.read_text())

    def run_workload(self, mode: str) -> dict:
        """One CLI invocation, with its reports gated."""
        reports_path = self.work / f"reports{self.n_spawned + 1}.jsonl"
        args = self.cli_args + ["--seed", str(self.seed), "--output", str(reports_path)]
        result = self.spawn(mode, args)
        lines = reports_path.read_text().splitlines() if reports_path.exists() else []
        result.update(self.gate(result["rc"], lines))
        return result

    def gate(self, rc: int, lines: list[str]) -> dict:
        """Exit code 0, the expected report count, every report passed and,
        on the identity suite, every residual at or below its tolerance.
        Report values are recorded, not gated."""
        reports = [json.loads(line) for line in lines]
        verify = self.workload == "verify-n1536"
        failed = int(rc != 0) + abs(self.expected - len(reports))
        worst = 0.0 if verify else 1.0   # the sweeps carry no finite tolerance
        for r in reports:
            ok = bool(r["passed"])
            if verify:
                ratios = [v / r["tolerance"] for _, v in r["residuals_or_ratios"]]
                ok = ok and all(x <= 1.0 for x in ratios)   # NaN fails
                worst = max([worst] + [x for x in ratios if x == x])
            failed += int(not ok)
        runtime_s = sum(r.pop("runtime_ms") for r in reports) / 1000.0
        return {"failed": failed, "max_residual_over_tol": worst,
                "canon": [json.dumps(r, sort_keys=True) for r in reports],
                "reports": len(reports), "reports_failed": sum(not r["passed"] for r in reports),
                "report_runtime_s": runtime_s}


def environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # older numpy: keep the record, note why
        blas = {"error": repr(exc)}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "DUNKL_OSC_THREADS": os.environ.get("DUNKL_OSC_THREADS"),
            "git_commit": commit or None,
            "src_lines": src_lines}


def untraced(bench: Bench, seconds: float) -> tuple[dict, dict, bool]:
    deadline = bench.t_start + seconds
    setups: list[float] = []
    reps: list[dict] = []
    while True:
        # import-only probes spread through the run, so set-up time is
        # sampled across the same stretch of time as the workload
        t0 = time.monotonic()
        setups += [bench.spawn("probe", [])["setup_s"] for _ in range(PROBES_PER_REP)]
        reps.append(bench.run_workload("plain"))
        now = time.monotonic()
        reps[-1]["cycle_s"] = now - t0
        cycle_s = statistics.median(r["cycle_s"] for r in reps)
        if now + cycle_s > bench.t_start + RUN_BUDGET_S:
            break
        if len(reps) >= MIN_REPS and now + cycle_s > deadline:
            break
    setups += [r["setup_s"] for r in reps]
    deterministic = all(r["canon"] == reps[0]["canon"] for r in reps)
    if not deterministic:
        log("FAIL: repetitions at one seed wrote different reports")
    attempted = bench.expected * len(reps)
    failed = sum(r["failed"] for r in reps)
    samples = {name: [r[name] for r in reps]
               for name in ("wall_s", "cpu_s", "peak_rss_mb", "max_residual_over_tol")}
    samples["setup_s"] = setups
    values = {name: quartiles(v)[1] for name, v in samples.items()}
    values["ok_frac"] = 1.0 - failed / attempted
    for name, v in samples.items():
        q1, med, q3 = quartiles(v)
        log(f"  {name:22s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(v)}")
    log(f"  {'ok_frac':22s} {values['ok_frac']:.6g}  ({failed} failed of {attempted} "
        f"expected reports over {len(reps)} runs)")
    counts = {"attempted": attempted, "failed": failed, "samples": samples}
    return values, counts, deterministic and failed == 0


def traced(bench: Bench, names: list[str]) -> tuple[dict, dict, bool]:
    base = bench.run_workload("plain")
    runs = [bench.run_workload("trace"), bench.run_workload("trace")]
    correct = base["failed"] == 0 and all(r["failed"] == 0 for r in runs)
    for i, r in enumerate(runs):
        if r["canon"] != base["canon"]:
            correct = False
            log(f"FAIL: traced run {i + 1} wrote different reports than the untraced run")
    # a count that does not repeat is unusable for a count claim; it is a
    # finding about the program, not a wrong output, so it does not fail the run
    unrepeated = [name for name in EXACT_COUNTS
                  if runs[0]["trace"].get(name, 0) != runs[1]["trace"].get(name, 0)]
    for name in unrepeated:
        log(f"WARN: count {name} differs between traced runs: "
            f"{runs[0]['trace'].get(name, 0)} != {runs[1]['trace'].get(name, 0)}")
    values = {}
    for name in names:
        vals = [r["trace"].get(name, 0) for r in runs]
        values[name] = vals[0] if vals[0] == vals[1] else statistics.median(vals)
    values["harness.reports"] = base["reports"]
    values["harness.reports_failed"] = base["reports_failed"]
    values["harness.report_runtime_s"] = statistics.median(r["report_runtime_s"] for r in runs)
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in runs) - base["wall_s"]
    values["trace.unrepeated_counts"] = len(unrepeated)
    for name, v in values.items():
        log(f"  {name:56s} {v:.6g}")
    attempted = bench.expected * 3
    failed = base["failed"] + sum(r["failed"] for r in runs)
    full = {"attempted": attempted, "failed": failed,
            "untraced_wall_s": base["wall_s"],
            "traces": [r["trace"] for r in runs]}
    return values, full, correct


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "dunkl_osc" / "cli.py").is_file():
        print("error: run from the dunkl-osc repository root (src/dunkl_osc not found)",
              file=sys.stderr)
        return 2
    # metric names and units are defined once, in BENCHMARK.json
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    # byte-compile once, so no timed process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    bench = Bench(root, args.workload, args.seed)
    env = environment(root)
    log(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    log("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            values, detail, correct = traced(bench, [m["name"] for m in metrics])
        else:
            values, detail, correct = untraced(bench, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "values": values, "detail": detail}
    (bench.work.parent / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({
        "correct": bool(correct and detail["failed"] == 0),
        "attempted": detail["attempted"], "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
