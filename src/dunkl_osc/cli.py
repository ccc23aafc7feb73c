"""Command-line front end.

Subcommands: transform, partial-sum, family, osc, var, maximal, range,
verify, sweep.  Each has one handler, ``_run_<subcommand>(args, parser)``,
called with the subcommand's own parser, and its kinds live in one table
(TRANSFORMS, PARTIAL_SUMS, MAXIMALS, RANGES, SWEEPS) that gives both the
parser's choices and the handler's dispatch.  Table entries call library
functions by name at call time, so a rebound module attribute (a tracer, a
test double) sees every call.

Each subcommand declares only the flags it reads: the ones acting on a
SampledFn take their grid from ``--input``, and only verify and sweep take
the resolution flags, ``--seed`` and ``--threads``.  A kind of transform,
partial-sum, maximal or sweep, or a range predicate, refuses a flag it does
not read whose value is not the default (``_refuse_unread``).  A ``--config`` file of
key=value lines becomes flags placed before the explicit ones, so its
values are typed and checked like flags and explicit flags win; keys the
subcommand does not take are ignored.  Float flags take finite numbers only.
Exit codes: 0 success, 1 numerical failure, 2 argument or I/O error, each
failure with a one-line message.  Floats print with 17 significant digits.
Imported before numpy, this module starts OpenBLAS on one thread unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# a second BLAS thread buys these GEMMs no wall time and doubles their CPU time
if "numpy" not in sys.modules and not (os.environ.get("OPENBLAS_NUM_THREADS")
                                       or os.environ.get("OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import transforms
from .errors import ArgumentError, DomainError, DunklOscError, GateError, ResolutionError
from .funcspace import (FULL_LINE, HALF_LINE, read_sampled_fn, write_sampled_fn)
from .projections import (ThresholdSeq, build_family, default_t_grid, dunkl_partial_sum,
                          family_to_csv, fourier_partial_sum, hankel_partial_sum,
                          radial_partial_sum)
from .seminorms import max_oscillation, oscillation, variation
from .classical_ops import (carleson_hunt, conjugate_hardy, default_sup_grid,
                            hardy_littlewood_max, maximal_hilbert, prestini_majorant)
from .weights import (NormSpec, ap_alpha_check, ap_check, beta_star,
                      power_weight, range_dyadic_oscillation,
                      range_full_oscillation, transplant_range, w_ab_weight)
from .harness import (Resolution, bcv_lattice_weights, dyadic_partition,
                      oscillation_ratio_sweep, prestini_constant_sweep, run_identity_suite,
                      transference_demo, transplant_roundtrip_report, weighted_carleson_sweep,
                      write_reports_jsonl, write_summary_csv)


def _finite(text: str) -> float:
    """argparse type of one finite number: nan and inf are refused."""
    if not np.isfinite(value := float(text)):   # a ValueError reports an invalid value
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of a count of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _float_list(text: str) -> list[float]:
    """argparse type of a comma-separated list of finite numbers, e.g. -0.5,0,1."""
    try:
        values = [_finite(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _order_list(text: str) -> list[float]:
    """argparse type of --alpha lists: _float_list with no order repeated."""
    values = _float_list(text)
    for i, a in enumerate(values):
        if a in values[:i]:
            raise argparse.ArgumentTypeError(f"order {a:g} is repeated in {text!r}")
    return values


def _t_grid_for(args, f) -> ThresholdSeq:
    """Thresholds from the flag, or default_t_grid of the input grid's
    default frequency grid."""
    if args.t_grid:
        return ThresholdSeq(np.array(sorted(args.t_grid)))
    return default_t_grid(transforms.frequency_grid(f.grid))


def _family(args, f):
    return build_family(args.alpha, f, _t_grid_for(args, f))


def _sup_grid(args, f):
    return default_sup_grid(f.grid, _t_grid_for(args, f).values if args.t_grid else None)


def _weight(args):
    return w_ab_weight(args.a, args.b) if args.a is not None else power_weight(args.beta)


def _oscillation_sweep(args, res, dyadic_only: bool):
    return oscillation_ratio_sweep([NormSpec(args.p, args.beta, a) for a in args.alpha],
                                   args.seed, res, dyadic_only=dyadic_only,
                                   threads=args.threads)


# kind -> (input domain, the flags it reads besides --kind, --input and
# --freq-max, transform(alpha, f, freq)); the Hankel kinds map onto the
# positive half of the frequency grid
TRANSFORMS = {
    "fourier": (FULL_LINE, (), lambda a, f, freq: transforms.fourier(f, freq)),
    "hankel": (HALF_LINE, ("alpha",), lambda a, f, freq:
               transforms.hankel(a, f, freq.positive_half())),
    "hankel-modified": (HALF_LINE, ("alpha",), lambda a, f, freq:
                        transforms.hankel_modified(a, f, freq.positive_half())),
    "dunkl": (FULL_LINE, ("alpha",), lambda a, f, freq: transforms.dunkl(a, f, freq)),
    "dunkl-inverse": (FULL_LINE, ("alpha",), lambda a, f, freq:
                      transforms.dunkl_inverse(a, f, freq)),
    "dunkl-modified": (FULL_LINE, ("alpha",), lambda a, f, freq:
                       transforms.dunkl_modified(a, f, freq)),
}

# kind -> (input domain, the flags it reads besides --kind, --t and --input,
# partial sum(args, f))
PARTIAL_SUMS = {
    "dunkl": (FULL_LINE, ("alpha",), lambda args, f: dunkl_partial_sum(args.alpha, f, args.t)),
    "hankel": (HALF_LINE, ("alpha",), lambda args, f: hankel_partial_sum(args.alpha, f, args.t)),
    "fourier": (FULL_LINE, (), lambda args, f: fourier_partial_sum(f, args.t)),
    "radial": (HALF_LINE, ("dimension",), lambda args, f:
               radial_partial_sum(args.dimension, f, args.t)),
}

# operator -> (input domain, the flags it reads besides --operator and
# --input, maximal function(args, f)); a classical operator checks its own
# input domain (None).  The classical ones take the sup grid of the input
# grid, whose frequencies (the --t-grid values as given, else octaves up to
# the grid's band) only the Carleson-Hunt operator and the majorant read,
# refusing one above the band; the Carleson ones take the t-grid.
MAXIMALS = {
    "hardy-littlewood": (None, (), lambda args, f: hardy_littlewood_max(f, _sup_grid(args, f))),
    "conjugate-hardy": (None, (), lambda args, f: conjugate_hardy(f)),
    "maximal-hilbert": (None, (), lambda args, f: maximal_hilbert(f, _sup_grid(args, f))),
    "carleson-hunt": (None, ("t_grid",), lambda args, f: carleson_hunt(f, _sup_grid(args, f))),
    "prestini-majorant": (None, ("alpha", "t_grid"), lambda args, f:
                          prestini_majorant(args.alpha, f, _sup_grid(args, f))),
    "carleson-dunkl": (FULL_LINE, ("alpha", "t_grid"), lambda args, f:
                       _family(args, f).max_abs()),
    "carleson-hankel": (HALF_LINE, ("alpha", "t_grid"), lambda args, f:
                        _family(args, f).max_abs()),
}

# predicate -> (the flags it reads besides --predicate, verdict(args),
# formula); a weight predicate reads --beta (|x|^beta) or --a and --b (w_ab)
_PBA = ("p", "beta", "alpha")
RANGES = {
    "full": (_PBA, lambda args: range_full_oscillation(args.p, args.beta, args.alpha),
             "-1 < beta + (alpha+1/2)(2-p) < p/2 - 1 (beta=0 allowed at p=2)"),
    "dyadic": (_PBA, lambda args: range_dyadic_oscillation(args.p, args.beta, args.alpha),
               "-1 < beta + (alpha+1/2)(2-p) < p - 1"),
    "transplant": ((*_PBA, "gamma"), lambda args:
                   transplant_range(args.p, args.beta, args.alpha, args.gamma),
                   "-1 - p min(alpha+1/2, gamma+1/2) < beta "
                   "< -1 + p min(alpha+3/2, gamma+3/2)"),
    "ap": (("p", "beta", "a", "b"), lambda args: bool(ap_check(_weight(args), args.p)[0]),
           "sup_B (avg_B w)(avg_B w^{-p'/p})^{p/p'} stable"),
    "ap-alpha": ((*_PBA, "a", "b"), lambda args:
                 bool(ap_alpha_check(_weight(args), args.p, args.alpha)),
                 "w |x|^{2a+1-p(a+1/2)} in A_p"),
    "beta-star": (_PBA, lambda args: beta_star(args.beta, args.alpha, args.p),
                  "beta* = beta - (alpha+1/2)(2-p)"),
}

# kind -> (the sweep flags it reads besides --seed, reports(args, resolution))
_RES = ("n_panels", "nodes_per_panel", "x_max")
SWEEPS = {
    "oscillation": (("p", "beta", "alpha", "threads", *_RES),
                    lambda args, res: _oscillation_sweep(args, res, False)),
    "oscillation-dyadic": (("p", "beta", "alpha", "threads", *_RES),
                           lambda args, res: _oscillation_sweep(args, res, True)),
    "prestini": (("alpha", "threads", *_RES), lambda args, res: prestini_constant_sweep(
        args.alpha, res, args.seed, args.threads)),
    "transference": (("p", "beta", "dimension", *_RES), lambda args, res: [transference_demo(
        dyadic_partition(res), NormSpec(args.p, args.beta, -0.5), args.dimension, res,
        args.seed)]),
    "weighted-carleson": (("p", "alpha", "experimental", "threads", *_RES), lambda args, res: [
        r for a in args.alpha for r in weighted_carleson_sweep(
            bcv_lattice_weights(), args.p, a, res, args.seed,
            experimental=args.experimental, threads=args.threads)]),
    "transplant-roundtrip": ((), lambda args, res: [
        transplant_roundtrip_report([(-0.5, 0.5), (0.0, 1.0)], args.seed)]),
}


def _load(args, want=None):
    f = read_sampled_fn(args.input)
    if want and f.domain_tag != want:
        raise ArgumentError(f"{args.input}: expected a {want} function")
    return f


def _emit_fn(args, f, note: str) -> int:
    out = args.output or "out.csv"
    write_sampled_fn(out, f)
    print(f"{note} -> {out} ({f.grid.n} nodes, max|v|={float(np.max(np.abs(f.values))):.17g})")
    return 0


def _emit_reports(args, reports, head: str, note: str = "") -> int:
    """Write the reports as JSON lines; exit 1 if any failed."""
    out = args.output or "reports.jsonl"
    write_reports_jsonl(out, reports)
    n_fail = sum(1 for r in reports if not r.passed)
    print(f"{head}: {len(reports) - n_fail}/{len(reports)} passed{note} -> {out}")
    return 1 if n_fail else 0


def _refuse_unread(args, parser, reads, key: str = "kind", required=("input",)) -> None:
    """Refuse each flag the kind named by --key does not read whose value (from
    the command line or --config) differs from the one the subcommand's parser
    gives it when only --key and the required flags are given."""
    given = [f"--{d.replace('_', '-')}={getattr(args, d)}" for d in (key,) + required]
    default = vars(parser.parse_args(given))
    unread = ["--" + d.replace("_", "-") for d, v in default.items()
              if d not in reads + ("seed", "output", "config") and getattr(args, d) != v]
    if unread:
        raise ArgumentError(f"{args.command} --{key} {getattr(args, key)} "
                            f"does not read {', '.join(unread)}")


def _run_transform(args, parser) -> int:
    domain, reads, op = TRANSFORMS[args.kind]
    _refuse_unread(args, parser, reads + ("freq_max",))
    f = _load(args, domain)
    freq = transforms.frequency_grid(f.grid, freq_max=args.freq_max)
    return _emit_fn(args, op(args.alpha, f, freq), f"{args.kind}(alpha={args.alpha:g})")


def _run_partial_sum(args, parser) -> int:
    domain, reads, op = PARTIAL_SUMS[args.kind]
    _refuse_unread(args, parser, reads, required=("t", "input"))
    return _emit_fn(args, op(args, _load(args, domain)), f"S_t ({args.kind}, t={args.t:g})")


def _run_family(args, parser) -> int:
    fam = _family(args, _load(args))
    out = args.output or "family.csv"
    family_to_csv(out, fam)
    print(f"family alpha={args.alpha:g} with {len(fam.t_grid)} thresholds -> {out}")
    return 0


def _run_osc(args, parser) -> int:
    fam = _family(args, _load(args))
    if not args.cuts:
        return _emit_fn(args, max_oscillation(fam), "oscillation sup over all cut sequences")
    cuts = ThresholdSeq(np.array(sorted(args.cuts)))
    return _emit_fn(args, oscillation(fam, cuts), f"oscillation (J={len(cuts) - 1})")


def _run_var(args, parser) -> int:
    return _emit_fn(args, variation(_family(args, _load(args)), args.r), f"V^{args.r:g}")


def _run_maximal(args, parser) -> int:
    domain, reads, op = MAXIMALS[args.operator]
    _refuse_unread(args, parser, reads, key="operator")
    return _emit_fn(args, op(args, _load(args, domain)), args.operator)


def _run_range(args, parser) -> int:
    reads, verdict, formula = RANGES[args.predicate]
    reads = tuple(k for k in reads if k != "beta" or args.a is None)   # w_ab or |x|^beta
    _refuse_unread(args, parser, reads, key="predicate", required=("p",))
    if (args.a is None) != (args.b is None):
        raise ArgumentError("--a and --b must be given together")
    text = json.dumps({"predicate": args.predicate,
                       "inputs": {k: getattr(args, k) for k in reads
                                  if getattr(args, k) is not None},
                       "result": verdict(args), "formula": formula})
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0


def _run_verify(args, parser) -> int:
    res = Resolution(args.n_panels, args.nodes_per_panel, args.x_max)
    reports = run_identity_suite(res, args.seed, args.alpha, args.threads)
    if args.summary:
        write_summary_csv(args.summary, reports)
    return _emit_reports(args, reports, "identity suite",
                         f" (N={res.n_line}, seed={args.seed})")


def _run_sweep(args, parser) -> int:
    reads, run = SWEEPS[args.kind]
    _refuse_unread(args, parser, reads, required=())
    res = Resolution(args.n_panels, args.nodes_per_panel, args.x_max)
    return _emit_reports(args, run(args, res), f"sweep {args.kind}")


def _add_run_flags(sp):
    """Resolution, seed and thread flags of the experiment subcommands."""
    sp.add_argument("--n-panels", type=int, default=Resolution.n_side_panels,
                    help="Gauss panels per half axis (default %(default)s; 8 gives N=512)")
    sp.add_argument("--nodes-per-panel", type=int, default=Resolution.nodes_per_panel)
    sp.add_argument("--x-max", type=_finite, default=Resolution.x_max)
    sp.add_argument("--seed", type=int, default=7)
    # argparse types a string default too, so a bad environment value exits 2
    sp.add_argument("--threads", type=_positive_int,
                    default=os.environ.get("DUNKL_OSC_THREADS", "1"),
                    help="worker threads (default $DUNKL_OSC_THREADS, else 1)")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with their one-line message only (--help shows usage)."""
    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="dunkl-osc",
        description="Dunkl/Hankel transform calculus: transforms, partial sums, "
                    "oscillation/variation seminorms, maximal operators, weight "
                    "checkers, and verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=lambda args: handler(args, sp))
        return sp

    def input_command(name, handler, help_text):
        """A subcommand on a SampledFn read from --input, with an order and a t-grid."""
        sp = command(name, handler, help_text)
        sp.add_argument("--alpha", type=_finite, default=0.0)
        sp.add_argument("--input", required=True)
        sp.add_argument("--t-grid", type=_float_list, default=None,
                        help="comma separated thresholds")
        return sp

    sp = command("transform", _run_transform, "apply a transform to a SampledFn CSV")
    sp.add_argument("--kind", required=True, choices=tuple(TRANSFORMS))
    sp.add_argument("--alpha", type=_finite, default=0.0)
    sp.add_argument("--input", required=True)
    sp.add_argument("--freq-max", type=_finite, default=None)

    sp = command("partial-sum", _run_partial_sum, "sharp frequency cut S_t f")
    sp.add_argument("--kind", choices=tuple(PARTIAL_SUMS), default="dunkl")
    sp.add_argument("--alpha", type=_finite, default=0.0)
    sp.add_argument("--dimension", type=int, default=1)
    sp.add_argument("--t", type=_finite, required=True)
    sp.add_argument("--input", required=True)

    input_command("family", _run_family, "partial-sum family over a t-grid")
    sp = input_command("osc", _run_osc, "truncated oscillation seminorm of the family")
    sp.add_argument("--cuts", type=_float_list, default=None,
                    help="comma separated cut levels (subset of the t-grid; "
                         "default: the sup over every cut sequence)")

    sp = input_command("var", _run_var, "r-variation seminorm of the family")
    sp.add_argument("--r", type=_finite, default=2.0)
    sp = input_command("maximal", _run_maximal, "maximal operators")
    sp.add_argument("--operator", required=True, choices=tuple(MAXIMALS))

    sp = command("range", _run_range, "closed-form admissible-range predicates")
    sp.add_argument("--predicate", required=True, choices=tuple(RANGES))
    sp.add_argument("--p", type=_finite, required=True)
    sp.add_argument("--beta", type=_finite, default=0.0)
    sp.add_argument("--alpha", type=_finite, default=0.0)
    sp.add_argument("--gamma", type=_finite, default=0.0)
    sp.add_argument("--a", type=_finite, default=None)
    sp.add_argument("--b", type=_finite, default=None)

    sp = command("verify", _run_verify, "identity suite; exit 1 on failure")
    sp.add_argument("--suite", choices=("identities",), default="identities")
    sp.add_argument("--alpha", type=_order_list, default="-0.5,0,0.5,1",
                    help="comma separated orders")
    sp.add_argument("--summary", type=str, default=None, help="summary CSV path")
    _add_run_flags(sp)

    sp = command("sweep", _run_sweep, "norm-ratio sweeps and demos")
    sp.add_argument("--kind", required=True, choices=tuple(SWEEPS))
    sp.add_argument("--p", type=_finite, default=2.0)
    sp.add_argument("--beta", type=_finite, default=0.0)
    sp.add_argument("--alpha", type=_order_list, default="0",
                    help="comma separated orders")
    sp.add_argument("--dimension", type=int, default=3)
    sp.add_argument("--experimental", action="store_true",
                    help="attach the conjectural measure-adapted Muckenhoupt "
                         "verdict (no pass/fail semantics)")
    _add_run_flags(sp)

    for sp in sub.choices.values():
        sp.add_argument("--output", type=str, default=None)
        sp.add_argument("--config", type=str, default=None,
                        help="key=value file; explicit flags win")
    return ap


def _config_tokens(args) -> list[str]:
    """The config file's key=value lines as flag tokens, for the keys the
    parsed subcommand takes; a true store_true value is the bare flag."""
    tokens = []
    try:
        with open(args.config, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{args.config}: a config file must be UTF-8 text") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, val = (s.strip() for s in line.split("=", 1))
        dest = key.replace("-", "_")
        # command and handler are namespace entries, not flags
        if dest in ("command", "handler") or not hasattr(args, dest):
            continue
        flag = "--" + dest.replace("_", "-")
        if not isinstance(getattr(args, dest), bool):
            tokens.append(f"{flag}={val}")
        elif val.lower() in ("1", "true", "yes"):
            tokens.append(flag)
    return tokens


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Let value flags accept leading-dash lists, e.g. --alpha -0.5,0,1."""
    out = []
    for tok in argv:
        if (out and out[-1] in ("--alpha", "--beta", "--gamma", "--a", "--b", "--t-grid", "--cuts")
                and tok.startswith("-") and any(c.isdigit() for c in tok)):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    try:
        args = ap.parse_args(argv)
        if args.config:
            # config flags go right after the subcommand, so explicit ones win
            at = argv.index(args.command) + 1
            args = ap.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ArgumentError, DomainError, ResolutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except DunklOscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
