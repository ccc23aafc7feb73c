"""Command-line front end.

Subcommands: transform, partial-sum, family, osc, var, maximal, range,
verify, sweep.  Exit codes: 0 success, 1 numerical failure (identity suite
or acceptance-style failure), 2 argument or I/O error.  Floating-point
output is printed with 17 significant digits so reports reproduce
bit-for-bit.  A key=value config file can pre-populate any flag; explicit
flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import transforms
from .errors import ArgumentError, DomainError, DunklOscError, GateError, ResolutionError
from .funcspace import (FULL_LINE, HALF_LINE, read_sampled_fn, write_sampled_fn)
from .projections import (ThresholdSeq, build_family, dunkl_partial_sum,
                          family_to_csv, fourier_partial_sum, hankel_partial_sum,
                          radial_partial_sum)
from .seminorms import (CutSequence, carleson_dunkl_max, carleson_hankel_max,
                        max_oscillation, oscillation, variation)
from .classical_ops import (carleson_hunt, conjugate_hardy,
                            default_sup_grid, hardy_littlewood_max,
                            maximal_hilbert, prestini_majorant)
from .weights import (NormSpec, ap_alpha_check, ap_check, beta_star,
                      power_weight, range_dyadic_oscillation,
                      range_full_oscillation, transplant_range, w_ab_weight)
from .harness import (Resolution, bcv_lattice_weights,
                      dyadic_indicator_family, oscillation_ratio_sweep,
                      prestini_constant_sweep, run_identity_suite,
                      transference_demo, transplant_roundtrip_report,
                      weighted_carleson_sweep, write_reports_jsonl,
                      write_summary_csv)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _resolution_from(args) -> Resolution:
    return Resolution(args.n_panels, args.nodes_per_panel, args.x_max)


def _add_resolution_flags(sp):
    sp.add_argument("--n-panels", type=int, default=24,
                    help="Gauss panels per half axis (default 24; 8 gives the N=512 profile)")
    sp.add_argument("--nodes-per-panel", type=int, default=32)
    sp.add_argument("--x-max", type=float, default=3.0)


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--threads", type=int,
                    default=int(os.environ.get("DUNKL_OSC_THREADS", "1")))
    sp.add_argument("--output", type=str, default=None)
    sp.add_argument("--config", type=str, default=None,
                    help="key=value file; explicit flags win")


def _parse_t_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _t_grid_for(args, f) -> ThresholdSeq:
    """Thresholds from the flag, or 2^{k/8} across the band of the input
    grid's default frequency grid (harness.default_t_grid on a profile)."""
    if args.t_grid:
        return ThresholdSeq(np.array(sorted(_parse_t_list(args.t_grid))))
    return ThresholdSeq.octave_eighths(transforms.frequency_grid(f.grid).hi)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dunkl-osc",
        description="Dunkl/Hankel transform calculus: transforms, partial sums, "
                    "oscillation/variation seminorms, maximal operators, weight "
                    "checkers, and verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("transform", help="apply a transform to a SampledFn CSV")
    sp.add_argument("--kind", required=True,
                    choices=("fourier", "hankel", "hankel-modified", "dunkl",
                             "dunkl-inverse", "dunkl-modified"))
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--input", required=True)
    sp.add_argument("--freq-max", type=float, default=None)
    _add_resolution_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("partial-sum", help="sharp frequency cut S_t f")
    sp.add_argument("--kind", choices=("dunkl", "hankel", "fourier", "radial"),
                    default="dunkl")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--dimension", type=int, default=1)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--input", required=True)
    _add_resolution_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("family", help="partial-sum family over a t-grid")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--input", required=True)
    sp.add_argument("--t-grid", type=str, default=None,
                    help="comma separated thresholds (default: geometric + dyadic)")
    _add_resolution_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("osc", help="truncated oscillation seminorm of the family")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--input", required=True)
    sp.add_argument("--t-grid", type=str, default=None)
    sp.add_argument("--cuts", type=str, default=None,
                    help="comma separated cut levels (subset of the t-grid; "
                         "default: the sup over every cut sequence)")
    _add_resolution_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("var", help="r-variation seminorm of the family")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--r", type=float, default=2.0)
    sp.add_argument("--input", required=True)
    sp.add_argument("--t-grid", type=str, default=None)
    _add_resolution_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("maximal", help="maximal operators")
    sp.add_argument("--operator", required=True,
                    choices=("hardy-littlewood", "conjugate-hardy",
                             "maximal-hilbert", "carleson-hunt",
                             "prestini-majorant", "carleson-dunkl",
                             "carleson-hankel"))
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--input", required=True)
    sp.add_argument("--t-grid", type=str, default=None)
    _add_resolution_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("range", help="closed-form admissible-range predicates")
    sp.add_argument("--predicate", required=True,
                    choices=("full", "dyadic", "transplant", "ap", "ap-alpha",
                             "beta-star"))
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--gamma", type=float, default=0.0)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    _add_common(sp)

    sp = sub.add_parser("verify", help="identity suite; exit 1 on failure")
    sp.add_argument("--suite", choices=("identities",), default="identities")
    sp.add_argument("--alpha", type=str, default="-0.5,0,0.5,1",
                    help="comma separated orders")
    sp.add_argument("--summary", type=str, default=None, help="summary CSV path")
    _add_resolution_flags(sp)
    _add_common(sp)

    sp = sub.add_parser("sweep", help="norm-ratio sweeps and demos")
    sp.add_argument("--kind", required=True,
                    choices=("oscillation", "oscillation-dyadic", "prestini",
                             "transference", "weighted-carleson",
                             "transplant-roundtrip"))
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--alpha", type=str, default="0",
                    help="comma separated orders")
    sp.add_argument("--dimension", type=int, default=3)
    sp.add_argument("--experimental", action="store_true",
                    help="attach the conjectural measure-adapted Muckenhoupt "
                         "verdict (no pass/fail semantics)")
    _add_resolution_flags(sp)
    _add_common(sp)

    return ap


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = ap.parse_args(argv)
    if getattr(args, "config", None):
        overrides = {}
        with open(args.config) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or "=" not in line:
                    continue
                key, val = line.split("=", 1)
                overrides[key.strip().replace("-", "_")] = val.strip()
        explicit = set()
        for tok in argv:
            if tok.startswith("--"):
                explicit.add(tok[2:].split("=")[0].replace("-", "_"))
        for key, val in overrides.items():
            if key in explicit or not hasattr(args, key):
                continue
            cur = getattr(args, key)
            cast = type(cur) if cur is not None else str
            if cast is bool:
                setattr(args, key, val.lower() in ("1", "true", "yes"))
            else:
                setattr(args, key, cast(val))
    return args


def _load(args, want=None):
    f = read_sampled_fn(args.input)
    if want and f.domain_tag != want:
        raise ArgumentError(f"{args.input}: expected a {want} function")
    return f


def _emit_fn(args, f, note: str) -> None:
    out = args.output or "out.csv"
    write_sampled_fn(out, f)
    print(f"{note} -> {out} ({f.grid.n} nodes, max|v|={_fmt(float(np.max(np.abs(f.values))))})")


def _freq_for(args, f):
    return transforms.frequency_grid(f.grid, freq_max=getattr(args, "freq_max", None))


def _run(args) -> int:
    cmd = args.command
    if cmd == "transform":
        kind = args.kind
        if kind in ("hankel", "hankel-modified"):
            f = _load(args, HALF_LINE)
        else:
            f = _load(args, FULL_LINE)
        freq = _freq_for(args, f)
        if kind == "fourier":
            out = transforms.fourier(f, freq)
        elif kind == "hankel":
            out = transforms.hankel(args.alpha, f, freq.positive_half())
        elif kind == "hankel-modified":
            out = transforms.hankel_modified(args.alpha, f, freq.positive_half())
        elif kind == "dunkl":
            out = transforms.dunkl(args.alpha, f, freq)
        elif kind == "dunkl-inverse":
            out = transforms.dunkl_inverse(args.alpha, f, freq)
        else:
            out = transforms.dunkl_modified(args.alpha, f, freq)
        _emit_fn(args, out, f"{kind}(alpha={args.alpha:g})")
        return 0

    if cmd == "partial-sum":
        if args.kind in ("hankel", "radial"):
            f = _load(args, HALF_LINE)
        else:
            f = _load(args, FULL_LINE)
        if args.kind == "dunkl":
            out = dunkl_partial_sum(args.alpha, f, args.t)
        elif args.kind == "fourier":
            out = fourier_partial_sum(f, args.t)
        elif args.kind == "hankel":
            out = hankel_partial_sum(args.alpha, f, args.t)
        else:
            out = radial_partial_sum(args.dimension, f, args.t)
        _emit_fn(args, out, f"S_t ({args.kind}, t={args.t:g})")
        return 0

    if cmd == "family":
        f = _load(args)
        t_grid = _t_grid_for(args, f)
        fam = build_family(args.alpha, f, t_grid)
        out = args.output or "family.csv"
        family_to_csv(out, fam)
        print(f"family alpha={args.alpha:g} with {len(t_grid)} thresholds -> {out}")
        return 0

    if cmd in ("osc", "var"):
        f = _load(args)
        t_grid = _t_grid_for(args, f)
        fam = build_family(args.alpha, f, t_grid)
        if cmd == "var":
            out = variation(fam, args.r)
            note = f"V^{args.r:g}"
        elif args.cuts:
            cuts_vals = sorted(_parse_t_list(args.cuts))
            cuts = CutSequence(ThresholdSeq(np.array(cuts_vals)), len(cuts_vals) - 1)
            out = oscillation(fam, cuts)
            note = f"oscillation (J={len(cuts_vals)-1})"
        else:
            out = max_oscillation(fam)
            note = "oscillation sup over all cut sequences"
        _emit_fn(args, out, note)
        return 0

    if cmd == "maximal":
        f = _load(args)
        op = args.operator
        if op in ("carleson-dunkl", "carleson-hankel"):
            t_grid = _t_grid_for(args, f)
            if op == "carleson-dunkl":
                out = carleson_dunkl_max(args.alpha, f, t_grid)
            else:
                out = carleson_hankel_max(args.alpha, f, t_grid)
        else:
            t_vals = _parse_t_list(args.t_grid) if args.t_grid else None
            sup = default_sup_grid(f.grid, t_vals)
            if op == "hardy-littlewood":
                out = hardy_littlewood_max(f, sup)
            elif op == "conjugate-hardy":
                out = conjugate_hardy(f)
            elif op == "maximal-hilbert":
                out = maximal_hilbert(f, sup)
            elif op == "carleson-hunt":
                out = carleson_hunt(f, sup)
            else:
                out = prestini_majorant(args.alpha, f, sup)
        _emit_fn(args, out, op)
        return 0

    if cmd == "range":
        pred = args.predicate
        if pred == "full":
            result = range_full_oscillation(args.p, args.beta, args.alpha)
            formula = "-1 < beta + (alpha+1/2)(2-p) < p/2 - 1 (beta=0 allowed at p=2)"
        elif pred == "dyadic":
            result = range_dyadic_oscillation(args.p, args.beta, args.alpha)
            formula = "-1 < beta + (alpha+1/2)(2-p) < p - 1"
        elif pred == "transplant":
            result = transplant_range(args.p, args.beta, args.alpha, args.gamma)
            formula = ("-1 - p min(alpha+1/2, gamma+1/2) < beta "
                       "< -1 + p min(alpha+3/2, gamma+3/2)")
        elif pred == "beta-star":
            result = beta_star(args.beta, args.alpha, args.p)
            formula = "beta* = beta - (alpha+1/2)(2-p)"
        else:
            weight = (w_ab_weight(args.a, args.b) if args.a is not None
                      else power_weight(args.beta))
            if pred == "ap":
                member, sup_est = ap_check(weight, args.p)
                result = bool(member)
                formula = "sup_B (avg_B w)(avg_B w^{-p'/p})^{p/p'} stable"
            else:
                result = bool(ap_alpha_check(weight, args.p, args.alpha))
                formula = "w |x|^{2a+1-p(a+1/2)} in A_p"
        verdict = {"predicate": pred,
                   "inputs": {k: getattr(args, k) for k in
                              ("p", "beta", "alpha", "gamma", "a", "b")
                              if getattr(args, k, None) is not None},
                   "result": result, "formula": formula}
        text = json.dumps(verdict)
        print(text)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        return 0

    if cmd == "verify":
        res = _resolution_from(args)
        alphas = _parse_t_list(args.alpha.replace(" ", ""))
        reports = run_identity_suite(res, args.seed, alphas, args.threads)
        out = args.output or "reports.jsonl"
        write_reports_jsonl(out, reports)
        if args.summary:
            write_summary_csv(args.summary, reports)
        n_fail = sum(1 for r in reports if not r.passed)
        print(f"identity suite: {len(reports) - n_fail}/{len(reports)} passed "
              f"(N={res.n_line}, seed={args.seed}) -> {out}")
        return 1 if n_fail else 0

    if cmd == "sweep":
        res = _resolution_from(args)
        alphas = _parse_t_list(args.alpha.replace(" ", ""))
        if args.kind in ("oscillation", "oscillation-dyadic"):
            specs = [NormSpec(args.p, args.beta, a) for a in alphas]
            reports = oscillation_ratio_sweep(
                specs, args.seed, res, dyadic_only=args.kind.endswith("dyadic"),
                threads=args.threads)
        elif args.kind == "prestini":
            reports = prestini_constant_sweep(
                alphas, [res, res.refined()], args.seed, args.threads)
        elif args.kind == "transference":
            # the dyadic partition must cover every frequency node, including
            # the refined grid's, so the orthogonal decompositions telescope
            lo_node = float(res.refined().half_freq_grid().points[0])
            k_min = int(np.floor(np.log2(lo_node)))
            k_max = int(np.ceil(np.log2(res.refined().freq_max())))
            fam = dyadic_indicator_family(k_min, k_max)
            reports = [transference_demo(fam, NormSpec(args.p, args.beta, -0.5),
                                         args.dimension, res, args.seed)]
        elif args.kind == "transplant-roundtrip":
            reports = [transplant_roundtrip_report([(-0.5, 0.5), (0.0, 1.0)], args.seed)]
        else:
            reports = weighted_carleson_sweep(
                bcv_lattice_weights(), args.p, alphas[0], res, args.seed,
                experimental=args.experimental, threads=args.threads)
        out = args.output or "reports.jsonl"
        write_reports_jsonl(out, reports)
        n_fail = sum(1 for r in reports if not r.passed)
        print(f"sweep {args.kind}: {len(reports) - n_fail}/{len(reports)} passed -> {out}")
        return 1 if n_fail else 0

    raise ArgumentError(f"unknown command {cmd!r}")


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Let value flags accept leading-dash lists, e.g. --alpha -0.5,0,1."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--alpha", "--beta", "--gamma", "--a", "--b", "--t-grid", "--cuts")
                and i + 1 < len(argv) and argv[i + 1].startswith("-")
                and any(c.isdigit() for c in argv[i + 1])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = _apply_config(ap, _merge_negative_values(
            list(sys.argv[1:] if argv is None else argv)))
        return _run(args)
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
