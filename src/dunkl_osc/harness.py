"""Experiment orchestration: the identity suite, norm-ratio sweeps,
refinement-stability studies, and structured reports.

Every experiment is a pure function of (seed, resolution, inputs) and its
report reproduces bit-for-bit; with threads > 1 the independent experiment
units are mapped over a thread pool and merged in input order, so the
thread count never changes any numeric output.  Ratio sweeps refuse to run
when the identity gate fails at the chosen resolution; corpus members whose
spectra exceed a coarse grid's resolvable band are excluded by the gate
member-by-member and recorded in the report.

The identity suite is one table, IDENTITIES: name -> (residual, corpus,
tolerance), where residual(alpha, f, space, freq) takes the corpus as one
(B, N) SampledFn stack and returns the identity's residual at order alpha
per member, a (B,) vector, and corpus names the member list.  A suite unit
is one (name, order) entry; the member gate calls the same Plancherel and
inversion residuals on its corpus stack, from one spectrum per order.

All ratio figures are empirical lower bounds of the operator norms; no
upper bound is ever claimed.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, GateError
from . import transforms
from .funcspace import (FULL_LINE, HALF_LINE, CorpusMember, Grid, SampledFn,
                        _combine, assemble_values, away_from_zero_corpus, bump,
                        default_corpus, even_odd_split, half_line_corpus,
                        make_graded_grid, moment_cancelled_corpus, sample,
                        smooth_corpus)
from .projections import ThresholdSeq, _cut_rows, build_family
from .seminorms import max_oscillation
from .classical_ops import default_sup_grid, prestini_majorant
from .weights import (NormSpec, Weight, beta_star, conjectured_measure_ap_check,
                      range_dyadic_oscillation, range_full_oscillation,
                      w_ab_weight, weighted_lp_norm)


# ---------------------------------------------------------------------------
# resolution profiles

@dataclass(frozen=True)
class Resolution:
    """Grid profile: n_side_panels Gauss panels of nodes_per_panel points on
    each side of the origin over [-x_max, x_max]; the frequency grids mirror
    the node budget and span 98% of the oscillatory resolution guard."""

    n_side_panels: int = 24
    nodes_per_panel: int = 32
    x_max: float = 3.0

    @property
    def n_line(self) -> int:
        return 2 * self.n_side_panels * self.nodes_per_panel

    def refined(self, factor: int = 2) -> "Resolution":
        return Resolution(self.n_side_panels * factor, self.nodes_per_panel, self.x_max)

    def describe(self) -> dict:
        return {"n_line": self.n_line, "panels_per_side": self.n_side_panels,
                "nodes_per_panel": self.nodes_per_panel, "x_max": self.x_max,
                "freq_max": round(self.freq_max(), 6)}

    @lru_cache(maxsize=32)
    def space_grid(self) -> Grid:
        return make_graded_grid(-self.x_max, self.x_max, self.n_side_panels,
                                self.nodes_per_panel, 1.0)

    def half_grid(self) -> Grid:
        return self.space_grid().positive_half()

    @lru_cache(maxsize=32)
    def freq_grid(self) -> Grid:
        return transforms.frequency_grid(self.space_grid(), nodes_per_panel=self.nodes_per_panel)

    def half_freq_grid(self) -> Grid:
        return self.freq_grid().positive_half()

    def freq_max(self) -> float:
        return float(self.freq_grid().hi)


def default_resolution() -> Resolution:
    return Resolution(24, 32, 3.0)


def resolution_n512() -> Resolution:
    return Resolution(8, 32, 3.0)


def resolution_n1024() -> Resolution:
    return Resolution(16, 32, 3.0)


def default_t_grid(res: Resolution) -> ThresholdSeq:
    """ThresholdSeq.octave_eighths over the profile's frequency band."""
    return ThresholdSeq.octave_eighths(res.freq_max())


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ExperimentReport:
    name: str
    inputs: dict
    residuals_or_ratios: list
    tolerance: float
    passed: bool
    runtime_ms: int
    resolution: dict
    seed: int

    def max_value(self) -> float:
        vals = [v for (_, v) in self.residuals_or_ratios if np.isfinite(v)]
        return max(vals) if vals else 0.0

    def to_json(self) -> str:
        """One line of strict JSON: non-finite numbers are written as null."""
        text = json.dumps({
            "name": self.name, "inputs": self.inputs,
            "residuals_or_ratios": [[k, v] for (k, v) in self.residuals_or_ratios],
            "tolerance": self.tolerance, "passed": self.passed,
            "runtime_ms": self.runtime_ms, "resolution": self.resolution,
            "seed": self.seed}, sort_keys=True)
        # NaN and +-Infinity parse to None; finite floats round-trip exactly
        return json.dumps(json.loads(text, parse_constant=lambda _: None), sort_keys=True,
                          allow_nan=False)


def write_reports_jsonl(path, reports: Sequence[ExperimentReport]) -> None:
    with open(path, "w") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")


def write_summary_csv(path, reports: Sequence[ExperimentReport]) -> None:
    with open(path, "w") as fh:
        fh.write("name,passed,max_residual_or_ratio,runtime_ms\n")
        for r in reports:
            fh.write(f"{r.name},{str(r.passed).lower()},{r.max_value():.17g},{r.runtime_ms}\n")


def _map_ordered(fn: Callable, items: Sequence, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _l2(vals: np.ndarray, grid: Grid, alpha: float):
    """The L^2(|x|^{2 alpha + 1} dx) norm along the last axis."""
    meas = grid.weights * np.abs(grid.points) ** (2.0 * alpha + 1.0)
    return np.sqrt(np.sum(meas * np.abs(vals) ** 2, axis=-1))


def _finish(name, inputs, pairs, tol, res, seed, t0, passed=None) -> ExperimentReport:
    if passed is None:
        passed = all(v <= tol for (_, v) in pairs)
    return ExperimentReport(name, inputs, pairs, tol, bool(passed),
                            int(1000 * (time.perf_counter() - t0)), res.describe(), seed)


# ---------------------------------------------------------------------------
# identity suite

PROJECTION_TS = (0.5, 1.0, 2.0, 4.0)


def _stack(members: list[CorpusMember]) -> SampledFn:
    """The members' samples, all on one grid, as one (B, N) SampledFn."""
    return members[0].sampled.with_values(np.stack([m.sampled.values for m in members]))


def _max_gap(a: np.ndarray, b: np.ndarray, f: SampledFn) -> np.ndarray:
    """max |a - b| per function of the stack f, over every trailing axis."""
    return np.abs(a - b).reshape(f.values.shape[:-1] + (-1,)).max(axis=-1)


def _over_norm(num, nf, zero: float):
    """num / nf per member, reading zero where the member's norm nf is 0."""
    return np.divide(num, nf, out=np.full_like(nf, zero), where=nf != 0.0)


def _plancherel(alpha, f, space, freq, spec=None):
    """spec is f's Dunkl spectrum on freq when the caller already has it."""
    spec = transforms.dunkl(alpha, f, freq) if spec is None else spec
    return abs(_over_norm(_l2(spec.values, freq, alpha), _l2(f.values, space, alpha), 1.0) - 1.0)


def _inversion(alpha, f, space, freq, spec=None):
    spec = transforms.dunkl(alpha, f, freq) if spec is None else spec
    back = transforms.dunkl_inverse(alpha, spec, space)
    return _over_norm(_l2(back.values - f.values, space, alpha), _l2(f.values, space, alpha), 0.0)


def _fourier_reduction(alpha, f, space, freq):
    return _max_gap(transforms.dunkl(alpha, f, freq).values,
                    transforms.fourier(f, freq).values, f)


def _two_route(alpha, f, space, freq):
    return _max_gap(transforms.dunkl(alpha, f, freq, route="decomposition").values,
                    transforms.dunkl(alpha, f, freq, route="direct").values, f)


def _conjugation(alpha, f, space, freq):
    lifted = f.with_values(f.values * np.abs(space.points) ** (alpha + 0.5))
    mid = transforms.dunkl_modified(alpha, lifted, freq)
    return _max_gap(transforms.dunkl(alpha, f, freq).values,
                    mid.values * np.abs(freq.points) ** (-(alpha + 0.5)), f)


def _modified_plancherel(alpha, f, space, freq):
    # the flat-measure transform needs profiles vanishing at the origin
    # (the kernel's (xy)^{1/2} factor kinks the spectrum otherwise)
    spec = transforms.dunkl_modified(alpha, f, freq)
    return abs(_l2(spec.values, freq, -0.5) / _l2(f.values, space, -0.5) - 1.0)


def _projection_algebra(alpha, f, space, freq):
    """S_t S_s f against S_min(s,t) f, both sides rows of one cut call."""
    pairs = [(s, t) for s in PROJECTION_TS for t in PROJECTION_TS]
    rows = _cut_rows(alpha, f, [[t, s] for s, t in pairs] + [[min(s, t)] for s, t in pairs],
                     freq, "dunkl")
    return _max_gap(rows[..., :len(pairs), :], rows[..., len(pairs):, :], f)


def _partial_sum_decomposition(alpha, f, space, freq):
    half_freq = freq.positive_half()
    fe, fo = even_odd_split(f)
    foy = fo.with_values(fo.values / fo.grid.points)
    cuts = [[t] for t in PROJECTION_TS]
    rec = assemble_values(_cut_rows(alpha, fe, cuts, half_freq, "hankel"),
                          fe.grid.points * _cut_rows(alpha + 1.0, foy, cuts, half_freq, "hankel"))
    return _max_gap(_cut_rows(alpha, f, cuts, freq, "dunkl"), rec, f)


def _transplant_identity(alpha, f, space, freq):
    out = transforms.transplant_dunkl(alpha, alpha, f, freq)
    return _l2(out.values - f.values, space, -0.5) / _l2(f.values, space, -0.5)


# name -> (residual, corpus, tolerance).  Corpora: "default" (twelve smooth
# members), "default+zero" (plus the zero function), "head" (the first four
# members; these identities sweep PROJECTION_TS and report it) and "away"
# (members supported away from the origin).
IDENTITIES = {
    "plancherel": (_plancherel, "default+zero", 1e-6),
    "inversion": (_inversion, "default+zero", 1e-6),
    "dunkl-two-route": (_two_route, "default", 1e-9),
    "conjugation": (_conjugation, "away", 1e-8),
    "modified-plancherel": (_modified_plancherel, "away", 1e-6),
    "fourier-reduction": (_fourier_reduction, "default", 1e-9),
    "projection-algebra": (_projection_algebra, "head", 1e-8),
    "partial-sum-decomposition": (_partial_sum_decomposition, "head", 1e-8),
    "transplant-identity": (_transplant_identity, "away", 1e-6),
}
_PER_ORDER = ("plancherel", "inversion", "dunkl-two-route", "conjugation",
              "modified-plancherel")
_FIXED_ORDER = ("projection-algebra", "partial-sum-decomposition", "transplant-identity")


def run_identity_suite(resolution: Resolution | None = None, seed: int = 7,
                       alphas: Sequence[float] = (-0.5, 0.0, 0.5, 1.0),
                       threads: int = 1) -> list[ExperimentReport]:
    """One report per identity per order: Plancherel, inversion, the Fourier
    reduction at order -1/2, the two-route transform agreement, the
    multiplication-operator conjugation, the projection algebra, the
    partial-sum parity decomposition, and the transplant identity.  The
    IDENTITIES entries in _PER_ORDER run at every requested order, the
    Fourier reduction at -1/2 and the _FIXED_ORDER entries at -1/2, 0 and 1.
    Failures are reported, never raised."""
    res = resolution or default_resolution()
    space, freq = res.space_grid(), res.freq_grid()
    default = default_corpus(space, seed)
    zero = lambda x: np.zeros_like(np.asarray(x, float))
    corpora = {"default": default, "head": default[:4],
               "default+zero": default + [CorpusMember("zero", zero, sample(zero, space))],
               "away": away_from_zero_corpus(space, seed)}
    stacks = {name: _stack(members) for name, members in corpora.items()}

    def unit(name_alpha) -> ExperimentReport:
        name, alpha = name_alpha
        residual, corpus, tol = IDENTITIES[name]
        t0 = time.perf_counter()
        values = residual(alpha, stacks[corpus], space, freq)
        pairs = [(m.label, float(v)) for m, v in zip(corpora[corpus], values)]
        inputs = {"alpha": alpha, "ts": PROJECTION_TS} if corpus == "head" else {"alpha": alpha}
        return _finish(name, inputs, pairs, tol, res, seed, t0)

    units = ([(name, a) for a in alphas for name in _PER_ORDER]
             + [("fourier-reduction", -0.5)]
             + [(name, a) for a in (-0.5, 0.0, 1.0) for name in _FIXED_ORDER])
    return _map_ordered(unit, units, threads)


# ---------------------------------------------------------------------------
# member gate for coarse-resolution sweeps

def _gate_members(members: list[CorpusMember], alphas: Sequence[float],
                  res: Resolution, tol: float = 1e-6):
    """Keep the nonzero members whose Plancherel and inversion residuals (from
    one Dunkl spectrum of the member stack per order) meet the tolerance at
    every requested order.  The excluded labels are reported; a sweep with
    fewer than two survivors refuses to run."""
    space, freq = res.space_grid(), res.freq_grid()
    stack = _stack(members)
    ok = np.ones(len(members), dtype=bool)
    for a in alphas:
        spec = transforms.dunkl(a, stack, freq)
        ok &= ((_l2(stack.values, space, a) != 0.0)
               & (_plancherel(a, stack, space, freq, spec) <= tol)
               & (_inversion(a, stack, space, freq, spec) <= tol))
    keep = [m for m, k in zip(members, ok) if k]
    if len(keep) < 2:
        raise GateError("identity gate at this resolution left fewer than two "
                        "corpus members; refusing to sweep")
    return keep, [m.label for m, k in zip(members, ok) if not k]


# ---------------------------------------------------------------------------
# oscillation ratio sweep

def _sweep_corpus(space: Grid, seed: int) -> list[CorpusMember]:
    members = smooth_corpus(space, seed)
    for c, r in [(0.0, 2.0), (0.3, 2.2)]:
        members.append(_combine(f"bump(c={c:g},r={r:g})", [(1.0, bump(c, r))],
                                space, FULL_LINE))
    return members


def _resampled(members: list[CorpusMember], grid: Grid) -> list[CorpusMember]:
    """The members sampled afresh on another full-line grid."""
    return [CorpusMember(m.label, m.fn, sample(m.fn, grid, FULL_LINE)) for m in members]


def _osc_of(member: CorpusMember, spec: NormSpec, t_grid: ThresholdSeq,
            freq: Grid) -> SampledFn:
    return max_oscillation(build_family(spec.alpha, member.sampled, t_grid, freq))


def _norm_ratio(num: SampledFn, den: SampledFn, spec: NormSpec,
                window: float | None = None) -> float:
    """||num|| / ||den||, both cut to |x| <= window when one is given."""
    def norm(f):
        if window is not None:
            f = f.with_values(np.where(np.abs(f.grid.points) <= window, f.values, 0.0))
        return weighted_lp_norm(f, spec)
    return norm(num) / norm(den)


def oscillation_ratio_sweep(spec_list: Sequence[NormSpec], seed: int = 7,
                            resolution: Resolution | None = None,
                            dyadic_only: bool = False,
                            threads: int = 1) -> list[ExperimentReport]:
    """Per spec: the max corpus ratio ||O f|| / ||f||, where O f is the
    oscillation sup over every cut sequence from the t-grid, its
    dilation-invariance deviation over lambda in {1/2, 2}, and its
    refinement stability (factor 2 against the doubled resolution).  All
    ratios are empirical lower bounds of the operator norm."""
    res = resolution or resolution_n512()
    fine = res.refined()

    def one_spec(spec: NormSpec) -> ExperimentReport:
        t0 = time.perf_counter()
        space, freq = res.space_grid(), res.freq_grid()
        members, dropped = _gate_members(_sweep_corpus(space, seed), [spec.alpha], res)
        if dyadic_only:
            f = res.freq_max()
            t_grid = ThresholdSeq.dyadic(-4, int(np.floor(np.log2(0.45 * f))))
            in_range = range_dyadic_oscillation(spec.p, spec.beta, spec.alpha)
        else:
            t_grid = default_t_grid(res)
            in_range = (spec.p >= 2.0 and
                        range_full_oscillation(spec.p, spec.beta, spec.alpha))
        oscs = [_osc_of(m, spec, t_grid, freq) for m in members]
        ratios = {m.label: _norm_ratio(o, m.sampled, spec)
                  for m, o in zip(members, oscs)}
        base = max(ratios.values())
        # dilation covariance S_t f_lam = (S_{t/lam} f)(lam .): the dilated
        # run scales the cut grid and the frequency grid together (so every
        # cut mask keeps the same node indices), samples f(lam x) on the
        # panel sub-grid the dilation maps onto, and compares ratios over
        # matched norm windows (|x| <= W against |x| <= lam W, so both sides
        # see the same mass, power tails included).
        dev = 0.0
        xw = res.x_max
        for lam in (0.5, 2.0):
            t_lam = ThresholdSeq(t_grid.values * lam)
            w_dil = min(xw, xw / lam)
            w_base = lam * w_dil
            space_d = space.window(w_dil)
            freq_d = freq.window(res.freq_max() / max(lam, 1.0)).scaled(lam)
            for m, osc in zip(members, oscs):
                dil = m.dilated(lam, space_d)
                v = np.abs(dil.sampled.values)
                if max(v[0], v[-1]) > 1e-7 * np.max(v):
                    continue  # dilation leaves the grid; not comparable
                r_b = _norm_ratio(osc, m.sampled, spec, w_base)
                if not r_b > 0.0:
                    continue
                r_l = _norm_ratio(_osc_of(dil, spec, t_lam, freq_d),
                                  dil.sampled, spec)
                dev = max(dev, abs(r_l / r_b - 1.0))
        # refinement stability at doubled resolution (same t-grid)
        base2 = max(_norm_ratio(_osc_of(m, spec, t_grid, fine.freq_grid()), m.sampled, spec)
                    for m in _resampled(members, fine.space_grid()))
        stable = 0.5 <= base2 / base <= 2.0
        pairs = ([(k, v) for k, v in ratios.items()]
                 + [("max-ratio (empirical lower bound)", base),
                    ("refined-ratio", base2), ("dilation-deviation", dev)])
        passed = stable and dev <= 0.01
        return _finish("oscillation-ratio" + ("-dyadic" if dyadic_only else ""),
                       {"p": spec.p, "beta": spec.beta, "alpha": spec.alpha,
                        "in_range": in_range, "excluded_members": dropped},
                       pairs, float("inf"), res, seed, t0, passed=passed)

    return _map_ordered(one_spec, list(spec_list), threads)


# ---------------------------------------------------------------------------
# Prestini majorant constant sweep

def prestini_constant_sweep(alphas: Sequence[float],
                            resolutions: Sequence[Resolution] | None = None,
                            seed: int = 7, threads: int = 1) -> list[ExperimentReport]:
    """Empirical majorant constant: max over corpus, cuts and nodes of
    |S~_t f(x)| / majorant(x), reported across a resolution ladder; passed
    means every consecutive pair stays within a factor 2."""
    ladder = list(resolutions or (resolution_n512(), resolution_n1024()))

    def one_alpha(alpha: float) -> ExperimentReport:
        t0 = time.perf_counter()
        pairs = []
        consts = []
        for res in ladder:
            half = res.half_grid()
            half_freq = res.half_freq_grid()
            k_hi = int(np.floor(np.log2(0.9 * res.freq_max())))
            t_grid = ThresholdSeq.dyadic(-4, k_hi)
            sup = default_sup_grid(half, t_grid.values)
            members = half_line_corpus(half, seed)
            zero_v = sample(lambda x: np.zeros_like(np.asarray(x, float)), half, HALF_LINE)
            kept = []
            for m in members + [CorpusMember("zero", lambda x: 0 * np.asarray(x), zero_v)]:
                if np.all(m.sampled.values == 0.0):
                    pairs.append((f"{m.label}@{res.n_line} skipped (zero)", 0.0))
                else:
                    kept.append(m)
            majs = prestini_majorant(alpha, _stack(kept), sup).values.real
            best = 0.0
            for m, maj in zip(kept, majs):
                fam = build_family(alpha, m.sampled, t_grid, half_freq, kind="hankel")
                best = max(best, float(np.max(np.max(np.abs(fam.values), axis=0) / maj)))
            consts.append(best)
            pairs.append((f"C(alpha={alpha:g}, N={res.n_line})", best))
        stable = all(0.5 <= consts[i + 1] / consts[i] <= 2.0 for i in range(len(consts) - 1))
        return _finish("prestini-constant", {"alpha": alpha,
                                             "ladder": [r.n_line for r in ladder]},
                       pairs, float("inf"), ladder[0], seed, t0, passed=stable)

    return _map_ordered(one_alpha, list(alphas), threads)


# ---------------------------------------------------------------------------
# multiplier transference

@dataclass(frozen=True)
class MultiplierFamily:
    """Finite family of even multipliers m_k, each given as an evaluator of
    |xi| and bounded by 1 in absolute value."""

    labels: list
    evaluators: list = field(repr=False, default_factory=list)

    def __post_init__(self):
        if len(self.labels) != len(self.evaluators) or not self.labels:
            raise ArgumentError("labels and evaluators must pair up (nonempty)")

    def __len__(self):
        return len(self.labels)

    def evaluate(self, k: int, xi_abs: np.ndarray) -> np.ndarray:
        m = np.asarray(self.evaluators[k](xi_abs), dtype=float)
        if np.max(np.abs(m)) > 1.0 + 1e-12:
            raise ArgumentError(f"multiplier {self.labels[k]!r} exceeds the unit bound")
        return m


def dyadic_indicator_family(k_min: int, k_max: int) -> MultiplierFamily:
    return interval_indicator_family([(2.0 ** k, 2.0 ** (k + 1)) for k in range(k_min, k_max + 1)])


def interval_indicator_family(intervals: Sequence[tuple]) -> MultiplierFamily:
    labels, evals = [], []
    for lo, hi in intervals:
        if not 0.0 <= lo < hi:
            raise ArgumentError("indicator intervals must satisfy 0 <= lo < hi")
        labels.append(f"1_[{lo:g},{hi:g})")
        evals.append(lambda u, lo=lo, hi=hi: ((u >= lo) & (u < hi)).astype(float))
    return MultiplierFamily(labels, evals)


def _square_function(mult: np.ndarray, spec: SampledFn,
                     inverse: Callable[[SampledFn], SampledFn]) -> np.ndarray:
    """(sum_k |inverse(m_k spec)|^2)^{1/2} for the (K, F) multiplier rows
    mult: every member's K multiplied spectra are inverted as one stack."""
    back = inverse(spec.with_values(spec.values[..., None, :] * mult))
    return np.sqrt(np.sum(np.abs(back.values) ** 2, axis=-2))


def transference_demo(family: MultiplierFamily, spec: NormSpec, dimension: int,
                      resolution: Resolution | None = None, seed: int = 7) -> ExperimentReport:
    """Vector-valued square-function ratios: the 1D Fourier side in
    L^p(|x|^beta dx) against the Hankel side at order (n-2)/2 in the
    beta*-shifted radial weight.  At p = 2 with a disjoint-indicator
    partition both are exactly the orthogonal-decomposition norm."""
    if not -1.0 < spec.beta < spec.p - 1.0:
        raise ArgumentError("transference needs -1 < beta < p - 1")
    if dimension < 1:
        raise ArgumentError("dimension must be >= 1")
    res = resolution or resolution_n512()
    t0 = time.perf_counter()
    alpha = (dimension - 2) / 2.0
    bstar = beta_star(spec.beta, alpha, spec.p)
    fr_spec = NormSpec(spec.p, spec.beta, -0.5)      # measure |x|^beta
    hk_spec = NormSpec(spec.p, bstar, alpha)         # measure x^{beta*+2a+1}

    def ratios(res_: Resolution, parseval: bool = False):
        """Labels, then per side (Fourier, Hankel) the members' square-function
        norm ratios and, with parseval, their orthogonal-decomposition norm
        ratios from the same spectra.  At p = 2 the two coincide; the spectral
        side is exact, while a sharp band piece has 1/x tails in space."""
        space, freq = res_.space_grid(), res_.freq_grid()
        half, half_freq = res_.half_grid(), res_.half_freq_grid()
        members = smooth_corpus(space, seed)[:4]
        full = _stack(members)
        prof = SampledFn(half, np.stack([m.fn(half.points) for m in members]), HALF_LINE)
        sides = ((full, fr_spec, transforms.fourier(full, freq), np.abs(freq.points),
                  freq.weights, lambda g: transforms.fourier_inverse(g, space)),
                 (prof, hk_spec, transforms.hankel(alpha, prof, half_freq), half_freq.points,
                  half_freq.weights * half_freq.points ** (2.0 * alpha + 1.0),
                  lambda g: transforms.hankel(alpha, g, half)))
        out, orth = [], []
        for f, nspec, spec_f, xi, w, inverse in sides:
            mult = np.stack([family.evaluate(k, xi) for k in range(len(family))])
            sq = f.with_values(_square_function(mult, spec_f, inverse))
            out.append(weighted_lp_norm(sq, nspec) / weighted_lp_norm(f, nspec))
            if parseval:
                power = np.abs(spec_f.values) ** 2
                # one sum per piece k, then the K sums in order
                num2 = np.sum(np.sum((w * mult ** 2)[:, None, :] * power, axis=-1), axis=0)
                orth.append(np.sqrt(num2 / np.sum(w * power, axis=-1)))
        return [m.label for m in members], out, orth

    labels, base, orth = ratios(res, parseval=spec.p == 2.0)
    _, fine, _ = ratios(res.refined())
    pairs = [(f"{side}-side {label}", float(r[i])) for i, label in enumerate(labels)
             for side, r in zip(("fourier", "hankel"), base)]
    stable = all(0.5 <= f / b <= 2.0 for b, f in zip(np.ravel(base), np.ravel(fine)))
    if spec.p == 2.0:
        agree = float(np.max(np.abs(orth[0] - orth[1])))
        pairs.append(("max |fourier - hankel| orthogonal-norm gap", agree))
        passed = stable and agree <= 1e-6
    else:
        passed = stable and all(np.isfinite(v) for (_, v) in pairs)
    return _finish("transference", {"p": spec.p, "beta": spec.beta,
                                    "dimension": dimension, "beta_star": bstar,
                                    "members": family.labels},
                   pairs, float("inf"), res, seed, t0, passed=passed)


# ---------------------------------------------------------------------------
# weighted Carleson sweep

def bcv_lattice_weights() -> list[Weight]:
    """(a, b) lattice straddling the rectangle -2 < a < 2, -1 < b < 1 where
    the order-0 cut projection stays bounded at p = 2 (integrability at the
    origin keeps a > -2)."""
    return [w_ab_weight(a, b)
            for a in (-1.5, -0.5, 0.5, 1.5, 2.5)
            for b in (-1.5, -0.5, 0.0, 0.5, 1.5)]


def weighted_carleson_sweep(weights: Sequence[Weight], p: float, alpha: float,
                            resolution: Resolution | None = None, seed: int = 7,
                            experimental: bool = False,
                            threads: int = 1) -> list[ExperimentReport]:
    """Per weight: the max corpus ratio ||sup_t |S_t f|||_w / ||f||_w with a
    refinement-stability flag; w_ab weights carry their position relative to
    the boundedness rectangle in the report inputs."""
    res = resolution or resolution_n512()
    fine = res.refined()

    def carleson_maxes(res_: Resolution, members) -> tuple[SampledFn, SampledFn]:
        """The member stack and the stack of its sup_t |S_t f|."""
        t_grid, freq, stack = default_t_grid(res_), res_.freq_grid(), _stack(members)
        return stack, stack.with_values(np.stack(
            [build_family(alpha, m.sampled, t_grid, freq).max_abs().values for m in members]))

    def ratio_at(stack: SampledFn, cmaxes: SampledFn, weight: Weight) -> float:
        nspec = NormSpec(p, 0.0, alpha)
        return float(np.max(weighted_lp_norm(cmaxes, nspec, weight)
                            / weighted_lp_norm(stack, nspec, weight)))

    space = res.space_grid()
    members, dropped = _gate_members(_sweep_corpus(space, seed), [alpha], res)
    # sup_t |S_t f| does not depend on the weight: one family per member and
    # resolution serves every weight
    base_maxes = carleson_maxes(res, members)
    fine_maxes = carleson_maxes(fine, _resampled(members, fine.space_grid()))

    def one_weight(weight: Weight) -> ExperimentReport:
        t0 = time.perf_counter()
        inputs = {"p": p, "alpha": alpha, "kind": weight.kind,
                  "params": list(weight.params), "excluded_members": dropped}
        if weight.kind == "w_ab":
            a, b = weight.params
            inputs["in_bcv_rectangle"] = bool(-(2 * alpha + 2) < a < 2 * alpha + 2
                                              and -1.0 < b < 1.0)
        if weight.exponent_at_zero + 2.0 * alpha + 1.0 <= -1.0:
            return _finish("weighted-carleson", inputs,
                           [("skipped (non-integrable weight)", float("nan"))],
                           float("inf"), res, seed, t0, passed=True)
        if experimental:
            ok, supv = conjectured_measure_ap_check(weight, p, alpha)
            inputs["experimental_measure_ap"] = {"stable": ok, "sup": supv,
                                                 "note": "no pass/fail semantics"}
        base = ratio_at(*base_maxes, weight)
        ref = ratio_at(*fine_maxes, weight)
        stable = 0.5 <= ref / base <= 2.0
        pairs = [("max-ratio (empirical lower bound)", base), ("refined-ratio", ref)]
        return _finish("weighted-carleson", inputs, pairs, float("inf"),
                       res, seed, t0, passed=stable)

    return _map_ordered(one_weight, list(weights), threads)


# ---------------------------------------------------------------------------
# transplantation roundtrip experiment (wide-pivot composition)

def transplant_roundtrip_report(pairs_ag: Sequence[tuple], seed: int = 7) -> ExperimentReport:
    """T_ag(T_ga f) = f on moment-cancelled members, composing the public
    transplant operator twice through a wide intermediate grid."""
    t0 = time.perf_counter()
    fgrid = make_graded_grid(-5.0, 5.0, 25, 32, 1.0)
    freq = make_graded_grid(-100.0, 100.0, 57, 32, 1.0)
    wide = make_graded_grid(-12.0, 12.0, 57, 32, 1.0)
    members = moment_cancelled_corpus(fgrid)
    stack = _stack(members)
    out = []
    for (a, g) in pairs_ag:
        mid = transforms.transplant_dunkl(g, a, stack, freq, output_grid=wide)
        back = transforms.transplant_dunkl(a, g, mid, freq, output_grid=fgrid)
        err = _l2(back.values - stack.values, fgrid, -0.5) / _l2(stack.values, fgrid, -0.5)
        out += [(f"({a:g},{g:g}) {m.label}", float(e)) for m, e in zip(members, err)]
    res = Resolution(25, 32, 5.0)
    return _finish("transplant-roundtrip", {"pairs": [list(p) for p in pairs_ag]},
                   out, 1e-5, res, seed, t0)
