"""Experiment orchestration: the identity suite, norm-ratio sweeps,
refinement-stability studies, and structured reports.

Every experiment is a pure function of (seed, resolution, inputs) and its
report reproduces bit-for-bit; with threads > 1 the independent experiment
units are mapped over a thread pool and merged in input order, so the
thread count never changes any numeric output.  The pool leaves BLAS's own
thread count alone: the CLI starts OpenBLAS on one thread, and a library
caller that maps with threads > 1 sets OPENBLAS_NUM_THREADS=1 before numpy
loads if it wants the same.  Ratio sweeps refuse to run when the identity
gate fails at the chosen resolution; corpus members whose spectra exceed a
coarse grid's resolvable band are excluded by the gate member-by-member and
recorded in the report.

The identity suite is one table, IDENTITIES: name -> (residual, corpus,
tolerance), where residual(_Transforms(alpha, f, freq)) takes the corpus
as one (B, N) SampledFn stack and returns the identity's residual at order
alpha per member, a (B,) vector, and corpus names the member list.  A
_Transforms makes each transform of its stack on first read and keeps it,
from the plan (transforms._Plan) that the product's method returns, so a
residual called alone takes the suite's path.  A suite unit is one (name,
order) entry.  Before the units run, the suite builds every j-kernel it
uses in one special._ladder pass (more only when they exceed the cache
budget).  Then, per order, it makes what the units read in two driver
calls (transforms._run), one per level, so each kernel, j_a and j_{a+1} in
either orientation, is applied once per order and level.  Level 1 is
every transform of the sampled corpora: the parity spectra of
"default+zero", whose row prefixes "default" and "head" share them, and of
"away"; the direct route (and at -1/2 the Fourier spectrum) of
"default+zero"; and the modified spectra of "away" and of |x|^{a+1/2}
"away", one stack.  Level 2 is every transform of a level-1 spectrum: the
inversion of the "default+zero" spectrum and, at the fixed orders, the cut
rows of "head", the partial-sum-decomposition inverses and the transplant
inverse.  The order's units run next, and its transforms are then
dropped.  The member gate calls the same Plancherel and inversion
residuals on its corpus stack, from one spectrum per order.

All ratio figures are empirical lower bounds of the operator norms; no
upper bound is ever claimed.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, GateError
from . import transforms
from .funcspace import (FULL_LINE, HALF_LINE, CorpusMember, Grid, SampledFn,
                        _combine, away_from_zero_corpus, bump,
                        default_corpus, half_line_corpus,
                        make_graded_grid, moment_cancelled_corpus, multiply_power,
                        sample, smooth_corpus)
from .projections import (PartialSumFamily, ThresholdSeq, _cut_plan, build_family,
                          default_t_grid)
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

    def __post_init__(self):
        if not (min(self.n_side_panels, self.nodes_per_panel) >= 1 and 0.0 < self.x_max < np.inf):
            raise ArgumentError(f"{self}: needs n_side_panels, nodes_per_panel >= 1, x_max > 0")

    @property
    def n_line(self) -> int:
        return 2 * self.n_side_panels * self.nodes_per_panel

    def refined(self) -> "Resolution":
        return Resolution(2 * self.n_side_panels, self.nodes_per_panel, self.x_max)

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


def resolution_n512() -> Resolution:
    return Resolution(8)


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


def _l2(f: SampledFn, alpha: float):
    """The L^2(|x|^{2 alpha + 1} dx) norm of each function of the stack f."""
    return weighted_lp_norm(f, NormSpec(2.0, 0.0, alpha))


def _finish(name, inputs, pairs, tol, res, seed, t0, passed=None) -> ExperimentReport:
    if passed is None:
        passed = all(v <= tol for (_, v) in pairs)
    return ExperimentReport(name, inputs, pairs, tol, bool(passed),
                            int(1000 * (time.perf_counter() - t0)), res.describe(), seed)


# ---------------------------------------------------------------------------
# identity suite

PROJECTION_TS = (0.5, 1.0, 2.0, 4.0)


def _sampled(fns: Sequence[Callable], grid: Grid, domain: str) -> SampledFn:
    """The functions sampled afresh on grid, as one (B, N) SampledFn."""
    return SampledFn(grid, np.stack([sample(fn, grid, domain).values for fn in fns]), domain)


def _stable(base, fine) -> bool:
    """The refinement test of every ratio sweep: each ratio on the refined
    profile within a factor 2 of its base ratio (a NaN ratio fails)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.divide(fine, base)
    return bool(np.all((r >= 0.5) & (r <= 2.0)))


def _max_gap(a: np.ndarray, b: np.ndarray, f: SampledFn) -> np.ndarray:
    """max |a - b| per function of the stack f, over every trailing axis."""
    return np.abs(a - b).reshape(f.values.shape[:-1] + (-1,)).max(axis=-1)


def _over_norm(num, nf, zero: float):
    """num / nf per member, reading zero where the member's norm nf is 0."""
    return np.divide(num, nf, out=np.full_like(nf, zero), where=nf != 0.0)


_PAIRS = [(s, t) for s in PROJECTION_TS for t in PROJECTION_TS]
_CUTS = [[t, s] for s, t in _PAIRS] + [[t] for t in PROJECTION_TS]   # S_t S_s f, then S_t f


class _product:
    """A _Transforms attribute made on first read, from the transforms._Plan
    its method returns: _make makes several in one driver call."""

    def __init__(self, plan: Callable):
        self.plan, self.name = plan, plan.__name__

    def __get__(self, tr, owner=None):
        if tr is None:
            return self
        _make([(tr, self.name)])
        return vars(tr)[self.name]


def _make(wanted: Sequence[tuple]) -> None:
    """The products named in wanted, (_Transforms, name) pairs, that are not
    made yet, all from one transforms._run, which applies each kernel once."""
    todo = [(tr, name) for tr, name in wanted if name not in vars(tr)]
    plans = [getattr(type(tr), name).plan(tr) for tr, name in todo]
    for (tr, name), value in zip(todo, transforms._run(plans)):
        vars(tr)[name] = value


class _Transforms:
    """A (..., N) stack f at order alpha and the transforms of it that the
    identities read, each made on first read and kept.  Level 1, from f:
    the parity spectra (E, O) = (Hk_a f_e, Hk_{a+1}(f_o/y)) on the
    positive frequencies and the Dunkl spectrum assembled from them, the
    Fourier and direct-route spectra, and the modified Dunkl spectra of f
    and of |x|^{a+1/2} f (one transform when a = -1/2).  Level 2, from
    level-1 spectra: the inverse of the Dunkl spectrum, the rows of the cut
    lists _CUTS, the inverses of the direct-route spectrum cut to each
    |xi| <= t in PROJECTION_TS, and the inverse modified transform of the
    modified spectrum."""

    def __init__(self, alpha: float, f: SampledFn, freq: Grid):
        self.alpha, self.f, self.freq = alpha, f, freq

    @_product
    def parts(self):
        return transforms._parts_plan(self.alpha, self.f, self.freq.positive_half())

    @cached_property
    def spec(self) -> SampledFn:
        return transforms._assembled(self.freq, *self.parts)

    @_product
    def fourier(self):
        return transforms._fourier_plan(self.f, self.freq)

    @_product
    def direct(self):
        return transforms._dunkl_plan(self.alpha, self.f, self.freq, "direct")

    @_product
    def modified(self):
        f, a = self.f, self.alpha + 0.5
        both = f.with_values(np.stack([f.values] + [multiply_power(f, a).values] * (a != 0.0)))
        return transforms._dunkl_modified_plan(self.alpha, both, self.freq).then(
            lambda out: (out.with_values(out.values[0]), out.with_values(out.values[-1])))

    @_product
    def inverse(self):
        return transforms._dunkl_plan(self.alpha, self.spec, self.f.grid).then(
            transforms._reflected)

    @_product
    def rows(self):
        return _cut_plan(self.alpha, self.f, _CUTS, self.freq, "dunkl", self.parts)

    @_product
    def cut_inverses(self):
        cut = np.abs(self.freq.points) <= np.array(PROJECTION_TS)[:, None]
        spec = self.direct.with_values(cut * self.direct.values[..., None, :])
        return transforms._dunkl_plan(self.alpha, spec, self.f.grid).then(transforms._reflected)

    @_product
    def transplant(self):
        return transforms._dunkl_modified_plan(self.alpha, self.modified[0], self.f.grid).then(
            transforms._reflected)

    def prefix(self, n: int) -> "_Transforms":
        """The first n members of a (B, N) stack f, with the slices of the
        spectra already made."""
        def first(x):
            return tuple(map(first, x)) if isinstance(x, tuple) else x.with_values(x.values[:n])
        out = _Transforms(self.alpha, first(self.f), self.freq)
        made = {k: first(v) for k, v in vars(self).items() if k not in vars(out)}
        vars(out).update(made)
        return out


def _plancherel(tr):
    return abs(_over_norm(_l2(tr.spec, tr.alpha), _l2(tr.f, tr.alpha), 1.0) - 1.0)


def _inversion(tr):
    return _over_norm(_l2(tr.inverse - tr.f, tr.alpha), _l2(tr.f, tr.alpha), 0.0)


def _fourier_reduction(tr):
    return _max_gap(tr.spec.values, tr.fourier.values, tr.f)


def _two_route(tr):
    return _max_gap(tr.spec.values, tr.direct.values, tr.f)


def _conjugation(tr):
    back = multiply_power(tr.modified[1], -(tr.alpha + 0.5))
    return _max_gap(tr.spec.values, back.values, tr.f)


def _modified_plancherel(tr):
    # the flat-measure transform needs profiles vanishing at the origin
    # (the kernel's (xy)^{1/2} factor kinks the spectrum otherwise)
    return abs(_over_norm(_l2(tr.modified[0], -0.5), _l2(tr.f, -0.5), 1.0) - 1.0)


def _projection_algebra(tr):
    """S_t S_s f against S_min(s,t) f, both sides rows of one cut call."""
    mins = [len(_PAIRS) + PROJECTION_TS.index(min(s, t)) for s, t in _PAIRS]
    return _max_gap(tr.rows[..., :len(_PAIRS), :], tr.rows[..., mins, :], tr.f)


def _partial_sum_decomposition(tr):
    """The direct-route spectrum cut to each |xi| <= t and inverted, against
    the cut rows S_t f, which reassemble the two parities' Hankel partial
    sums."""
    return _max_gap(tr.cut_inverses.values, tr.rows[..., len(_PAIRS):, :], tr.f)


def _transplant_identity(tr):
    """T_aa f = f: the inverse modified transform of Dm_a f."""
    return _over_norm(_l2(tr.transplant - tr.f, -0.5), _l2(tr.f, -0.5), 0.0)


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
_FIXED_ALPHAS = (-0.5, 0.0, 1.0)


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
    res = resolution or Resolution()
    space, freq = res.space_grid(), res.freq_grid()
    default = default_corpus(seed)
    corpora = {"default": default, "head": default[:4],
               "default+zero": default + [CorpusMember("zero", np.zeros_like)],
               "away": away_from_zero_corpus(seed)}
    full, away = (_sampled([m.fn for m in corpora[c]], space, FULL_LINE)
                  for c in ("default+zero", "away"))
    orders = sorted(set(alphas).union(_FIXED_ALPHAS))
    # every j-kernel the suite reads is on one grid pair: build them all, in
    # as few ladder passes as the kernel cache budget holds
    half, half_freq = res.half_grid(), res.half_freq_grid()
    js = sorted({float(b) for a in orders for b in (a, a + 1.0)})
    per = max(1, transforms._CACHE_BUDGET // (8 * half.n * half_freq.n))
    for i in range(0, len(js), per):
        transforms._j_kernels(half_freq, half, *js[i:i + per])

    units = ([(name, a) for a in alphas for name in _PER_ORDER]
             + [("fourier-reduction", -0.5)]
             + [(name, a) for a in _FIXED_ALPHAS for name in _FIXED_ORDER])

    def order_reports(alpha) -> list:
        """The (unit, report) pairs of one order, read from the corpora's
        _Transforms at that order, made in two driver calls, one per level
        (module docstring), and dropped once its units are done."""
        zero, away_tr = _Transforms(alpha, full, freq), _Transforms(alpha, away, freq)
        _make([(zero, "parts"), (zero, "direct"), (away_tr, "parts"), (away_tr, "modified")]
              + [(zero, "fourier")] * (alpha == -0.5))
        dflt = zero.prefix(len(default))
        head = dflt.prefix(len(corpora["head"]))
        _make([(zero, "inverse")] + [(head, "rows"), (head, "cut_inverses"),
                                     (away_tr, "transplant")] * (alpha in _FIXED_ALPHAS))
        made = {"default+zero": zero, "default": dflt, "head": head, "away": away_tr}
        return [((name, a), unit(name, a, made)) for name, a in units if a == alpha]

    def unit(name, alpha, made) -> ExperimentReport:
        residual, corpus, tol = IDENTITIES[name]
        t0 = time.perf_counter()
        values = residual(made[corpus])
        pairs = [(m.label, float(v)) for m, v in zip(corpora[corpus], values)]
        inputs = {"alpha": alpha, "ts": PROJECTION_TS} if corpus == "head" else {"alpha": alpha}
        return _finish(name, inputs, pairs, tol, res, seed, t0)

    done = dict(pair for pairs in _map_ordered(order_reports, orders, threads) for pair in pairs)
    return [done[u] for u in units]


# ---------------------------------------------------------------------------
# member gate for coarse-resolution sweeps

def _gate_members(members: list[CorpusMember], alphas: Sequence[float], res: Resolution):
    """Keep the nonzero members whose Plancherel and inversion residuals (from
    one Dunkl spectrum of the member stack per order) meet their IDENTITIES
    tolerances at every requested order.  The excluded labels are reported; a
    sweep with fewer than two survivors refuses to run."""
    space, freq = res.space_grid(), res.freq_grid()
    tol_p, tol_i = IDENTITIES["plancherel"][2], IDENTITIES["inversion"][2]
    stack = _sampled([m.fn for m in members], space, FULL_LINE)
    ok = np.ones(len(members), dtype=bool)
    for a in alphas:
        tr = _Transforms(a, stack, freq)
        ok &= (_l2(stack, a) != 0.0) & (_plancherel(tr) <= tol_p) & (_inversion(tr) <= tol_i)
    keep = [m for m, k in zip(members, ok) if k]
    if len(keep) < 2:
        raise GateError("identity gate at this resolution left fewer than two "
                        "corpus members; refusing to sweep")
    return keep, [m.label for m, k in zip(members, ok) if not k]


# ---------------------------------------------------------------------------
# oscillation ratio sweep

def _sweep_corpus(seed: int) -> list[CorpusMember]:
    return smooth_corpus(seed) + [_combine(f"bump(c={c:g},r={r:g})", [(1.0, bump(c, r))])
                                  for c, r in [(0.0, 2.0), (0.3, 2.2)]]


def _grouped_families(reduce: Callable[[PartialSumFamily], SampledFn], width: int,
                      order: float, stack: SampledFn, t_grid: ThresholdSeq,
                      freq: Grid) -> SampledFn:
    """reduce(family) for the families of a (B, N) member stack, as one
    (B, N) stack in member order.  The families are built in groups of
    width // N members (at least one), so that a group holds no more columns
    than the family of one function on a width-node grid: one call per group
    keeps a pool thread busy in numpy for longer at the same peak memory."""
    per = max(1, width // stack.grid.n)
    return stack.with_values(np.concatenate([
        reduce(build_family(order, stack.with_values(stack.values[i:i + per]), t_grid,
                            freq)).values
        for i in range(0, len(stack.values), per)]))


def _refinement_study(fns: Sequence[Callable], domain: str, res: Resolution, order: float,
                      reduce: Callable, t_grid_of: Callable, before: Callable | None = None):
    """The base/refined study of every ratio sweep: yields for res and then
    res.refined() (live mask, live stack, reduce of its families on the
    t-grid t_grid_of(profile), before(stack, t_grid) or None).  The stack is
    fns sampled afresh on the profile's grid of their domain, less the
    members that are zero there (none left raises GateError); before runs
    ahead of the families, which are grouped to the refined grid's width."""
    grid_of, freq_of = ((Resolution.space_grid, Resolution.freq_grid) if domain == FULL_LINE
                        else (Resolution.half_grid, Resolution.half_freq_grid))
    width = grid_of(res.refined()).n
    for r in (res, res.refined()):
        stack = _sampled(fns, grid_of(r), domain)
        live = np.any(stack.values != 0.0, axis=-1)
        if not live.any():
            raise GateError(f"every corpus member is zero at N={r.n_line}; refusing to sweep")
        stack, t_grid = stack.with_values(stack.values[live]), t_grid_of(r)
        prior = before(stack, t_grid) if before else None
        yield live, stack, _grouped_families(reduce, width, order, stack, t_grid,
                                             freq_of(r)), prior


def _norm_ratio(num: SampledFn, den: SampledFn, spec: NormSpec, window: float | None = None,
                weight: Weight | None = None) -> np.ndarray:
    """||num|| / ||den|| per function of the stacks in the weight (the power
    weight of spec by default), both cut to |x| <= window when one is given."""
    def norm(f):
        if window is not None:
            f = f.with_values(np.where(np.abs(f.grid.points) <= window, f.values, 0.0))
        return weighted_lp_norm(f, spec, weight)
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
    width = res.refined().space_grid().n

    def one_spec(spec: NormSpec) -> ExperimentReport:
        t0 = time.perf_counter()
        space, freq = res.space_grid(), res.freq_grid()
        members, dropped = _gate_members(_sweep_corpus(seed), [spec.alpha], res)
        if dyadic_only:
            t_grid = ThresholdSeq.octaves(2.0 ** -4, 0.45 * res.freq_max())
            in_range = range_dyadic_oscillation(spec.p, spec.beta, spec.alpha)
        else:
            t_grid = default_t_grid(freq)
            in_range = (spec.p >= 2.0 and
                        range_full_oscillation(spec.p, spec.beta, spec.alpha))

        osc_of = partial(_grouped_families, max_oscillation, width, spec.alpha)
        fns = [m.fn for m in members]
        # the refined profile keeps the base t-grid
        (_, stack, osc, _), (_, fine_stack, fine_osc, _) = _refinement_study(
            fns, FULL_LINE, res, spec.alpha, max_oscillation, lambda r: t_grid)
        ratios = dict(zip([m.label for m in members], _norm_ratio(osc, stack, spec)))
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
            dil = _sampled([lambda x, g=g: g(lam * x) for g in fns], space_d, FULL_LINE)
            v = np.abs(dil.values)
            r_b = _norm_ratio(osc, stack, spec, w_base)
            # a dilation that leaves the grid is not comparable
            keep = ~(np.maximum(v[:, 0], v[:, -1]) > 1e-7 * np.max(v, axis=-1)) & (r_b > 0.0)
            if keep.any():
                dil = dil.with_values(dil.values[keep])
                r_l = _norm_ratio(osc_of(dil, t_lam, freq_d), dil, spec)
                dev = max([dev] + list(np.abs(r_l / r_b[keep] - 1.0)))
        base2 = max(_norm_ratio(fine_osc, fine_stack, spec))
        pairs = list(ratios.items()) + [("max-ratio (empirical lower bound)", base),
                                        ("refined-ratio", base2), ("dilation-deviation", dev)]
        return _finish("oscillation-ratio" + ("-dyadic" if dyadic_only else ""),
                       {"p": spec.p, "beta": spec.beta, "alpha": spec.alpha,
                        "in_range": in_range, "excluded_members": dropped},
                       pairs, float("inf"), res, seed, t0,
                       passed=_stable(base, base2) and dev <= 0.01)

    return _map_ordered(one_spec, list(spec_list), threads)


# ---------------------------------------------------------------------------
# Prestini majorant constant sweep

def prestini_constant_sweep(alphas: Sequence[float], resolution: Resolution | None = None,
                            seed: int = 7, threads: int = 1) -> list[ExperimentReport]:
    """Empirical majorant constant: max over corpus, cuts and nodes of
    |S~_t f(x)| / majorant(x), reported at the profile and its refinement;
    passed means the two stay within a factor 2.  A zero member is skipped
    (the corpus carries one); a profile on which every member is zero
    refuses to run."""
    res = resolution or resolution_n512()
    profiles = (res, res.refined())
    members = half_line_corpus(seed)
    labels, fns = [m.label for m in members] + ["zero"], [m.fn for m in members] + [np.zeros_like]

    def one_alpha(alpha: float) -> ExperimentReport:
        t0 = time.perf_counter()
        pairs, consts = [], []
        # each profile's majorant is computed ahead of its families (peak memory)
        study = _refinement_study(
            fns, HALF_LINE, res, alpha, PartialSumFamily.max_abs,
            lambda r: ThresholdSeq.octaves(2.0 ** -4, 0.9 * r.freq_max()),
            lambda stack, t_grid: prestini_majorant(
                alpha, stack, default_sup_grid(stack.grid, t_grid.values)).values)
        for r, (live, _, maxes, majs) in zip(profiles, study):
            pairs += [(f"{label}@{r.n_line} skipped (zero)", 0.0)
                      for label, ok in zip(labels, live) if not ok]
            consts.append(max([0.0] + [float(np.max(mx / maj))
                                       for mx, maj in zip(maxes.values, majs)]))
            pairs.append((f"C(alpha={alpha:g}, N={r.n_line})", consts[-1]))
        return _finish("prestini-constant", {"alpha": alpha,
                                             "ladder": [r.n_line for r in profiles]},
                       pairs, float("inf"), res, seed, t0, passed=_stable(*consts))

    return _map_ordered(one_alpha, list(alphas), threads)


# ---------------------------------------------------------------------------
# multiplier transference

def dyadic_partition(res: Resolution) -> ThresholdSeq:
    """The edges 2^k of the dyadic intervals that tile the positive frequency
    nodes of res and res.refined(), the two profiles of transference_demo."""
    profiles = (res, res.refined())
    k_min = min(int(np.floor(np.log2(r.half_freq_grid().points[0]))) for r in profiles)
    k_max = max(int(np.ceil(np.log2(r.freq_max()))) for r in profiles)
    return ThresholdSeq.octaves(2.0 ** k_min, 2.0 ** (k_max + 1))


def _square_function(mult: np.ndarray, spec: SampledFn,
                     inverse: Callable[[SampledFn], SampledFn]) -> tuple[np.ndarray, np.ndarray]:
    """The (..., K, N) pieces inverse(m_k spec) for the (K, F) multiplier rows
    mult, every member's K multiplied spectra inverted as one stack, and
    their square function (sum_k |piece_k|^2)^{1/2}."""
    back = inverse(spec.with_values(spec.values[..., None, :] * mult)).values
    return back, np.sqrt(np.sum(np.abs(back) ** 2, axis=-2))


def transference_demo(edges: ThresholdSeq, spec: NormSpec, dimension: int,
                      resolution: Resolution | None = None, seed: int = 7) -> ExperimentReport:
    """Vector-valued square-function ratios for the indicators 1_[e_k, e_{k+1})
    of consecutive edges: the 1D Fourier side in L^p(|x|^beta dx) against the
    Hankel side at order (n-2)/2 in the beta*-shifted radial weight, gated
    on refinement stability.  At n = 1 or 3, j_{(n-2)/2}(u) is sqrt(2/pi)
    times cos u or sin u / u, so each Hankel piece S_H f0 of a profile f0 is
    S_F g / r^k on the half grid, k = (n-1)/2, g(x) = x^k f0(|x|) riding in
    the Fourier stack: the report also gates that gap, over both profiles
    and relative to max |S_H f0|, at 1e-12."""
    if len(edges) < 2:
        raise ArgumentError("transference needs at least two edges (one interval)")
    if not -1.0 < spec.beta < spec.p - 1.0:
        raise ArgumentError("transference needs -1 < beta < p - 1")
    if dimension < 1:
        raise ArgumentError("dimension must be >= 1")
    res = resolution or resolution_n512()
    t0 = time.perf_counter()
    alpha, k, exact = (dimension - 2) / 2.0, dimension // 2, dimension in (1, 3)
    bstar = beta_star(spec.beta, alpha, spec.p)
    fr_spec = NormSpec(spec.p, spec.beta, -0.5)      # measure |x|^beta
    hk_spec = NormSpec(spec.p, bstar, alpha)         # measure x^{beta*+2a+1}
    members = smooth_corpus(seed)[:4]
    fns, nm = [m.fn for m in members], len(members)
    lo, hi = edges.values[:-1], edges.values[1:]

    def ratios(res_: Resolution):
        """Per side the members' square-function norm ratios, and the gap."""
        space, freq = res_.space_grid(), res_.freq_grid()
        half, half_freq = res_.half_grid(), res_.half_freq_grid()
        full, prof = _sampled(fns, space, FULL_LINE), _sampled(fns, half, HALF_LINE)
        g = space.points ** k * np.concatenate([prof.values[:, ::-1], prof.values], axis=-1)
        stack = full.with_values(np.concatenate([full.values] + [g] * exact))
        sides = ((full, fr_spec, transforms.fourier(stack, freq), np.abs(freq.points),
                  lambda s: transforms.fourier_inverse(s, space)),
                 (prof, hk_spec, transforms.hankel(alpha, prof, half_freq), half_freq.points,
                  lambda s: transforms.hankel(alpha, s, half)))
        out, pieces = [], []
        for f, nspec, spec_f, xi, inverse in sides:
            mult = ((xi >= lo[:, None]) & (xi < hi[:, None])).astype(float)
            back, sq = _square_function(mult, spec_f, inverse)
            out.append(weighted_lp_norm(f.with_values(sq[:nm]), nspec) / weighted_lp_norm(f, nspec))
            pieces.append(back)
        sf, sh = pieces
        gap = np.max(np.abs(sh - sf[nm:, :, half.n:] / half.points ** k)) if exact else 0.0
        return out, gap / np.max(np.abs(sh))

    (base, gap), (fine, fine_gap) = ratios(res), ratios(res.refined())
    pairs = [(f"{side}-side {m.label}", float(r[i])) for i, m in enumerate(members)
             for side, r in zip(("fourier", "hankel"), base)]
    gap = float(max(gap, fine_gap))
    pairs += [("max |hankel - fourier| exact-reduction gap", gap)] * exact
    passed = _stable(base, fine) and gap <= 1e-12
    return _finish("transference", {"p": spec.p, "beta": spec.beta,
                                    "dimension": dimension, "beta_star": bstar,
                                    "members": [f"1_[{a:g},{b:g})" for a, b in zip(lo, hi)]},
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
    nspec = NormSpec(p, 0.0, alpha)
    members, dropped = _gate_members(_sweep_corpus(seed), [alpha], res)
    # sup_t |S_t f| does not depend on the weight: one family per member and
    # resolution serves every weight
    study = list(_refinement_study([m.fn for m in members], FULL_LINE, res, alpha,
                                   PartialSumFamily.max_abs,
                                   lambda r: default_t_grid(r.freq_grid())))

    # one batched A_p pass checks every weight integrable against |x|^{2 alpha + 1}
    checked = [w for w in weights if w.exponents[0] + 2.0 * alpha + 1.0 > -1.0]
    ap = dict(zip(checked, conjectured_measure_ap_check(checked, p, alpha))) if experimental else {}

    def one_weight(weight: Weight) -> ExperimentReport:
        t0 = time.perf_counter()
        inputs = {"p": p, "alpha": alpha, "kind": weight.kind,
                  "params": list(weight.params), "excluded_members": dropped}
        if weight.kind == "w_ab":
            a, b = weight.params
            inputs["in_bcv_rectangle"] = bool(-(2 * alpha + 2) < a < 2 * alpha + 2
                                              and -1.0 < b < 1.0)
        if weight not in checked:
            return _finish("weighted-carleson", inputs,
                           [("skipped (non-integrable weight)", float("nan"))],
                           float("inf"), res, seed, t0, passed=True)
        if experimental:
            ok, supv = ap[weight]
            inputs["experimental_measure_ap"] = {"stable": ok, "sup": supv,
                                                 "note": "no pass/fail semantics"}
        base, ref = (float(np.max(_norm_ratio(cmaxes, stack, nspec, weight=weight)))
                     for _, stack, cmaxes, _ in study)
        pairs = [("max-ratio (empirical lower bound)", base), ("refined-ratio", ref)]
        return _finish("weighted-carleson", inputs, pairs, float("inf"),
                       res, seed, t0, passed=_stable(base, ref))

    return _map_ordered(one_weight, list(weights), threads)


# ---------------------------------------------------------------------------
# transplantation roundtrip experiment (wide-pivot composition)

def transplant_roundtrip_report(pairs_ag: Sequence[tuple], seed: int = 7) -> ExperimentReport:
    """T_ag(T_ga f) = f on moment-cancelled members, composing the public
    transplant operator twice through a wide intermediate grid."""
    t0 = time.perf_counter()
    res = Resolution(25, 32, 5.0)
    fgrid = res.space_grid()
    freq = make_graded_grid(-100.0, 100.0, 57, 32, 1.0)
    wide = make_graded_grid(-12.0, 12.0, 57, 32, 1.0)
    members = moment_cancelled_corpus(fgrid)
    stack = _sampled([m.fn for m in members], fgrid, FULL_LINE)
    out = []
    for (a, g) in pairs_ag:
        mid = transforms.transplant_dunkl(g, a, stack, freq, output_grid=wide)
        back = transforms.transplant_dunkl(a, g, mid, freq, output_grid=fgrid)
        err = _l2(back - stack, -0.5) / _l2(stack, -0.5)
        out += [(f"({a:g},{g:g}) {m.label}", float(e)) for m, e in zip(members, err)]
    # the transforms run on these grids, not on the profile's own frequency grid
    grids = {name: {"n_line": g.n, "lo": g.lo, "hi": g.hi}
             for name, g in (("freq_grid", freq), ("pivot_grid", wide))}
    return _finish("transplant-roundtrip", {"pairs": [list(p) for p in pairs_ag], **grids},
                   out, 1e-5, res, seed, t0)
