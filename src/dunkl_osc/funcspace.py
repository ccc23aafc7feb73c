"""Grids, sampled functions, quadrature, parity decomposition, power
multiplication, and the generators of smooth compactly supported test
functions.

A Grid is a composite Gauss-Legendre rule built in a mapped coordinate:
panel endpoints on each side of the origin follow (k/n)^grading, so
integrable singularities |x|^b (b > -1) at the origin are absorbed.  Grids
never contain x = 0 itself (Gauss nodes are interior to panels).  Sampled
functions carry their values at quadrature nodes only; no interpolation
happens here.  A SampledFn may carry a stack of functions on one grid:
leading batch axes, with the last axis on the grid.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, DomainError

FULL_LINE = "full_line"
HALF_LINE = "half_line"

_CSV_MAGIC = "# dunkl-osc sampledfn v2"


def _freeze(a, dtype=float) -> np.ndarray:
    """A read-only contiguous copy of a: a frozen field never aliases, and
    never freezes, an array its caller still holds."""
    out = np.array(a, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@contextmanager
def _text_file(path_or_buf, mode: str):
    """A path (str, bytes or os.PathLike) opened in mode and closed on exit,
    or an open text buffer passed through and left open."""
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        with open(path_or_buf, mode) as fh:
            yield fh
    else:
        yield path_or_buf


@dataclass(frozen=True)
class Grid:
    """Strictly increasing quadrature abscissae with positive weights on
    a support interval [lo, hi].  panel_edges, the strictly increasing
    panel boundaries, is kept when the grid was built panel-wise
    (classical_ops requires it)."""

    points: np.ndarray
    weights: np.ndarray
    lo: float
    hi: float
    panel_edges: np.ndarray | None = None
    key: str = field(init=False, default="")
    _half: "Grid | None" = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        pts, wts = _freeze(self.points), _freeze(self.weights)
        if pts.ndim != 1 or pts.shape != wts.shape or pts.size == 0:
            raise ArgumentError("grid points/weights must be matching 1-d arrays")
        if not np.isfinite(np.concatenate([pts, wts, [self.lo, self.hi]])).all():
            raise ArgumentError("grid points, weights and support must be finite")
        if np.any(np.diff(pts) <= 0.0):
            raise ArgumentError("grid points must be strictly increasing")
        if np.any(wts <= 0.0):
            raise ArgumentError("grid weights must be positive")
        length = self.hi - self.lo
        if length <= 0.0:
            raise ArgumentError("grid support must have hi > lo")
        if abs(float(wts.sum()) - length) > 1e-12 * length:
            raise ArgumentError("grid weights do not reproduce the support length")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if self.panel_edges is not None:
            edges = _freeze(self.panel_edges)
            if (edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all()
                    or np.any(np.diff(edges) <= 0.0)):
                raise ArgumentError("panel edges must be finite and strictly increasing")
            # the weights of the nodes in (e_i, e_{i+1}] sum to its length; none lie outside
            sums = np.bincount(np.searchsorted(edges, pts), wts, edges.size + 1)
            if (edges[0] != self.lo or edges[-1] != self.hi or sums[0] or sums[-1]
                    or np.any(np.abs(sums[1:-1] - np.diff(edges)) > 1e-12 * length)):
                raise ArgumentError("panel edges must run from lo to hi, each panel's "
                                    "weights summing to its length")
            object.__setattr__(self, "panel_edges", edges)
        h = hashlib.sha1()
        h.update(pts.tobytes())
        h.update(np.array([self.lo, self.hi], dtype=float).tobytes())
        object.__setattr__(self, "key", h.hexdigest()[:16])

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.points, -self.points[::-1]) and self.lo == -self.hi)

    @property
    def max_spacing(self) -> float:
        return float(np.max(np.diff(self.points)))

    def positive_half(self) -> "Grid":
        """Positive-side sub-grid of a symmetric full-line grid, built once
        per grid (two threads racing here only build two equal grids)."""
        if self._half is None:
            if not self.is_symmetric:
                raise ArgumentError("positive_half requires a symmetric grid")
            if self.n % 2:
                raise ArgumentError("positive_half needs an even node count: a symmetric "
                                    "grid with a node at 0 has no positive half")
            m = self.n // 2
            edges = None
            if self.panel_edges is not None:
                edges = self.panel_edges[self.panel_edges >= 0.0]
            object.__setattr__(self, "_half",
                               Grid(self.points[m:], self.weights[m:], 0.0, self.hi, edges))
        return self._half

    def window(self, w: float) -> "Grid":
        """Sub-grid made of the whole panels inside [-w, w] (w must land on or
        beyond a panel boundary for the node set to stay quadrature-exact)."""
        if w >= self.hi:
            return self
        keep_e = self.panel_edges[np.abs(self.panel_edges) <= w * (1 + 1e-12)]
        sel = (self.points >= keep_e[0]) & (self.points <= keep_e[-1])
        return Grid(self.points[sel], self.weights[sel],
                    float(keep_e[0]), float(keep_e[-1]), keep_e)

    def scaled(self, lam: float) -> "Grid":
        """The grid dilated by lam (points, weights, support and panel edges)."""
        edges = None if self.panel_edges is None else self.panel_edges * lam
        return Grid(self.points * lam, self.weights * lam, self.lo * lam, self.hi * lam, edges)


@dataclass(frozen=True)
class SampledFn:
    """A function known at the quadrature nodes of a grid, or a nonempty stack
    of them: values is (..., grid.n), the last axis on the grid, stored as complex128
    when complex and as float64 otherwise (moduli and maxima stay real)."""

    grid: Grid
    values: np.ndarray
    domain_tag: str = FULL_LINE

    def __post_init__(self):
        vals = _freeze(self.values, complex if np.iscomplexobj(self.values) else float)
        if vals.shape[-1:] != self.grid.points.shape:
            raise ArgumentError("values must have one entry per grid point on the last axis")
        if vals.size == 0:
            raise ArgumentError("a stack of functions needs at least one member")
        if not np.isfinite(vals).all():
            raise ArgumentError("values must be finite")
        if self.domain_tag not in (FULL_LINE, HALF_LINE):
            raise ArgumentError(f"unknown domain tag {self.domain_tag!r}")
        if self.domain_tag == HALF_LINE and self.grid.lo < 0.0:
            raise ArgumentError("half-line functions need grid.lo >= 0")
        object.__setattr__(self, "values", vals)

    def with_values(self, values: np.ndarray) -> "SampledFn":
        return SampledFn(self.grid, values, self.domain_tag)

    def __add__(self, other: "SampledFn") -> "SampledFn":
        if other.grid.key != self.grid.key:
            raise ArgumentError("operands live on different grids")
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "SampledFn") -> "SampledFn":
        if other.grid.key != self.grid.key:
            raise ArgumentError("operands live on different grids")
        return self.with_values(self.values - other.values)

    def __mul__(self, c) -> "SampledFn":
        return self.with_values(self.values * c)

    __rmul__ = __mul__


def _mapped_side(span: float, n_panels: int, nodes: int, grading: float):
    """Nodes/weights/edges on (0, span], graded toward 0 through the map
    u -> span * u^grading on uniform u-panels.  Each panel's weight sum is
    normalized to its exact length so constants integrate exactly."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    bnd = np.arange(n_panels + 1) / n_panels
    half = ((bnd[1:] - bnd[:-1]) / 2.0)[:, None]
    u = ((bnd[:-1] + bnd[1:]) / 2.0)[:, None] + half * gl_x
    x = span * u ** grading
    w = half * gl_w * span * grading * u ** (grading - 1.0)
    edges = span * bnd ** grading
    w *= ((edges[1:] - edges[:-1]) / w.sum(axis=1))[:, None]
    return x.ravel(), w.ravel(), edges


def make_graded_grid(lo: float, hi: float, n_panels: int, nodes_per_panel: int,
                     grading_exponent: float = 1.0) -> Grid:
    """Composite Gauss-Legendre grid on [lo, hi] with panel endpoints graded
    as (k/n_panels)^grading_exponent toward 0.  A sign-straddling interval is
    built per side (n_panels each), mirrored exactly when hi == -lo."""
    if not lo < hi:
        raise ArgumentError("make_graded_grid: need lo < hi")
    if n_panels < 1 or nodes_per_panel < 1:
        raise ArgumentError("make_graded_grid: panel counts must be positive")
    if grading_exponent < 1.0:
        raise ArgumentError("make_graded_grid: grading exponent must be >= 1")
    if lo < 0.0 < hi:
        xp, wp, ep = _mapped_side(hi, n_panels, nodes_per_panel, grading_exponent)
        if hi == -lo:
            xn, wn, en = -xp[::-1], wp[::-1], -ep[::-1]
        else:
            xm, wm, em = _mapped_side(-lo, n_panels, nodes_per_panel, grading_exponent)
            xn, wn, en = -xm[::-1], wm[::-1], -em[::-1]
        return Grid(np.concatenate([xn, xp]), np.concatenate([wn, wp]), lo, hi,
                    np.concatenate([en, ep[1:]]))
    if hi <= 0.0:
        x, w, e = _mapped_side(hi - lo, n_panels, nodes_per_panel, grading_exponent)
        return Grid(hi - x[::-1], w[::-1], lo, hi, hi - e[::-1])
    x, w, e = _mapped_side(hi - lo, n_panels, nodes_per_panel, grading_exponent)
    return Grid(lo + x, w, lo, hi, lo + e)


def make_breakpoint_grid(breakpoints: Sequence[float], nodes_per_panel: int) -> Grid:
    """Plain composite Gauss-Legendre grid with prescribed panel boundaries
    (used when sharp cuts or jumps must align with panel edges)."""
    bks = np.asarray(sorted(set(float(b) for b in breakpoints)))
    if bks.size < 2:
        raise ArgumentError("need at least two breakpoints")
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    xs, ws = [], []
    for a, b in zip(bks[:-1], bks[1:]):
        xs.append((a + b) / 2.0 + (b - a) / 2.0 * gl_x)
        ws.append((b - a) / 2.0 * gl_w)
    return Grid(np.concatenate(xs), np.concatenate(ws), float(bks[0]), float(bks[-1]), bks)


def even_odd_split(f: SampledFn):
    """Even and odd parts restricted to the positive half grid, along the
    last axis: f_e(x) = (f(x)+f(-x))/2, f_o(x) = (f(x)-f(-x))/2 for x > 0."""
    if f.domain_tag != FULL_LINE:
        raise ArgumentError("even_odd_split needs a full-line function")
    if not f.grid.is_symmetric:
        raise ArgumentError("even_odd_split needs a grid symmetric about 0")
    m = f.grid.n // 2
    half = f.grid.positive_half()
    pos = f.values[..., m:]
    neg = f.values[..., m - 1::-1]
    fe = SampledFn(half, (pos + neg) / 2.0, HALF_LINE)
    fo = SampledFn(half, (pos - neg) / 2.0, HALF_LINE)
    return fe, fo


def assemble_values(even_vals: np.ndarray, odd_vals: np.ndarray) -> np.ndarray:
    """Inverse of even_odd_split: f(x) = f_e(|x|) + sgn(x) f_o(|x|) on a
    symmetric grid, from the parts at the positive nodes, along the last
    axis: one (N/2,) pair gives an (N,) vector, a (T, N/2) pair a (T, N)
    stack."""
    return np.concatenate([(even_vals - odd_vals)[..., ::-1], even_vals + odd_vals], axis=-1)


def multiply_power(f: SampledFn, a: float) -> SampledFn:
    """Pointwise |x|^a * f(x); a negative power demands f = 0 wherever the
    grid comes within 1e-300 of the origin."""
    a = float(a)
    if a == 0.0:
        return f
    x = np.abs(f.grid.points)
    if a < 0.0:
        tiny = x < 1e-300
        if np.any(tiny):
            if np.any(f.values[..., tiny] != 0.0):
                raise DomainError("negative power at a grid point at 0 with f != 0")
            vals = np.where(tiny, 0.0, f.values * np.where(tiny, 1.0, x) ** a)
            return f.with_values(vals)
    return f.with_values(f.values * x ** a)


# ---------------------------------------------------------------------------
# test-function generators (pure closures; sample() realizes them on a grid)

def bump(center: float, radius: float) -> Callable[[np.ndarray], np.ndarray]:
    """exp(-1/(1 - ((x-c)/r)^2)) inside (c-r, c+r), zero outside."""
    if radius <= 0.0:
        raise ArgumentError("bump radius must be positive")

    def fn(x):
        x = np.asarray(x, dtype=float)
        u = (x - center) / radius
        inside = np.abs(u) < 1.0
        out = np.zeros_like(u)
        with np.errstate(divide="ignore", over="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    return fn


def gaussian(center: float, sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    """exp(-(x-c)^2 / (2 sigma^2)), truncated to zero beyond 12 sigma."""
    if sigma <= 0.0:
        raise ArgumentError("gaussian sigma must be positive")

    def fn(x):
        x = np.asarray(x, dtype=float)
        u = (x - center) / sigma
        return np.where(np.abs(u) <= 12.0, np.exp(-0.5 * u ** 2), 0.0)

    return fn


def random_band_modes(seed: int, center: float = 0.0, sigma: float = 0.24,
                      omega_max: float = 8.0) -> Callable:
    """Gaussian-windowed sum of four random cosines at omega_max k/4: nearly
    band-limited, smooth, compactly supported after the 12-sigma truncation."""
    if not 0 <= seed < 2 ** 128:
        raise ArgumentError(f"seed must lie in [0, 2**128), got {seed}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    omegas = omega_max * (np.arange(1, 5) / 4)
    coeff = rng.standard_normal(4) / 2.0
    phase = rng.uniform(0.0, 2.0 * np.pi, 4)
    win = gaussian(center, sigma)

    def fn(x):
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for c, w, p in zip(coeff, omegas, phase):
            acc += c * np.cos(w * x + p)
        return win(x) * acc

    return fn


def sample(fn: Callable, grid: Grid, domain_tag: str = FULL_LINE) -> SampledFn:
    """fn at the grid's nodes, as float64 values unless fn returns complex ones."""
    return SampledFn(grid, fn(grid.points), domain_tag)


@dataclass(frozen=True)
class CorpusMember:
    """A labelled test function; callers sample it on the grid they need."""

    label: str
    fn: Callable


def _combine(label, parts):
    def fn(x, _parts=tuple(parts)):
        x = np.asarray(x, dtype=float)
        acc = np.zeros(x.shape, dtype=np.result_type(*(c for c, _ in _parts)))
        for c, g in _parts:
            acc = acc + c * g(x)
        return acc

    return CorpusMember(label, fn)


def default_corpus(seed: int = 7) -> list[CorpusMember]:
    """Twelve smooth compactly supported members: six bumps, three truncated
    Gaussians, three seeded band-mode sums.  Supports stay inside [-2.9, 2.9];
    bump radii >= 1.6 keep the e^{-sqrt(r xi)} spectral tails an order below
    the identity tolerances even at half the default resolution."""
    members = []
    for c, r in [(0.0, 1.6), (0.45, 1.6), (-0.45, 1.6),
                 (0.9, 1.8), (-0.85, 2.0), (0.3, 2.0)]:
        members.append(_combine(f"bump(c={c:g},r={r:g})", [(1.0, bump(c, r))]))
    for c, s in [(0.0, 0.22), (0.5, 0.2), (-0.3, 0.18)]:
        members.append(_combine(f"gauss(c={c:g},s={s:g})", [(1.0, gaussian(c, s))]))
    for k in range(3):
        members.append(_combine(f"band(seed={seed + k})", [(1.0, random_band_modes(seed + k))]))
    return members


def smooth_corpus(seed: int = 7) -> list[CorpusMember]:
    """Gaussian/band members only; spectrally dead beyond ~40 rad, so the
    identity gate passes even on coarse sweep grids."""
    members = []
    for c, s in [(0.0, 0.3), (0.5, 0.24), (-0.4, 0.2), (0.2, 0.35)]:
        members.append(_combine(f"gauss(c={c:g},s={s:g})", [(1.0, gaussian(c, s))]))
    for k in range(4):
        members.append(_combine(f"band(seed={seed + k})",
                                [(1.0, random_band_modes(seed + k, sigma=0.3, omega_max=6.0))]))
    return members


def away_from_zero_corpus(seed: int = 7) -> list[CorpusMember]:
    """Members supported in {0.2 <= |x| <= 2.9}; used for the conjugation
    and transplantation checks, which avoid the origin."""
    a = bump(1.55, 1.3)
    e = bump(-1.5, 1.3)
    g = gaussian(1.5, 0.1)
    return [
        _combine("one-sided bump", [(1.0, a)]),
        _combine("even pair", [(1.0, a), (1.0, lambda x: a(-np.asarray(x)))]),
        _combine("odd pair", [(1.0, a), (-1.0, lambda x: a(-np.asarray(x)))]),
        _combine("one-sided gauss", [(1.0, g)]),
        _combine("left bump", [(1.0, e)]),
        _combine("complex mix", [(1.0, a), (1j, e)]),
    ]


def moment_cancelled_corpus(grid: Grid) -> list[CorpusMember]:
    """Members for transplantation roundtrips, supported in {0.2 <= |x| <= 4.9}.

    A transplanted function decays only like a power of x; the leading tail
    coefficients are the moments int f_par(y) y^(k/2) dy of the even/odd
    parts.  Each member is a polynomial-modulated bump whose coefficient
    vector annihilates those moments (null space of the moment matrix), so
    recomposition through a moderate pivot grid converges fast."""
    if not grid.is_symmetric:
        raise ArgumentError("moment_cancelled_corpus needs a symmetric grid")
    c, r = 2.55, 2.35
    base = bump(c, r)

    def basis_fn(j):
        return lambda y, j=j: (((np.asarray(y) - c) / r) ** j) * base(y)

    half = grid.positive_half()
    y, w = half.points, half.weights
    bmat = np.stack([basis_fn(j)(y) for j in range(8)])

    def null_coeffs(powers):
        mom = np.stack([(w * y ** p) @ bmat.T for p in powers])
        _, _, vt = np.linalg.svd(mom)
        cv = vt[-1]
        lead = cv[np.argmax(np.abs(cv))]
        return cv / lead

    even_c = null_coeffs([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    odd_c = null_coeffs([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])

    def profile(coeffs):
        def p(x):
            x = np.abs(np.asarray(x, dtype=float))
            return sum(cj * basis_fn(j)(x) for j, cj in enumerate(coeffs))

        return p

    pe, po = profile(even_c), profile(odd_c)
    even = lambda x: pe(x)
    odd = lambda x: np.sign(np.asarray(x, dtype=float)) * po(x)
    mix = lambda x: pe(x) + 1j * np.sign(np.asarray(x, dtype=float)) * po(x)
    return [CorpusMember("moment-free even", even), CorpusMember("moment-free odd", odd),
            CorpusMember("moment-free mix", mix)]


def half_line_corpus(seed: int = 7) -> list[CorpusMember]:
    """Profiles in C_c-infinity of the open half line (support away from 0)."""
    return [
        _combine("bump(1.55,1.25)", [(1.0, bump(1.55, 1.25))]),
        _combine("bump(1.2,0.9)", [(1.0, bump(1.2, 0.9))]),
        _combine("bump(2.0,0.7)", [(1.0, bump(2.0, 0.7))]),
        _combine("gauss(1.5,0.1)", [(1.0, gaussian(1.5, 0.1))]),
        _combine("gauss(0.9,0.06)", [(1.0, gaussian(0.9, 0.06))]),
        _combine(f"band(seed={seed})",
                 [(1.0, random_band_modes(seed, center=1.4, sigma=0.1, omega_max=6.0))]),
    ]


# ---------------------------------------------------------------------------
# CSV serialization: one header line that carries the grid exactly,
#   "# dunkl-osc sampledfn v2 domain=<full|half> lo=<lo> hi=<hi> edges=<e0,e1,...|none>",
# the column line "x,weight,re,im", then one row per node; %.17g round-trips float64.

_DOMAINS = {"full": FULL_LINE, "half": HALF_LINE}
_COLUMNS = "x,weight,re,im"


def write_sampled_fn(path_or_buf, f: SampledFn) -> None:
    if f.values.ndim != 1:
        raise ArgumentError("a sampledfn CSV holds one function, not a stack")
    g = f.grid
    tag = "full" if f.domain_tag == FULL_LINE else "half"
    edges = "none" if g.panel_edges is None else ",".join(f"{e:.17g}" for e in g.panel_edges)
    with _text_file(path_or_buf, "w") as buf:
        buf.write(f"{_CSV_MAGIC} domain={tag} lo={g.lo:.17g} hi={g.hi:.17g} edges={edges}\n")
        buf.write(_COLUMNS + "\n")
        for x, w, v in zip(g.points, g.weights, f.values):
            buf.write(f"{x:.17g},{w:.17g},{v.real:.17g},{v.imag:.17g}\n")


def read_sampled_fn(path_or_buf) -> SampledFn:
    """Strict reader of the format above: any other file raises ArgumentError.
    An all-zero im column reads back as a float64 function."""
    try:
        with _text_file(path_or_buf, "r") as buf:
            head, cols, body = buf.readline().split(), buf.readline().strip(), buf.read()
    except UnicodeDecodeError:
        raise ArgumentError("a sampledfn file must be UTF-8 text") from None
    fields = dict(tok.partition("=")[::2] for tok in head[4:])
    if (head[:4] != _CSV_MAGIC.split() or len(head) != 8 or fields.get("domain") not in _DOMAINS
            or list(fields) != ["domain", "lo", "hi", "edges"]):
        raise ArgumentError(f"expected the header '{_CSV_MAGIC} domain=<full|half> lo=... hi=... "
                            "edges=...' (regenerate files of older versions)")
    if cols != _COLUMNS or not body.strip():
        raise ArgumentError(f"a sampledfn file needs the column line {_COLUMNS} and data rows")
    try:
        data = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2, comments=None)
        lo, hi = float(fields["lo"]), float(fields["hi"])
        edges = None if fields["edges"] == "none" else np.array(fields["edges"].split(","), float)
        if data.shape[1] != 4:
            raise ValueError
    except ValueError:
        raise ArgumentError("sampledfn lo, hi, edges and rows must be numeric, 4 to a row") from None
    values = data[:, 2] + 1j * data[:, 3] if data[:, 3].any() else data[:, 2]
    return SampledFn(Grid(data[:, 0], data[:, 1], lo, hi, edges), values,
                     _DOMAINS[fields["domain"]])
