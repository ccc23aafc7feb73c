import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dunkl_osc import FULL_LINE, Resolution, SampledFn, bump, default_corpus, sample
from dunkl_osc.harness import IDENTITIES


def blas_threads():
    """The thread count of the OpenBLAS bundled in the numpy wheel, or None
    when the library or its getter is not found."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"))
    try:
        get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


def run_fresh(code: str, **env) -> str:
    """The stdout of code run in a fresh interpreter, with src/ and tests/ on
    its path and no BLAS thread variable but those given in env; it must
    exit 0."""
    here = Path(__file__).resolve().parent
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**base, **env, "PYTHONPATH": os.pathsep.join(
                             [str(here.parent / "src"), str(here)])})
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture(scope="session")
def res512():
    return Resolution(8, 32, 3.0)


@pytest.fixture(scope="session")
def space512(res512):
    return res512.space_grid()


@pytest.fixture(scope="session")
def freq512(res512):
    return res512.freq_grid()


@pytest.fixture(scope="session")
def corpus512():
    return default_corpus(7)


@pytest.fixture(scope="session")
def one_bump(space512):
    return sample(bump(0.3, 1.4), space512, FULL_LINE)


@pytest.fixture(scope="session")
def res_hi():
    return Resolution(24, 32, 3.0)


@pytest.fixture(scope="session")
def space_hi(res_hi):
    return res_hi.space_grid()


@pytest.fixture(scope="session")
def freq_hi(res_hi):
    return res_hi.freq_grid()


@pytest.fixture(scope="session")
def corpus_hi():
    return default_corpus(7)


def stack_of(members, grid):
    """The corpus members sampled on grid, as one (B, N) SampledFn."""
    return SampledFn(grid, np.stack([sample(m.fn, grid).values for m in members]))


def l2_weighted(vals, grid, alpha):
    meas = grid.weights * np.abs(grid.points) ** (2.0 * alpha + 1.0)
    return float(np.sqrt(np.sum(meas * np.abs(vals) ** 2)))


# residuals_or_ratios, one list per report (null for NaN), of the N=512, seed-7
# sweep runs that the harness and acceptance tests make and of the identity
# suite on the light N=384 profile at seed 3
PINNED = {kind: reports
          for name in ("sweep_reports_n512_seed7.json", "identity_reports_small_seed3.json")
          for kind, reports in json.loads((Path(__file__).parent / name).read_text()).items()}


def assert_pinned(kind, reports):
    """The reports carry the pinned labels, in order, and values near the
    pinned ones (NaN where null).  A sweep value is held to 1e-12 relative,
    but dilation-deviation, |ratio / ratio' - 1| for ratios near 1, to 1e-12
    absolute: 1e-12 of the ratio it measures.  An identity residual is held
    to 1e-6 of its IDENTITIES tolerance, absolute: most residuals are
    round-off near one ulp, whose last bits move with the BLAS kernel and
    the summation order."""
    want = PINNED[kind]
    assert ([[k for k, _ in r.residuals_or_ratios] for r in reports]
            == [[k for k, _ in w] for w in want])
    for r, w in zip(reports, want):
        for (label, got), (_, ref) in zip(r.residuals_or_ratios, w):
            ref = np.nan if ref is None else ref
            if kind == "identities":
                rtol, atol = 0.0, 1e-6 * IDENTITIES[r.name][2]
            else:
                rtol, atol = (0.0, 1e-12) if label == "dilation-deviation" else (1e-12, 0.0)
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=atol,
                                       err_msg=f"{r.name}: {label}")
