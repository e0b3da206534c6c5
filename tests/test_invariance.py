"""Invariances of the restricted fit, checked on pinned series.

The model has exact symmetries, so a well-posed fit should honour them
to its stopping tolerance:

- shifting both series by b shifts both trends by b and leaves every
  other parameter and the penalized log-likelihood as they were;
- scaling both series by a > 0, with the smoothing weights divided by a^2,
  scales the trends and both sigmas by a and moves the penalized
  log-likelihood by -2 n log a (the Jacobian of the margins);
- reversing time reverses the trends and leaves the rest as it was.

Each case fits the series as given and as transformed, undoes the
transform on the second fit, and checks the penalized log-likelihood to
1e-6 (1 + |l|), the scalars (s, sigma_x, sigma_y, xi and both boundary
estimates) to a relative 2e-3, and the trends to 1e-2 in the data's
units (sigma_y is about 2).  The series are four replicates of the
reference design saved in tests/data/invariance_series.csv, so that a
change to the sampler cannot move the cases.

The fit itself is not symmetric in four places, which is why a case can
land on another optimum:

- trend_penalized's difference step 1e-5 max(1, |g|) is absolute below
  |g| = 1 and relative above, so it changes with a shift and a scale;
- the stall tolerances are relative to 1 + |l| (OUTER_TOL, TREND_TOL and
  the trend stage's gradient bar) or to max(1, |l|) (L-BFGS-B's ftol),
  and L-BFGS-B's gtol is absolute, so they change with the -2 n log a of
  a scale and with the gradient's 1/a;
- the sigma bounds of the scalar stage, [1e-8, 1e8], are absolute;
- robust_scale's floor of 1e-3 on the starting sigmas is absolute.

The cases that fail are marked strict xfail with their measured gaps.
"""

import functools
import math
import os

import numpy as np
import pytest

from ordext import BivariateSeries, fit_restricted
from ordext.diagnostics import read_csv

DATA = os.path.join(os.path.dirname(__file__), "data",
                    "invariance_series.csv")
LAM = 1000.0
SHIFT, SCALE = 0.1, 2.0
SCALARS = ("s", "sigma_x", "sigma_y", "xi", "c_hat", "c_hat_pickands")


def load_series():
    _meta, header, columns = read_csv(DATA)
    cols = dict(zip(header, columns))
    return {int(name[2:]): BivariateSeries(cols["t"], cols[name],
                                           cols["y" + name[1:]])
            for name in header if name.startswith("x_")}


SERIES = load_series()


# each transform: the transformed series and smoothing weight, and how to
# undo it on the fit: the log-likelihood offset, the sigma factor and the
# map of a trend
TRANSFORMS = {
    "shift": (lambda s: BivariateSeries(s.t, s.x + SHIFT, s.y + SHIFT), LAM,
              lambda n: 0.0, 1.0, lambda g: g - SHIFT),
    "scale": (lambda s: BivariateSeries(s.t, SCALE * s.x, SCALE * s.y),
              LAM / SCALE ** 2, lambda n: 2.0 * n * math.log(SCALE), SCALE,
              lambda g: g / SCALE),
    "reverse": (lambda s: BivariateSeries(1.0 - s.t, s.x, s.y), LAM,
                lambda n: 0.0, 1.0, lambda g: g[::-1]),
}


@functools.cache
def fitted(replicate, transform=None):
    """The fit of a replicate, transformed as named, each fitted once."""
    if transform is None:
        return fit_restricted(SERIES[replicate], LAM, LAM)
    build, lam = TRANSFORMS[transform][:2]
    return fit_restricted(build(SERIES[replicate]), lam, lam)


def gaps(replicate, transform):
    """Relative log-likelihood gap, worst relative scalar gap and worst
    trend gap of the transformed fit, the transform undone."""
    _build, _lam, offset, factor, undo = TRANSFORMS[transform]
    base, moved = fitted(replicate), fitted(replicate, transform)
    loglik = (moved.loglik + offset(len(SERIES[replicate])) - base.loglik) \
        / (1.0 + abs(base.loglik))
    scalars = max(
        abs(getattr(moved, k) / (factor if k.startswith("sigma") else 1.0)
            - getattr(base, k)) / abs(getattr(base, k)) for k in SCALARS)
    trends = max(float(np.max(np.abs(undo(moved.g_x) - base.g_x))),
                 float(np.max(np.abs(undo(moved.g_y) - base.g_y))))
    return loglik, scalars, trends


def case(replicate, transform, gap=None):
    marks = () if gap is None else pytest.mark.xfail(
        strict=True, reason=f"replicate {replicate}, {transform}: {gap}")
    return pytest.param(replicate, transform, marks=marks,
                        id=f"{transform}-{replicate}")


@pytest.mark.parametrize("replicate, transform", [
    case(0, "shift"), case(0, "scale"), case(0, "reverse"),
    case(2, "shift", "loglik -5.1e-4 (1 + |l|), c_hat 4.7e-2 "
         "relative, trends 0.20"),
    case(2, "scale", "loglik -2.3e-3 (1 + |l|), c_hat 1.4e-1 "
         "relative, trends 0.82"),
    case(2, "reverse", "loglik +1.4e-5 (1 + |l|), c_hat 3.2e-2 "
         "relative, trends 0.29"),
    case(5, "shift"), case(5, "scale"), case(5, "reverse"),
    case(7, "shift"),
    case(7, "scale", "loglik -2.1e-5 (1 + |l|), c_hat 1.5e-2 "
         "relative, trends 0.060"),
    case(7, "reverse", "loglik +1.1e-5 (1 + |l|), c_hat 1.1e-2 "
         "relative, trends 3.5e-3"),
])
def test_fit_invariance(replicate, transform):
    loglik, scalars, trends = gaps(replicate, transform)
    assert abs(loglik) <= 1e-6
    assert scalars <= 2e-3
    assert trends <= 1e-2
