import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.stats import chi2, kstest, spearmanr

import ordext
from ordext import (GevmParams, ParameterError, PointMassModel, StudyConfig,
                    TrendSpec, joint_log_density_gevm, make_model, run_study,
                    sample_pair, sample_pairs, simulate)
from ordext.dependence import _GRADING, _LogisticModel
from ordext.simulate import _angular_law
from test_dependence import ALL_FAMILY_CASES


def study_config(n_reps=1, n_times=200, seed=5, s=2.0):
    mx = GevmParams(100.0, 4.0, 0.2)
    my = GevmParams(150.0, 2.0, 0.2)
    return StudyConfig(
        n_reps=n_reps, times=np.linspace(0.0, 1.0, n_times),
        margin_x=mx, margin_y=my,
        model=make_model("restricted", c=1.0 / 33.0, s=s),
        trend_x=TrendSpec.linear(100.0, -40.0),
        trend_y=TrendSpec.linear(150.0, -40.0), seed=seed)


def test_sample_pair_scalar():
    model = make_model("restricted", c=0.25, s=2.0)
    rng = np.random.default_rng(0)
    x, y = sample_pair(model, rng)
    assert x > 0 and y > 0
    assert y / (x + y) > 0.25


def test_restricted_sampler_respects_ordering_region():
    model = make_model("restricted", c=0.25, s=2.0)
    rng = np.random.default_rng(1)
    xe, ye = sample_pairs(model, 10_000, rng)
    assert float(np.min(ye / (xe + ye))) > 0.25


def test_independence_sampler_uncorrelated():
    rng = np.random.default_rng(2)
    xe, ye = sample_pairs(PointMassModel.independence(), 10_000, rng)
    rho = spearmanr(xe, ye).statistic
    assert abs(rho) < 0.05


def test_sampler_marginals_exponential():
    rng = np.random.default_rng(3)
    for model in (make_model("restricted", c=0.25, s=2.0),
                  make_model("interval", c1=0.25, c2=0.75, s=2.0)):
        xe, ye = sample_pairs(model, 2000, rng)
        assert kstest(xe, "expon").pvalue > 0.01
        assert kstest(ye, "expon").pvalue > 0.01


def test_perfect_dependence_draws_lie_on_the_diagonal():
    # F steps from 0 to 1 at w = 1/2, the atom every draw takes, and
    # x = T/2 = y exactly
    xe, ye = sample_pairs(PointMassModel.perfect_dependence(), 2000,
                          np.random.default_rng(4))
    assert np.array_equal(xe, ye)


def test_draws_do_not_depend_on_the_block_size(monkeypatch):
    for model in (make_model("restricted", c=0.3, s=1.3),
                  make_model("interval", c1=0.25, c2=0.75, s=2.0),
                  make_model("asymmetric", theta1=0.4, theta2=0.7, s=3.0)):
        draws = []
        for block in (7, 1000):
            monkeypatch.setattr(simulate, "_SOLVE_BLOCK", block)
            draws.append(sample_pairs(model, 1000, np.random.default_rng(6)))
        assert np.array_equal(draws[0][1], draws[1][1])


def force_bisection(monkeypatch, models=()):
    """A panel budget below the cells' count splits no panel, so the cells
    that fail their first check are left uncertified and their draws are
    found by bisection; the given models, which may hold a table, build
    theirs afresh, and get back what they held after the test."""
    monkeypatch.setattr(simulate, "_MAX_PANELS", 0)
    for model in models:
        monkeypatch.setitem(model.__dict__, "_inverse", None)


def test_table_draws_do_not_depend_on_the_block_size(monkeypatch):
    # with the fallback forced a block mixes table and bisection pairs
    # (restricted (0.3, 1.3) leaves 19 % of its u-mass to bisection,
    # interval (0.25, 0.75, 2) none)
    force_bisection(monkeypatch)
    for model in (make_model("restricted", c=0.3, s=1.3),
                  make_model("interval", c1=0.25, c2=0.75, s=2.0)):
        draws = []
        for block in (7, 1000):
            monkeypatch.setattr(simulate, "_SOLVE_BLOCK", block)
            draws.append(sample_pairs(model, 10_000,
                                      np.random.default_rng(6)))
        assert np.array_equal(draws[0][0], draws[1][0])
        assert np.array_equal(draws[0][1], draws[1][1])
        inverse = simulate._inverse_table(model)
        share = np.diff(inverse.edges)[inverse.uncertified[1:]].sum()
        assert share > 1e-3 if model.s == 1.3 else share == 0.0


def test_a_build_out_of_budget_uses_all_of_it(monkeypatch):
    # restricted (0.3, 1.3) starts from its cells and certifies after 30
    # splits; with k < 30 splits left in the budget the build makes k more
    # panels, where a round that would pass the budget once split none
    cells = simulate._cdf_table(make_model("restricted", c=0.3, s=1.3))[0]
    panels, shares = [], []
    for k in (0, 1, 7, 29):
        monkeypatch.setattr(simulate, "_MAX_PANELS", cells.size - 1 + k)
        inverse = simulate._build_inverse(make_model("restricted", c=0.3,
                                                     s=1.3))
        panels.append(inverse.columns.shape[1] - 1)
        shares.append(np.diff(inverse.edges)[inverse.uncertified[1:]].sum())
    assert panels == [panels[0] + k for k in (0, 1, 7, 29)]
    assert shares[0] > shares[1] > shares[2] > shares[3] > 0.0


def counted_points(monkeypatch):
    """The sizes of the a_a_prime_h calls of the logistic models, as a
    list that grows with each call."""
    points, kernel = [], _LogisticModel.a_a_prime_h

    def counted(self, w):
        points.append(np.size(w))
        return kernel(self, w)

    monkeypatch.setattr(_LogisticModel, "a_a_prime_h", counted)
    return points


@pytest.mark.parametrize("family, params", [
    ("restricted", {"c": 1.0 / 33.0, "s": 2.0}),
    ("interval", {"c1": 0.25, "c2": 0.75, "s": 2.0}),
])
def test_table_draws_evaluate_no_kernel_point(monkeypatch, family, params):
    # the benchmark models: the first call on a fresh model evaluates the
    # kernel only to build its table, and the next ones, of any size,
    # evaluate it nowhere
    points = counted_points(monkeypatch)
    simulate._build_inverse(make_model(family, **params))
    build = sum(points)
    model = make_model(family, **params)
    points.clear()
    sample_pairs(model, 100_000, np.random.default_rng(3))
    assert sum(points) == build > 0
    points.clear()
    for n in (1, 300, 10_000):
        sample_pairs(model, n, np.random.default_rng(4))
    assert sum(points) == 0


@pytest.mark.parametrize("n", [1, 300, 30_000])
def test_a_kept_table_draws_what_a_fresh_model_draws(n):
    held = make_model("restricted", c=0.3, s=1.3)
    sample_pairs(held, 10_000, np.random.default_rng(0))
    fresh = make_model("restricted", c=0.3, s=1.3)
    for mine, ref in zip(sample_pairs(held, n, np.random.default_rng(9)),
                         sample_pairs(fresh, n, np.random.default_rng(9))):
        assert np.array_equal(mine, ref)


@pytest.mark.parametrize("family, params, fractions", [
    ("restricted", {"c": 0.25, "s": 2.0}, (0.3, 0.5, 0.9)),
    ("restricted", {"c": 1.0 / 33.0, "s": 1.5}, (0.1, 0.5, 0.9)),
    ("upper", {"c": 0.75, "s": 2.0}, (0.1, 0.5, 0.7)),
    ("interval", {"c1": 0.25, "c2": 0.75, "s": 2.0}, (0.3, 0.5, 0.7)),
    ("asymmetric", {"theta1": 0.4, "theta2": 0.7, "s": 3.0}, (0.1, 0.5, 0.9)),
])
def test_log_survival_slope_matches_central_difference(family, params,
                                                       fractions):
    # W = Y/(X+Y) has the survival 1 - F and the density g = F', so the
    # slope of log(1 - F) is -g/(1 - F)
    model = make_model(family, **params)
    w = np.array(fractions)
    step = 1e-6 * w
    f, g = _angular_law(model, w)[:2]
    fd = (np.log1p(-_angular_law(model, w + step)[0])
          - np.log1p(-_angular_law(model, w - step)[0])) / (2.0 * step)
    assert np.allclose(fd, -g / (1.0 - f), rtol=1e-6, atol=1e-8)


# every family case, the two atomic s = 1 cases and independence
LAW_MODELS = ALL_FAMILY_CASES + [make_model("restricted", c=0.25, s=1.0),
                                 make_model("interval", c1=0.25, c2=0.75,
                                            s=1.0),
                                 PointMassModel.independence()]


def test_draws_follow_the_joint_survival():
    # Pr(X > x, Y > y) = exp(-(x+y) A(y/(x+y))) on a 3 x 3 grid; 117
    # binomial z-scores from fixed seeds, none beyond 4
    n = 50_000
    px, py = (a.ravel() for a in np.meshgrid([0.2, 0.7, 2.0],
                                             [0.2, 0.7, 2.0]))
    for seed, model in enumerate(LAW_MODELS):
        xe, ye = sample_pairs(model, n, np.random.default_rng(seed))
        p = np.exp(-(px + py) * model.a(py / (px + py)))
        hits = np.mean((xe[:, None] > px) & (ye[:, None] > py), axis=0)
        z = (hits - p) / np.sqrt(p * (1.0 - p) / n)
        assert np.max(np.abs(z)) <= 4.0, (model.params, z)


def test_newton_draws_follow_the_joint_survival(monkeypatch):
    # the same check with the fallback forced: every cell that fails its
    # first check is left to bisection
    force_bisection(monkeypatch, LAW_MODELS)
    test_draws_follow_the_joint_survival()


def old_graded_cuts(model):
    edges = np.array([0.0, *model.split_points(), 1.0])
    lo, hi = edges[:-1, None], edges[1:, None]
    s_lo, s_hi = model.support()
    width = np.where((lo >= s_lo) & (hi <= s_hi), hi - lo, 0.0)
    return np.unique(np.concatenate([edges, (lo + width * _GRADING).ravel(),
                                     (hi - width * _GRADING).ravel()]))


@pytest.mark.parametrize("model", LAW_MODELS
                         + [PointMassModel.perfect_dependence()])
def test_cuts_and_table_match_the_np_unique_forms(model):
    # the one-sort dedup and the searchsorted membership give the arrays
    # np.unique and np.isin gave, bit for bit
    cuts = old_graded_cuts(model)
    assert model.graded_cuts().tobytes() == cuts.tobytes()
    atoms = [q for q, m in model.point_masses() if 0.0 < q < 1.0 and m > 0.0]
    cuts = np.unique(np.concatenate([cuts, simulate._EVEN_CUTS,
                                     np.nextafter(atoms, 0.0)]))
    f, _, a, _, _ = _angular_law(model, cuts)
    old = (cuts, np.maximum.accumulate(np.clip(f, 0.0, 1.0)), a,
           np.isin(cuts, atoms))
    for new, ref in zip(simulate._cdf_table(model), old, strict=True):
        assert new.dtype == ref.dtype and new.tobytes() == ref.tobytes()


NUMPY_MA_IN_CHILD = """
import sys
import numpy as np
import ordext
model = ordext.make_model("interval", c1=0.25, c2=0.75, s=1.0)
xe, ye = ordext.sample_pairs(model, 2000, np.random.default_rng(1))
ordext.pickands_curve(xe, ye)
ordext.v_numeric(ordext.ExpPair(1.0, 2.0), model)
print("numpy.ma" in sys.modules)
"""


def test_sampler_estimator_and_oracle_leave_numpy_ma_unloaded():
    src = str(Path(ordext.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", NUMPY_MA_IN_CHILD],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_sample_pairs_heap_peak():
    # the four random numbers per pair take 3.05 MiB; a block's draws and
    # the build of the inverse table add at most 2.16 MiB to them
    model = make_model("restricted", c=1.0 / 33.0, s=2.0)
    tracemalloc.start()
    try:
        sample_pairs(model, 100_000, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.21 * 2 ** 20


def test_newton_sample_pairs_heap_peak(monkeypatch):
    # the same bound with the fallback forced, where a block's bisection
    # steps replace its table reads
    force_bisection(monkeypatch)
    test_sample_pairs_heap_peak()


def test_sampler_size_validation():
    with pytest.raises(ParameterError):
        sample_pairs(make_model("restricted", c=0.25, s=2.0), 0,
                     np.random.default_rng(0))


def test_run_study_deterministic():
    series_a, summary_a = run_study(study_config(n_reps=3, n_times=50))
    series_b, summary_b = run_study(study_config(n_reps=3, n_times=50))
    for sa, sb in zip(series_a, series_b):
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.y, sb.y)
    assert np.array_equal(summary_a.mean_x, summary_b.mean_x)
    # distinct replicate streams produce distinct draws
    assert not np.allclose(series_a[0].x, series_a[1].x)


def test_run_study_orders_every_point():
    series, summary = run_study(study_config(n_reps=2, n_times=500))
    for s in series:
        assert s.is_ordered()
    assert np.all(summary.ordering_fraction == 1.0)


def test_run_study_tracks_mean_trajectory():
    cfg = study_config(n_reps=50, n_times=60, seed=9)
    _, summary = run_study(cfg)
    sigma, xi = 4.0, 0.2
    offset = (sigma / xi) * (1.0 - gamma_fn(1.0 - xi))
    sd = (sigma / xi) * math.sqrt(gamma_fn(1.0 - 2 * xi) - gamma_fn(1.0 - xi) ** 2)
    se = sd / math.sqrt(50)
    target = 100.0 - 40.0 * summary.times + offset
    within = np.abs(summary.mean_x - target) <= 3.0 * se
    assert float(np.mean(within)) >= 0.95


def chi_square_density_check(n_samples, seed, bins=10):
    """Histogram of sampled data-scale pairs against density cell masses.

    Builds a box whose cells sit strictly inside the positive-density
    region, integrates exp(joint_log_density) over each cell with a
    Gauss-Legendre rule, and lumps everything outside the box into one
    extra category.  Returns the chi-square p-value.
    """
    mx = GevmParams(100.0, 4.0, 0.2)
    my = GevmParams(150.0, 2.0, 0.2)
    c = 1.0 / 33.0
    model = make_model("restricted", c=c, s=2.0)
    cfg = StudyConfig(n_reps=1, times=np.zeros(n_samples), margin_x=mx,
                      margin_y=my, model=model, seed=seed)
    series, _ = run_study(cfg)
    x, y = series[0].x, series[0].y

    x_edges = np.linspace(np.quantile(x, 0.06), np.quantile(x, 0.94), bins + 1)
    y_edges = np.linspace(np.quantile(y, 0.06), np.quantile(y, 0.94), bins + 1)

    nodes, weights = np.polynomial.legendre.leggauss(16)
    masses = np.zeros((bins, bins))
    for i in range(bins):
        xs = 0.5 * (x_edges[i] + x_edges[i + 1]) + \
            0.5 * (x_edges[i + 1] - x_edges[i]) * nodes
        wx = 0.5 * (x_edges[i + 1] - x_edges[i]) * weights
        for j in range(bins):
            ys = 0.5 * (y_edges[j] + y_edges[j + 1]) + \
                0.5 * (y_edges[j + 1] - y_edges[j]) * nodes
            wy = 0.5 * (y_edges[j + 1] - y_edges[j]) * weights
            xg, yg = np.meshgrid(xs, ys, indexing="ij")
            ld = joint_log_density_gevm(xg.ravel(), yg.ravel(), mx, my, model)
            dens = np.where(np.isfinite(ld), np.exp(ld), 0.0).reshape(16, 16)
            masses[i, j] = float(wx @ dens @ wy)

    counts, _, _ = np.histogram2d(x, y, bins=[x_edges, y_edges])
    observed = np.append(counts.ravel(), n_samples - counts.sum())
    expected = np.append(masses.ravel(), 1.0 - masses.sum()) * n_samples
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return float(chi2.sf(stat, df=observed.size - 1))


def test_sampler_matches_density_cells():
    assert chi_square_density_check(30_000, seed=17) > 0.001


def test_sampler_reproduces_dependence_curve():
    model = make_model("restricted", c=0.25, s=2.0)
    rng = np.random.default_rng(23)
    xe, ye = sample_pairs(model, 5000, rng)
    from ordext import pickands_modified
    grid = np.linspace(0.0, 1.0, 101)
    assert float(np.max(np.abs(pickands_modified(xe, ye, grid) - model.a(grid)))) <= 0.05


def test_data_past_the_float_range_are_refused():
    # a location near the float limit plus a large draw once warned
    # "overflow encountered in add" inside run_study
    margin = GevmParams(1e308, 1e308, 0.0)
    cfg = StudyConfig(n_reps=1, times=[0.0], margin_x=margin,
                      margin_y=GevmParams(1e308, 1.0, 0.0),
                      model=make_model("restricted", c=0.25, s=2.0), seed=7)
    with pytest.raises(ordext.InputError, match="x has a NaN or infinite"):
        run_study(cfg)
