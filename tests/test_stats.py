"""Statistics helper tests, cross-checked against scipy."""

import random
import sys

import pytest
from scipy import stats as scipy_stats

from repro.stats import (_student_t_sf, cdf_points, mean, percentile,
                         student_t_test, variance, welch_t_test)


def test_mean_and_variance():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert mean(xs) == 2.5
    assert variance(xs) == pytest.approx(5.0 / 3.0)
    assert variance([1.0]) == 0.0


def test_welch_matches_scipy():
    rng = random.Random(1)
    a = [rng.gauss(10, 2) for _ in range(50)]
    b = [rng.gauss(11, 3) for _ in range(40)]
    ours = welch_t_test(a, b)
    ref = scipy_stats.ttest_ind(a, b, equal_var=False)
    assert ours.statistic == pytest.approx(ref.statistic, rel=1e-9)
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)


def test_student_matches_scipy():
    rng = random.Random(2)
    a = [rng.gauss(5, 1) for _ in range(30)]
    b = [rng.gauss(5.2, 1) for _ in range(30)]
    ours = student_t_test(a, b)
    ref = scipy_stats.ttest_ind(a, b, equal_var=True)
    assert ours.statistic == pytest.approx(ref.statistic, rel=1e-9)
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)


@pytest.mark.parametrize("dof", [1, 2.5, 4, 9.7, 30, 97.6, 400, 5000])
def test_t_survival_function_matches_scipy(dof, monkeypatch):
    """The in-repo survival function, as a plain install (no scipy)
    runs it, across both branches of the incomplete beta: small |t|
    (the upper one, whose p-values once came out as 1 - p) and the
    tails."""
    grid = [x / 8 for x in range(-64, 65)]
    want = [scipy_stats.t.sf(t, dof) for t in grid]
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)
    for t, sf in zip(grid, want):
        assert _student_t_sf(t, dof) == pytest.approx(sf, abs=1e-9), t


def test_identical_samples_not_significant():
    a = [1.0, 2.0, 3.0] * 10
    result = welch_t_test(a, list(a))
    assert result.p_value > 0.99
    assert not result.significant()


def test_clearly_different_samples_significant():
    a = [random.Random(3).gauss(0, 1) for _ in range(100)]
    b = [x + 5 for x in a]
    assert welch_t_test(a, b).significant()


def test_constant_samples_handled():
    result = welch_t_test([5.0] * 10, [5.0] * 10)
    assert result.p_value == 1.0


def test_too_few_observations_rejected():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])


def test_cdf_points_properties():
    samples = [3.0, 1.0, 2.0]
    points = cdf_points(samples)
    values = [v for v, _ in points]
    probs = [p for _, p in points]
    assert values == sorted(values)
    assert probs[-1] == 1.0
    assert all(0 < p <= 1 for p in probs)


def test_cdf_points_downsampling():
    samples = list(range(1000))
    points = cdf_points([float(x) for x in samples], num_points=50)
    assert len(points) <= 52
    assert points[-1][1] == 1.0


def test_cdf_empty():
    assert cdf_points([]) == []


def test_percentile():
    xs = [float(x) for x in range(101)]
    assert percentile(xs, 0) == 0
    assert percentile(xs, 50) == 50
    assert percentile(xs, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
