"""Statistics helpers for the evaluation: Student/Welch t-tests (the
paper cites Gosset [23] for its latency comparison) and CDF utilities
for Figure 12b."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass
class TTestResult:
    """Outcome of a two-sample t-test."""

    statistic: float
    dof: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def variance(xs: Sequence[float]) -> float:
    """Unbiased sample variance."""
    if len(xs) < 2:
        return 0.0
    mu = mean(xs)
    return sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)


def _student_t_sf(t: float, dof: float) -> float:
    """Survival function of the t distribution, ``P(T > t)`` for
    ``dof`` degrees of freedom, through the regularized incomplete
    beta function."""
    tail = 0.5 * _reg_inc_beta(dof / 2.0, 0.5, dof / (dof + t * t))
    return tail if t >= 0 else 1.0 - tail


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    The continued fraction converges fast below ``(a+1)/(a+b+2)``;
    above it, the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) moves the
    evaluation there.
    """
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    if x < (a + 1) / (a + b + 2):
        return _beta_cf(a, b, x)
    return 1.0 - _beta_cf(b, a, 1.0 - x)


def _beta_cf(a: float, b: float, x: float) -> float:
    """I_x(a, b) by its continued fraction (modified Lentz)."""
    tiny = 1e-300
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            numerator = 1.0
        elif i % 2 == 0:
            numerator = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            numerator = -((a + m) * (a + b + m) * x /
                          ((a + 2 * m) * (a + 2 * m + 1)))
        d = 1.0 + numerator * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + numerator / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            break
    return min(max(front * (f - 1.0), 0.0), 1.0)


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Welch's two-sample t-test (unequal variances), two-sided."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least two observations")
    va, vb = variance(a), variance(b)
    na, nb = len(a), len(b)
    se2 = va / na + vb / nb
    if se2 == 0:
        # Identical constant samples: no detectable difference.
        return TTestResult(statistic=0.0, dof=float(na + nb - 2), p_value=1.0)
    t = (mean(a) - mean(b)) / math.sqrt(se2)
    dof = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * _student_t_sf(abs(t), dof)
    return TTestResult(statistic=t, dof=dof, p_value=min(p, 1.0))


def student_t_test(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Student's pooled-variance two-sample t-test, two-sided."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("both samples need at least two observations")
    na, nb = len(a), len(b)
    sp2 = (((na - 1) * variance(a) + (nb - 1) * variance(b))
           / (na + nb - 2))
    if sp2 == 0:
        return TTestResult(statistic=0.0, dof=float(na + nb - 2), p_value=1.0)
    t = (mean(a) - mean(b)) / math.sqrt(sp2 * (1 / na + 1 / nb))
    dof = float(na + nb - 2)
    p = 2.0 * _student_t_sf(abs(t), dof)
    return TTestResult(statistic=t, dof=dof, p_value=min(p, 1.0))


def cdf_points(samples: Sequence[float],
               num_points: int = 0) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, probability) pairs (Figure 12b)."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    points = [(value, (i + 1) / n) for i, value in enumerate(ordered)]
    if num_points and n > num_points:
        step = n / num_points
        points = [points[min(int(i * step), n - 1)]
                  for i in range(num_points)]
        if points[-1] != (ordered[-1], 1.0):
            points.append((ordered[-1], 1.0))
    return points


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not samples:
        raise ValueError("empty sample")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac
