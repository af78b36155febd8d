"""Welch's unequal-variance t-test with a two-sided p-value.

The p-value comes from the Student-t survival function expressed
through the regularized incomplete beta function, evaluated with the
Lentz continued fraction; degrees of freedom follow Welch-Satterthwaite.
"""

from __future__ import annotations

import math

from .errors import UsageError

_MAX_ITER = 300
_CF_EPS = 3e-15
_TINY = 1e-300


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return h  # converged to working precision long before this in practice


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise UsageError(f"betainc_reg needs positive shape parameters, got {a}, {b}")
    if not 0.0 <= x <= 1.0:
        raise UsageError(f"betainc_reg needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf_two_sided(t, df):
    """P(|T_df| >= |t|) via I_{df/(df+t^2)}(df/2, 1/2)."""
    if df <= 0:
        raise UsageError(f"degrees of freedom must be positive, got {df}")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return betainc_reg(df / 2.0, 0.5, x)


def _mean(xs):
    return sum(xs) / len(xs)


def _sample_var(xs, m):
    return sum((x - m) ** 2 for x in xs) / (len(xs) - 1)


def welch_ttest(a, b):
    """(t, two-sided p) for two independent samples with unequal variances.

    Identical samples (or zero variance with equal means) give exactly
    (0.0, 1.0); zero variance with different means gives an infinite t
    and p = 0.  Swapping the samples negates t and preserves p.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if len(a) < 2 or len(b) < 2:
        raise UsageError("welch_ttest needs at least two values per sample")
    ma, mb = _mean(a), _mean(b)
    va, vb = _sample_var(a, ma), _sample_var(b, mb)
    sa, sb = va / len(a), vb / len(b)
    se2 = sa + sb
    if se2 == 0.0:
        if ma == mb:
            return 0.0, 1.0
        return math.copysign(math.inf, ma - mb), 0.0
    t = (ma - mb) / math.sqrt(se2)
    if t == 0.0:
        return 0.0, 1.0
    df = se2 * se2 / (sa * sa / (len(a) - 1) + sb * sb / (len(b) - 1))
    return t, student_t_sf_two_sided(t, df)
