import numpy as np
from scipy import stats as scipy_stats

from gatedoc.stats import welch_ttest


def test_welch_ttest_matches_scipy():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n_a, n_b = rng.integers(2, 30, size=2)
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 3.0), size=n_a)
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.1, 3.0), size=n_b)
        t, p = welch_ttest(a, b)
        expected = scipy_stats.ttest_ind(a, b, equal_var=False)
        np.testing.assert_allclose(t, expected.statistic, rtol=1e-10)
        np.testing.assert_allclose(p, expected.pvalue, rtol=1e-10)
