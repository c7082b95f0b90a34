"""The verdicts of `stochastic` keep their stated false-alarm rates and see what they claim to."""

import math

import numpy as np

from stochastic import variance_ratio_verdict, z_verdict


def lognormal_groups(rng, k, n, sd, shift=0.0):
    # logs of unbiased estimates of 1: normal with mean -sd^2 / 2
    return [(rng.normal(shift - sd * sd / 2, sd, n), 0.0) for _ in range(k)]


def test_z_verdict_fails_a_correct_route_at_most_at_its_rate():
    rng = np.random.default_rng(1)
    for k, n, sd in [(1, 10, 0.2), (6, 8, 0.1)]:
        trials, alpha = 1000, 0.1
        rate = np.mean([not z_verdict(lognormal_groups(rng, k, n, sd), alpha).ok
                        for _ in range(trials)])
        # within 3 binomial sd of alpha, and not so conservative that it loses power
        assert 0.6 * alpha <= rate <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials), (k, rate)


def test_pooled_check_sees_a_shared_bias_that_no_group_shows():
    rng = np.random.default_rng(2)
    # 30 groups each 1.5 standard errors off: no |z| near the worst-z bound,
    # but their pooled sum 1.5 sqrt(30) = 8.2 is far past its own
    groups = lognormal_groups(rng, 30, 40, 0.1, shift=1.5 * 0.1 / math.sqrt(40))
    verdict = z_verdict(groups, alpha=0.001)
    assert not verdict.ok and "pooled z +" in verdict.detail
    assert z_verdict(lognormal_groups(rng, 30, 40, 0.1), alpha=0.001).ok


def test_a_collapsed_replicate_fails_the_verdict():
    groups = [([-1.0, -1.1, -math.inf, -0.9], -1.0)]
    assert not z_verdict(groups, alpha=0.001).ok


def test_variance_ratio_verdict_keeps_its_rate_and_sees_a_wrong_ratio():
    rng = np.random.default_rng(3)

    def pairs(ratio):
        return [(rng.normal(0.0, math.sqrt(ratio) * s, 12), rng.normal(0.0, s, 12))
                for s in rng.uniform(0.05, 0.3, 11)]
    trials, alpha = 1000, 0.1
    rate = np.mean([not variance_ratio_verdict(pairs(8.0), 8.0, alpha).ok for _ in range(trials)])
    assert 0.6 * alpha <= rate <= alpha + 3 * math.sqrt(alpha * (1 - alpha) / trials)
    # variance that falls as 1/2 per 8x particles is not 1/N
    assert not variance_ratio_verdict(pairs(2.0), 8.0, alpha=0.001).ok
