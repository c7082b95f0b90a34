"""Verdicts on Monte Carlo estimates at a stated false-alarm rate.

A check of a stochastic route against a reference should fail on a correct
route with a known probability over random streams, not pass or fail by the
luck of one stream.  Each verdict here takes a family-wise false-alarm rate
``alpha`` and fails a correct route with probability at most ``alpha``.

`z_verdict` compares groups of independent replicate estimates with their
references.  It splits ``alpha`` between two tests (Bonferroni):

* worst z: each group's statistic t = (mean - reference) / (sd / sqrt(n))
  is Student-t with n - 1 degrees of freedom, and the largest |t| must stay
  within the two-sided quantile at alpha / 2 / k for k groups;
* pooled bias: each t is carried to a standard normal through its own
  distribution function, and their sum over sqrt(k) must stay within the
  two-sided normal quantile at alpha / 2.  It catches a bias shared by the
  groups that is too small for any one of them to show.

With one group the two tests are one, and it gets all of ``alpha``.

A particle filter's likelihood estimate is unbiased, so the log of it sits
below the log likelihood: it is asymptotically normal with mean -sigma^2 / 2
(Berard, Del Moral & Doucet 2014, a lognormal central limit theorem for
particle approximations of normalizing constants).  For such estimates
(``log_of_unbiased``, the default) the verdict adds s^2 / 2 to each group's
mean, and that term's variance to the squared standard error, before
comparing; what is left is of higher order in sigma, and the stated rate
holds while each group's sd is small, say below 0.3.  Any estimate that is
not finite (a collapsed replicate) fails the verdict.

`variance_ratio_verdict` checks that variances scale as stated, for example
as 1 / N with the particle count N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma, psi
from scipy.stats import norm
from scipy.stats import t as student_t


@dataclass(frozen=True)
class Verdict:
    """Whether a family of estimates is consistent with its references at rate ``alpha``."""

    ok: bool
    alpha: float
    detail: str

    def __str__(self):
        return f"{'pass' if self.ok else 'FAIL'} at false-alarm rate {self.alpha:g}: {self.detail}"


def z_verdict(groups, alpha: float, log_of_unbiased: bool = True) -> Verdict:
    """Worst-z and pooled-bias verdict on ``(estimates, reference)`` groups at rate ``alpha``."""
    z, df = [], []
    for estimates, reference in groups:
        x = np.asarray(estimates, dtype=float)
        if len(x) < 2 or not np.isfinite(x).all():
            return Verdict(False, alpha, f"a group has {len(x)} estimates, "
                                         f"{int((~np.isfinite(x)).sum())} of them not finite")
        n, var = len(x), float(x.var(ddof=1))
        diff, se2 = float(x.mean()) - reference, var / n
        if log_of_unbiased:  # s^2 / 2 has variance sigma^4 / (2 (n - 1)) for normal estimates
            diff, se2 = diff + var / 2, se2 + var * var / (2 * (n - 1))
        se = math.sqrt(se2)
        z.append(diff / se if se > 0 else math.copysign(math.inf, diff) if diff else 0.0)
        df.append(n - 1)
    z, df, k = np.array(z), np.array(df), len(z)
    share = alpha if k == 1 else alpha / 2
    bounds = student_t.isf(share / 2 / k, df)
    ok = bool((np.abs(z) <= bounds).all())
    detail = f"worst |z| {np.abs(z).max():.2f} (bound {bounds.min():.2f}"
    detail += f" to {bounds.max():.2f})" if bounds.max() > bounds.min() else ")"
    if k > 1:
        # each t carried to N(0, 1) by its own CDF, read from the nearer tail,
        # then Stouffer's sum
        normal = np.where(z > 0, norm.isf(student_t.sf(z, df)), norm.ppf(student_t.cdf(z, df)))
        pooled = float(normal.sum() / math.sqrt(k))
        pooled_bound = float(norm.isf(share / 2))
        ok = ok and abs(pooled) <= pooled_bound
        detail += f", pooled z {pooled:+.2f} (bound {pooled_bound:.2f})"
    detail += f", z = [{', '.join(f'{v:+.2f}' for v in z)}]"
    return Verdict(ok, alpha, detail)


def variance_ratio_verdict(pairs, ratio: float, alpha: float) -> Verdict:
    """Whether var(a) / var(b) equals ``ratio`` in each ``(a, b)`` pair, at rate ``alpha``.

    For normal estimates each F = (s_a^2 / s_b^2) / ratio has the F law with
    (n_a - 1, n_b - 1) degrees of freedom.  log F has known mean and
    variance (digamma and trigamma), and the sum of the centred log F over
    the pairs, divided by its sd, is compared with the two-sided normal
    quantile at ``alpha``.
    """
    pairs = [(np.asarray(a, dtype=float), np.asarray(b, dtype=float)) for a, b in pairs]
    if not all(np.isfinite(a).all() and np.isfinite(b).all() for a, b in pairs):
        return Verdict(False, alpha, "an estimate is not finite")
    da, db = (np.array([len(x) - 1 for x in side]) for side in zip(*pairs))
    log_f = np.log([a.var(ddof=1) / b.var(ddof=1) / ratio for a, b in pairs])
    centre = psi(da / 2) - np.log(da / 2) - psi(db / 2) + np.log(db / 2)
    spread = math.sqrt((polygamma(1, da / 2) + polygamma(1, db / 2)).sum())
    z = float((log_f - centre).sum() / spread)
    bound = float(norm.isf(alpha / 2))
    sd_ratio = math.exp(0.5 * log_f.mean()) * math.sqrt(ratio)
    return Verdict(abs(z) <= bound, alpha,
                   f"sd ratio {sd_ratio:.2f} against {math.sqrt(ratio):.2f} "
                   f"(geometric mean over {len(log_f)} pairs), z {z:+.2f} (bound {bound:.2f})")
