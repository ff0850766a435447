"""Deterministic, pure-python statistics for the results warehouse.

Two tools back every aggregate the warehouse reports:

* **percentile-bootstrap confidence intervals** for the mean of a
  per-seed sample — the paper's headline numbers (row-energy savings,
  application error, FIT) are means over seeds, and a CI across seeds is
  what turns a single-run point estimate into a defensible claim;
* the **Mann–Whitney U test** for the regression gate — a rank test
  needs no normality assumption, which per-seed simulator metrics
  (bounded, often skewed, occasionally bimodal) would violate.

Everything here is deterministic by construction: the bootstrap drives
an explicitly seeded :class:`random.Random`, and the U test's p-value is
exact (a small dynamic program over the U distribution) whenever the
samples are tie-free and small, falling back to the tie-corrected
normal approximation otherwise. No numpy, no scipy — the service tier
must be able to serve these numbers from a bare stdlib container.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

#: Default bootstrap resample count: small enough to stay instant on a
#: handful of seeds, large enough that the 2.5th/97.5th percentiles are
#: stable to ~1% of the sample spread.
DEFAULT_RESAMPLES = 1000

#: Fixed bootstrap seed — CIs must be identical across runs, hosts, and
#: the CLI/service split, or `report diff` would flag phantom drift.
DEFAULT_BOOTSTRAP_SEED = 0x5EEDED

#: Largest ``n1 * n2`` for which the exact U distribution is computed;
#: beyond it (or with ties) the normal approximation takes over.
EXACT_U_LIMIT = 400


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on an empty sample."""
    if not values:
        raise ValueError("mean of an empty sample")
    return math.fsum(values) / len(values)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample.

    ``q`` is a fraction in [0, 1]. Matches numpy's default
    ``interpolation='linear'`` so the numbers are comparable to any
    offline analysis a reader reproduces with a dataframe.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile fraction out of range: {q}")
    position = q * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return float(sorted_values[lower])
    a = float(sorted_values[lower])
    b = float(sorted_values[upper])
    if a == b:
        return a
    # ``a + (b - a) * w`` is monotone in ``w`` under rounding; the
    # two-product form ``a*(1-w) + b*w`` is not, and can overshoot a
    # tie, which let a narrower bootstrap interval poke out of a wider.
    return a + (b - a) * (position - lower)


@dataclass(frozen=True)
class BootstrapCI:
    """A percentile-bootstrap confidence interval for the mean."""

    mean: float
    low: float
    high: float
    confidence: float
    n: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "low": self.low,
            "high": self.high,
            "confidence": self.confidence,
            "n": self.n,
        }

    def contains(self, other: "BootstrapCI") -> bool:
        """Whether this interval fully contains ``other``."""
        return self.low <= other.low and other.high <= self.high


def bootstrap_ci(
    values: Sequence[float],
    *,
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_BOOTSTRAP_SEED,
) -> BootstrapCI:
    """Percentile bootstrap CI for the mean of ``values``.

    Deterministic: the resample plan is a pure function of ``seed``,
    ``len(values)``, and ``resamples`` — and *independent* of
    ``confidence``, so intervals at increasing confidence levels are
    nested by construction (the property test relies on this: the same
    sorted resample-mean list is cut at wider percentiles).

    Degenerate cases: a single observation yields the zero-width
    interval ``[v, v]`` (there is nothing to resample), and an empty
    sample raises ``ValueError``.
    """
    if not values:
        raise ValueError("bootstrap_ci of an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1): {confidence}")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1: {resamples}")
    xs = [float(v) for v in values]
    point = mean(xs)
    if len(xs) == 1 or min(xs) == max(xs):
        return BootstrapCI(
            mean=point, low=point, high=point,
            confidence=confidence, n=len(xs),
        )
    rng = random.Random(seed)
    n = len(xs)
    resample_means = sorted(
        math.fsum(xs[rng.randrange(n)] for _ in range(n)) / n
        for _ in range(resamples)
    )
    alpha = (1.0 - confidence) / 2.0
    return BootstrapCI(
        mean=point,
        low=percentile(resample_means, alpha),
        high=percentile(resample_means, 1.0 - alpha),
        confidence=confidence,
        n=n,
    )


# ----------------------------------------------------------------------
# Mann–Whitney U
# ----------------------------------------------------------------------
def rankdata(values: Sequence[float]) -> list[float]:
    """Midranks (average ranks for ties), 1-based, in input order."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (
            j + 1 < len(order)
            and values[order[j + 1]] == values[order[i]]
        ):
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    return ranks


def _u_counts(n1: int, n2: int) -> list[int]:
    """``counts[u]`` = orderings of ``n1`` a's and ``n2`` b's with U=u.

    The recurrence conditions on the last element of the merged
    sequence: an ``a`` in last place is preceded by all ``j`` b's
    (adding ``j`` to U), a ``b`` adds nothing::

        g(i, j, u) = g(i-1, j, u-j) + g(i, j-1, u)

    ``sum(counts)`` is ``C(n1+n2, n1)``; the distribution is symmetric
    about ``n1*n2/2``.
    """
    size = n1 * n2 + 1
    # rows[j][u] holds g(i, j, u) for the current i.
    rows = [[0] * size for _ in range(n2 + 1)]
    for j in range(n2 + 1):
        rows[j][0] = 1  # i = 0: U is necessarily 0
    for _i in range(1, n1 + 1):
        new = [[0] * size for _ in range(n2 + 1)]
        new[0][0] = 1  # j = 0: U is necessarily 0
        for j in range(1, n2 + 1):
            old = rows[j]
            left = new[j - 1]
            cur = new[j]
            for u in range(size):
                total = left[u]
                if u >= j:
                    total += old[u - j]
                cur[u] = total
        rows = new
    return rows[n2]


def _normal_sf(z: float) -> float:
    """Standard-normal survival function via ``math.erfc``."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class MannWhitneyResult:
    """Outcome of a two-sided Mann–Whitney U test."""

    u1: float
    u2: float
    p_value: float
    #: ``"exact"`` (tie-free small samples) or ``"normal"``.
    method: str
    n1: int
    n2: int

    @property
    def u(self) -> float:
        """The conventional test statistic ``min(U1, U2)``."""
        return min(self.u1, self.u2)

    def to_dict(self) -> dict:
        return {
            "u1": self.u1,
            "u2": self.u2,
            "u": self.u,
            "p_value": self.p_value,
            "method": self.method,
            "n1": self.n1,
            "n2": self.n2,
        }


def mann_whitney_u(
    a: Sequence[float],
    b: Sequence[float],
    *,
    exact_limit: int = EXACT_U_LIMIT,
) -> MannWhitneyResult:
    """Two-sided Mann–Whitney U test of ``a`` vs ``b``.

    Tie-free samples with ``n1 * n2 <= exact_limit`` get the exact
    p-value (full U distribution via :func:`_u_counts`); everything
    else uses the tie-corrected normal approximation with continuity
    correction. Both paths are deterministic.
    """
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise ValueError("mann_whitney_u requires non-empty samples")
    combined = [float(v) for v in a] + [float(v) for v in b]
    ranks = rankdata(combined)
    r1 = math.fsum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    has_ties = len(set(combined)) != len(combined)
    if not has_ties and n1 * n2 <= exact_limit:
        counts = _u_counts(n1, n2)
        total = math.fsum(counts)
        u_min = int(round(min(u1, u2)))
        cdf = math.fsum(counts[: u_min + 1]) / total
        return MannWhitneyResult(
            u1=u1, u2=u2, p_value=min(1.0, 2.0 * cdf),
            method="exact", n1=n1, n2=n2,
        )
    n = n1 + n2
    tie_term = 0.0
    if has_ties:
        seen: dict[float, int] = {}
        for v in combined:
            seen[v] = seen.get(v, 0) + 1
        tie_term = math.fsum(t ** 3 - t for t in seen.values())
    variance = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        # Every observation identical: no evidence of any shift.
        return MannWhitneyResult(
            u1=u1, u2=u2, p_value=1.0, method="normal", n1=n1, n2=n2,
        )
    mu = n1 * n2 / 2.0
    z = (abs(u1 - mu) - 0.5) / math.sqrt(variance)
    p = min(1.0, 2.0 * _normal_sf(max(0.0, z)))
    return MannWhitneyResult(
        u1=u1, u2=u2, p_value=p, method="normal", n1=n1, n2=n2,
    )


def holm_adjust(p_values: Sequence[float]) -> list[float]:
    """Holm step-down adjustment for a family of p-values.

    The regression gate tests (groups × metrics) hypotheses at once;
    without an adjustment a 40-cell sweep would flag a phantom
    regression every few runs at alpha = 0.05 through sheer multiplicity.
    """
    m = len(p_values)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running = 0.0
    for rank, idx in enumerate(order):
        value = min(1.0, (m - rank) * p_values[idx])
        running = max(running, value)
        adjusted[idx] = running
    return adjusted
