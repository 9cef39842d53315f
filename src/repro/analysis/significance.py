"""Paired significance tests and bootstrap CIs over repetition replicates.

PR 5 folds ``--repetitions N`` runs into mean ± 95% CI.  This module answers
the next question — *is mechanism A significantly different from mechanism
B?* — with classical paired tests over the per-seed observations that
:func:`repro.analysis.stats.fold_experiment_results` preserves on
``ExperimentResult.replicates``:

* :func:`paired_t` — paired Student t-test on per-seed overheads, with the
  two-sided p-value computed from the regularised incomplete beta function
  (pure stdlib, no scipy);
* :func:`wilcoxon_signed_rank` — the distribution-free fallback used when
  the paired differences fail a Jarque–Bera normality screen (leakage-style
  metrics are bounded at zero and visibly non-normal);
* :func:`compare_paired` — the policy that picks between the two;
* :func:`bootstrap_ci` / :func:`leakage_mi_ci` — seeded percentile bootstrap
  confidence intervals for statistics without a usable parametric CI, most
  importantly the mutual-information estimates from
  :mod:`repro.security.leakage`;
* :func:`significance_matrix` — all-pairs mechanism comparison for one
  folded experiment result, the table the HTML report renders.

Everything here is deterministic: the tests are closed-form functions of the
repetition values, and every bootstrap draws from a ``random.Random`` seeded
by the caller, so re-running a report from the same store reproduces every
p-value and CI bit-for-bit.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .figures import FigureSeries

__all__ = [
    "TestResult",
    "student_t_sf",
    "t_p_value_two_sided",
    "normal_sf",
    "paired_t",
    "wilcoxon_signed_rank",
    "jarque_bera",
    "looks_normal",
    "compare_paired",
    "holm_adjust",
    "bootstrap_ci",
    "leakage_mi_ci",
    "PairwiseComparison",
    "SignificanceMatrix",
    "suffix_groups",
    "significance_matrix",
]

#: Default significance level used by the report tables.
ALPHA = 0.05

#: Minimum paired sample size for the Jarque–Bera screen to be meaningful;
#: below it the paired t-test is used unconditionally (documented behaviour:
#: with so few observations no normality test has power anyway).
_NORMALITY_MIN_N = 8

#: 95th percentile of the chi-squared distribution with 2 degrees of freedom
#: (the Jarque–Bera statistic's asymptotic null distribution).
_JB_CRITICAL_95 = 5.991


# ---------------------------------------------------------------------------
# Distribution functions (stdlib-only special functions)
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    max_iterations = 300
    epsilon = 3.0e-14
    tiny = 1.0e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < epsilon:
            return h
    raise ArithmeticError(f"betacf failed to converge for a={a}, b={b}, x={x}")


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: int) -> float:
    """One-sided survival function P(T > t) of Student's t with ``df`` dof."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    p = 0.5 * _betainc_reg(df / 2.0, 0.5, df / (df + t * t))
    return p if t >= 0.0 else 1.0 - p


def t_p_value_two_sided(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    return _betainc_reg(df / 2.0, 0.5, df / (df + t * t))


def normal_sf(z: float) -> float:
    """One-sided survival function P(Z > z) of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Paired tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    """Outcome of one paired hypothesis test.

    Attributes:
        method: ``"paired-t"`` or ``"wilcoxon"``.
        statistic: the test statistic (t, or the Wilcoxon z approximation).
        p_value: two-sided p-value.
        n: number of informative pairs the statistic was computed from.
    """

    method: str
    statistic: float
    p_value: float
    n: int

    def significant(self, alpha: float = ALPHA) -> bool:
        """Whether the null hypothesis is rejected at level ``alpha``."""
        return self.p_value < alpha


def _paired_diffs(xs: Sequence[float], ys: Sequence[float]) -> List[float]:
    if len(xs) != len(ys):
        raise ValueError(
            f"paired samples must have equal length, got {len(xs)} and {len(ys)}")
    if len(xs) < 2:
        raise ValueError(f"need at least 2 pairs, got {len(xs)}")
    return [float(x) - float(y) for x, y in zip(xs, ys)]


def paired_t(xs: Sequence[float], ys: Sequence[float]) -> TestResult:
    """Two-sided paired Student t-test on two equal-length samples.

    Degenerate inputs are handled explicitly: if every pairwise difference
    is identical the sample variance is zero, and the test reports p=1.0
    for a zero shift (no evidence of a difference) or p=0.0 for a non-zero
    constant shift (the samples differ deterministically).
    """
    diffs = _paired_diffs(xs, ys)
    n = len(diffs)
    mean = math.fsum(diffs) / n
    variance = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    if variance == 0.0:
        if mean == 0.0:
            return TestResult("paired-t", 0.0, 1.0, n)
        return TestResult("paired-t", math.copysign(math.inf, mean), 0.0, n)
    t = mean / math.sqrt(variance / n)
    return TestResult("paired-t", t, t_p_value_two_sided(t, n - 1), n)


def _average_ranks(values: Sequence[float]) -> List[float]:
    """Ranks (1-based) with ties receiving the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    position = 0
    while position < len(order):
        tail = position
        while (tail + 1 < len(order)
               and values[order[tail + 1]] == values[order[position]]):
            tail += 1
        average = (position + tail) / 2.0 + 1.0
        for k in range(position, tail + 1):
            ranks[order[k]] = average
        position = tail + 1
    return ranks


def wilcoxon_signed_rank(xs: Sequence[float], ys: Sequence[float]) -> TestResult:
    """Two-sided Wilcoxon signed-rank test (normal approximation).

    Zero differences are dropped (Wilcoxon's original treatment); ties among
    the absolute differences receive average ranks with the standard tie
    correction to the null variance, and the z statistic uses a 0.5
    continuity correction.  The normal approximation is documented as
    approximate for very small samples — which is why
    :func:`compare_paired` only falls back to it when the sample is large
    enough for the normality screen to have rejected the t-test.
    """
    diffs = [d for d in _paired_diffs(xs, ys) if d != 0.0]
    n = len(diffs)
    if n == 0:
        return TestResult("wilcoxon", 0.0, 1.0, 0)
    ranks = _average_ranks([abs(d) for d in diffs])
    w_plus = math.fsum(rank for rank, d in zip(ranks, diffs) if d > 0.0)
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    # Tie correction: subtract sum(t^3 - t)/48 over tie groups.
    tie_counts: Dict[float, int] = {}
    for d in diffs:
        tie_counts[abs(d)] = tie_counts.get(abs(d), 0) + 1
    variance -= math.fsum(t ** 3 - t for t in tie_counts.values()) / 48.0
    if variance <= 0.0:
        return TestResult("wilcoxon", 0.0, 1.0, n)
    numerator = w_plus - mean
    correction = 0.5 if numerator > 0 else (-0.5 if numerator < 0 else 0.0)
    z = (numerator - correction) / math.sqrt(variance)
    return TestResult("wilcoxon", z, 2.0 * normal_sf(abs(z)), n)


def jarque_bera(values: Sequence[float]) -> float:
    """Jarque–Bera normality statistic (asymptotically chi-squared, 2 dof)."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = math.fsum(values) / n
    m2 = math.fsum((v - mean) ** 2 for v in values) / n
    if m2 == 0.0:
        return 0.0
    m3 = math.fsum((v - mean) ** 3 for v in values) / n
    m4 = math.fsum((v - mean) ** 4 for v in values) / n
    skewness = m3 / m2 ** 1.5
    excess_kurtosis = m4 / m2 ** 2 - 3.0
    return n / 6.0 * (skewness ** 2 + excess_kurtosis ** 2 / 4.0)


def looks_normal(values: Sequence[float]) -> bool:
    """Normality screen for the paired differences.

    Samples smaller than 8 always pass (no normality test has power there,
    and the paired t is the conventional default); larger samples pass when
    the Jarque–Bera statistic stays below its chi-squared 95% critical value.
    """
    if len(values) < _NORMALITY_MIN_N:
        return True
    return jarque_bera(values) <= _JB_CRITICAL_95


def compare_paired(xs: Sequence[float], ys: Sequence[float]) -> TestResult:
    """Paired comparison: t-test when differences look normal, else Wilcoxon."""
    diffs = _paired_diffs(xs, ys)
    if looks_normal(diffs):
        return paired_t(xs, ys)
    return wilcoxon_signed_rank(xs, ys)


def holm_adjust(p_values: Sequence[float]) -> List[float]:
    """Holm–Bonferroni step-down adjustment for multiple comparisons.

    Returns adjusted p-values in the input order; monotonicity is enforced
    so an adjusted value never undercuts a more significant one.
    """
    m = len(p_values)
    order = sorted(range(m), key=lambda i: p_values[i])
    adjusted = [0.0] * m
    running_max = 0.0
    for rank, index in enumerate(order):
        value = min(1.0, (m - rank) * p_values[index])
        running_max = max(running_max, value)
        adjusted[index] = running_max
    return adjusted


# ---------------------------------------------------------------------------
# Bootstrap confidence intervals
# ---------------------------------------------------------------------------

def bootstrap_ci(values: Sequence[float], *, confidence: float = 0.95,
                 n_boot: int = 2000, seed: int = 0xB007,
                 statistic=None) -> Tuple[float, float]:
    """Seeded percentile-bootstrap CI for a statistic of one sample.

    Args:
        values: the observed sample.
        confidence: two-sided confidence level.
        n_boot: number of bootstrap resamples.
        seed: RNG seed; the same seed reproduces the interval exactly.
        statistic: callable reducing a list of floats to one float; the
            sample mean by default.

    Returns:
        ``(low, high)`` percentile bounds.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("cannot bootstrap an empty sample")
    if statistic is None:
        statistic = lambda sample: math.fsum(sample) / len(sample)
    rng = random.Random(seed)
    n = len(values)
    estimates = sorted(
        statistic([values[rng.randrange(n)] for _ in range(n)])
        for _ in range(n_boot))
    return (_percentile(estimates, (1.0 - confidence) / 2.0),
            _percentile(estimates, 1.0 - (1.0 - confidence) / 2.0))


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending-sorted sample."""
    if not sorted_values:
        raise ValueError("empty sample")
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return sorted_values[low]
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


def leakage_mi_ci(estimate, *, confidence: float = 0.95, n_boot: int = 1000,
                  seed: int = 0xB007) -> Tuple[float, float]:
    """Bootstrap CI for a leakage estimate's mutual information.

    Resamples the 2×2 (secret × observation) joint count table
    multinomially — each resample draws ``trials`` cells with the observed
    cell probabilities — and takes percentile bounds of the plug-in MI.
    Mutual information is bounded below by zero and heavily skewed near it,
    which is exactly why the parametric t interval is wrong here and the
    paper-grade summary uses this bootstrap instead.

    Args:
        estimate: a :class:`repro.security.leakage.LeakageEstimate` (or any
            object with ``joint_counts`` and ``trials``).
        confidence: two-sided confidence level.
        n_boot: number of bootstrap resamples.
        seed: RNG seed (deterministic interval for a given estimate).

    Returns:
        ``(low, high)`` bounds in bits per trial.
    """
    from ..security.leakage import mutual_information

    counts = [count for row in estimate.joint_counts for count in row]
    total = sum(counts)
    if total == 0:
        return (0.0, 0.0)
    width = len(estimate.joint_counts[0])
    cumulative = []
    running = 0
    for count in counts:
        running += count
        cumulative.append(running / total)
    # A draw lands in the first cell whose cumulative bound exceeds it.
    # The last bound is exactly 1.0 and draws are below 1.0, so a draw
    # past every other bound lands in the last cell.  The leakage tables
    # are 2×2, whose tally compares inline; other shapes bisect.
    square = len(counts) == 4 and width == 2
    bound0, bound1, bound2 = cumulative[:3] if square else (0.0, 0.0, 0.0)
    rng = random.Random(seed)
    draw = rng.random
    estimates = []
    for _ in range(n_boot):
        if square:
            t0 = t1 = t2 = t3 = 0
            for _ in range(total):
                u = draw()
                if u < bound0:
                    t0 += 1
                elif u < bound1:
                    t1 += 1
                elif u < bound2:
                    t2 += 1
                else:
                    t3 += 1
            tally = [t0, t1, t2, t3]
        else:
            tally = [0] * len(counts)
            for _ in range(total):
                tally[bisect.bisect_right(cumulative, draw())] += 1
        estimates.append(mutual_information(
            [tally[row:row + width] for row in range(0, len(tally), width)]))
    estimates.sort()
    return (_percentile(estimates, (1.0 - confidence) / 2.0),
            _percentile(estimates, 1.0 - (1.0 - confidence) / 2.0))


# ---------------------------------------------------------------------------
# Mechanism-pair significance matrices over experiment replicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairwiseComparison:
    """One cell of a significance matrix: condition ``a`` versus ``b``."""

    a: str
    b: str
    mean_a: float
    mean_b: float
    mean_diff: float
    test: TestResult
    adjusted_p: float = 1.0

    def significant(self, alpha: float = ALPHA) -> bool:
        """Whether the Holm-adjusted p-value rejects at level ``alpha``."""
        return self.adjusted_p < alpha


@dataclass
class SignificanceMatrix:
    """All-pairs comparison of an experiment's mechanism conditions.

    Attributes:
        name: the source figure's name.
        conditions: condition labels, in figure order.
        observations: number of paired observations per condition
            (repetitions × categories × grouped series).
        repetitions: how many per-seed replicates fed the pairing (1 means
            the pairing is across benchmark cases only).
        cells: upper-triangle comparisons keyed ``(a, b)`` in condition
            order; p-values are Holm-adjusted across the whole matrix.
    """

    name: str
    conditions: List[str]
    observations: int
    repetitions: int
    cells: Dict[Tuple[str, str], PairwiseComparison] = field(default_factory=dict)

    def comparison(self, a: str, b: str) -> PairwiseComparison:
        """The comparison between two conditions (order-insensitive)."""
        if (a, b) in self.cells:
            return self.cells[(a, b)]
        return self.cells[(b, a)]

    def rows(self) -> List[List[str]]:
        """Tabular form: one row per pair, for text/HTML rendering."""
        table = []
        for (a, b), cell in self.cells.items():
            marker = "yes" if cell.significant() else "no"
            table.append([
                f"{a} vs {b}",
                f"{cell.mean_diff:+.4g}",
                cell.test.method,
                f"{cell.test.p_value:.4g}",
                f"{cell.adjusted_p:.4g}",
                marker,
            ])
        return table

    @staticmethod
    def headers() -> List[str]:
        """Column headers matching :meth:`rows`."""
        return ["pair", "Δ mean", "test", "p", "p (Holm)",
                f"significant (α={ALPHA:g})"]


def suffix_groups(labels: Sequence[str]) -> Optional[Dict[str, List[str]]]:
    """Group ``{prefix}-{suffix}`` series labels by their mechanism suffix.

    Figure 10 names its twelve series ``gshare-CF``, ``ltage-PF``, … — the
    mechanism suffix is the condition under test and the predictor prefix is
    a blocking factor.  This helper recovers that structure: it returns
    ``{suffix: [labels...]}`` when *every* label splits as ``prefix-suffix``
    and every prefix carries the same suffix set (so the pairing across
    groups is aligned), and ``None`` for any other labelling scheme.
    """
    split: List[Tuple[str, str]] = []
    for label in labels:
        prefix, separator, suffix = label.rpartition("-")
        if not separator or not prefix or not suffix:
            return None
        split.append((prefix, suffix))
    prefixes = list(dict.fromkeys(prefix for prefix, _ in split))
    suffixes = list(dict.fromkeys(suffix for _, suffix in split))
    if len(prefixes) < 2 or len(suffixes) < 2:
        return None
    seen = {(prefix, suffix) for prefix, suffix in split}
    if seen != {(p, s) for p in prefixes for s in suffixes}:
        return None
    groups = {suffix: [f"{prefix}-{suffix}" for prefix in prefixes]
              for suffix in suffixes}
    return groups


def _condition_observations(figures: Sequence[FigureSeries],
                            members: Sequence[str]) -> List[float]:
    """Flatten one condition's values in (repetition, member, category) order."""
    observations: List[float] = []
    for figure in figures:
        for label in members:
            observations.extend(float(v) for v in figure.series[label])
    return observations


def significance_matrix(result, *,
                        groups: Optional[Mapping[str, Sequence[str]]] = None
                        ) -> Optional[SignificanceMatrix]:
    """Build the all-pairs mechanism significance matrix for one result.

    The paired observations come from ``result.replicates`` (the per-seed
    figures preserved by the repetition fold); each pair aligns the same
    (repetition, series, benchmark category) coordinate across two
    conditions, which is what makes the paired tests valid.  With no
    replicates (a ``repetitions=1`` run) the folded figure itself supplies a
    single replicate, pairing across benchmark cases only.

    Args:
        result: an :class:`repro.experiments.base.ExperimentResult`.
        groups: optional ``{condition: [series labels]}`` mapping; by default
            each series label is its own condition, except that
            ``prefix-suffix`` labellings like Figure 10's are auto-grouped by
            mechanism suffix (see :func:`suffix_groups`).

    Returns:
        The matrix, or ``None`` when the result has no figure or fewer than
        two conditions to compare.
    """
    if result.figure is None:
        return None
    figures: Sequence[FigureSeries] = result.replicates or [result.figure]
    labels = list(result.figure.series)
    if groups is None:
        groups = suffix_groups(labels) or {label: [label] for label in labels}
    conditions = list(groups)
    if len(conditions) < 2:
        return None
    samples = {condition: _condition_observations(figures, groups[condition])
               for condition in conditions}
    sizes = {len(sample) for sample in samples.values()}
    if len(sizes) != 1 or min(sizes) < 2:
        return None
    matrix = SignificanceMatrix(name=result.figure.name,
                                conditions=conditions,
                                observations=sizes.pop(),
                                repetitions=len(figures))
    pairs = [(a, b) for index, a in enumerate(conditions)
             for b in conditions[index + 1:]]
    raw: List[PairwiseComparison] = []
    for a, b in pairs:
        xs, ys = samples[a], samples[b]
        test = compare_paired(xs, ys)
        raw.append(PairwiseComparison(
            a=a, b=b,
            mean_a=math.fsum(xs) / len(xs),
            mean_b=math.fsum(ys) / len(ys),
            mean_diff=math.fsum(x - y for x, y in zip(xs, ys)) / len(xs),
            test=test))
    adjusted = holm_adjust([cell.test.p_value for cell in raw])
    for cell, adjusted_p in zip(raw, adjusted):
        matrix.cells[(cell.a, cell.b)] = PairwiseComparison(
            a=cell.a, b=cell.b, mean_a=cell.mean_a, mean_b=cell.mean_b,
            mean_diff=cell.mean_diff, test=cell.test, adjusted_p=adjusted_p)
    return matrix
