"""Ground-truth Monte Carlo simulator for ENFP bound validation.

Generates synthetic trial populations with known per-endpoint effects,
applies a selection policy (fixed, signal-concordant, or deliberately
adversarial), counts realized false positives against the hidden truth,
and validates the frequentist and Bayesian portfolio bounds plus the
four concordance assumptions they rest on.

Determinism contract: every replicate draws from
``numpy.random.default_rng([seed, replicate])``, and the draw order
within a replicate is fixed — (m, t) assignment, effect sizes, shared
noise factor, idiosyncratic noise, then policy draws.  Identical config
and seed therefore reproduce identical populations and reports, and
replicates may run in parallel without changing results.  The two
categorical draws, (m, t) and effect sizes, invert the cumulative
distribution at ``rng.random`` draws: the same stream, and the same
indices, as ``rng.choice`` with probabilities.

Each replicate's tau-hat comes from the array core of
``enfp.freq_bounds``, and its omega-hat reads h at the endpoints the
rule of ``enfp.trials`` marks, so both are the library's bounds over
the same draw, bit for bit.

The endpoint-correlation model is a shared-factor Gaussian: noise =
sqrt(rc) * common + sqrt(1 - rc) * idiosyncratic, giving correlation rc
between any two endpoints of the same trial.

Concordance is streamed.  Each replicate is reduced to integer counts
(per alpha value and null flag for the mean checks, per z bin and
outcome class for the binned checks) before the next one is drawn, so
pooling loses nothing and the checks' memory does not depend on
``replicates``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from enfp import _fields
from enfp.freq_bounds import _tau_from_arrays
from enfp.hcurve import ZERO_TOLERANCE, h_values
from enfp.trials import (
    FailureRegionType,
    _check_endpoint_mode,
    _critical_z,
    _in_failure_region,
    _read_endpoints,
    _rejects,
)

__all__ = [
    "SCENARIO_FORMAT",
    "ConcordanceReport",
    "PolicySpec",
    "PopulationDraw",
    "ScenarioConfig",
    "SimulationReport",
    "check_concordance",
    "draw_population",
    "oracle_count_fp",
    "rho_from_prior",
    "validate_bounds",
]

SCENARIO_FORMAT = "enfp-scenario/1"

_POLICY_KINDS = ("fixed_alpha", "signal_concordant", "adversarial")

# Absolute slack for an excess or margin that is zero in exact arithmetic
# but can round to a few ulps above it: the per-bin excess of the binned
# concordance checks and the validate_bounds margins.  The mean checks do
# not rely on it, since their means are exact rationals rounded once.
_EQ_SLACK = 1e-12

# Buckets of u in _categorical: a power of two, so that u * _BUCKETS is
# exact, and wide enough that few u share a bucket with an entry of cdf.
_BUCKETS = 1024


def _normalizer(values, field: str) -> float:
    """What to divide ``values`` by to make them sum to one: their
    ``fsum``, or 1 when that is within rounding of one.  So normalizing
    twice changes nothing, and a written scenario reads back equal.

    Raises:
        ValueError: naming ``field``, if the sum is 0 or overflows.
    """
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if not 0.0 < total < math.inf:
        raise ValueError(f"{field} must have a finite sum > 0")
    return 1.0 if abs(total - 1.0) <= 1e-12 else total


@dataclass(frozen=True)
class PolicySpec:
    """How a sponsor picks the nominal alpha for each proposed trial.

    ``fixed_alpha`` ignores the effect sizes entirely: a single-entry
    menu is applied verbatim, a longer menu is sampled uniformly.  The
    signal policies observe s = mean(theta) + signal_noise * N(0, 1) and
    map it onto the sorted menu through its own empirical quantiles:
    ``signal_concordant`` relaxes alpha as the signal grows (the natural
    strategy), ``adversarial`` reverses the mapping for negative testing.
    """

    kind: str
    alpha_menu: tuple = (0.025,)
    signal_noise: float = 1.0

    def __post_init__(self):
        if self.kind not in _POLICY_KINDS:
            raise ValueError(
                f"policy kind must be one of {_POLICY_KINDS}, got {self.kind!r}"
            )
        menu = tuple(float(a) for a in self.alpha_menu)
        if not menu:
            raise ValueError("alpha_menu is empty")
        if any(not 0.0 < a < 1.0 for a in menu):
            raise ValueError("alpha_menu entries must lie in (0, 1)")
        object.__setattr__(self, "alpha_menu", menu)
        noise = float(self.signal_noise)
        if not 0.0 <= noise < math.inf:
            raise ValueError("signal_noise must be finite and >= 0")
        object.__setattr__(self, "signal_noise", noise)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "alpha_menu": list(self.alpha_menu),
            "signal_noise": self.signal_noise,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolicySpec":
        """Read a scenario's ``policy`` object strictly."""
        where = "policy."
        return cls(
            kind=_fields.read(_fields.document(data), "kind", str, where),
            alpha_menu=tuple(_fields.numbers(data, "alpha_menu", where)),
            signal_noise=_fields.read(data, "signal_noise", float, where, 1.0),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Full specification of a simulated trial population.

    ``true_prior`` is an explicit grid distribution (theta values with
    probabilities); per-endpoint effects are drawn i.i.d. from it, so
    endpoint indices carry no information.  ``m_distribution`` assigns
    probabilities to (m, failure-type) designs; (1, A) designs are
    normalized to (1, B) since the two coincide for a single endpoint.
    """

    true_prior: tuple  # ((theta, ...), (mass, ...))
    n_trials: int
    m_distribution: tuple  # ((m, FailureRegionType, prob), ...)
    policy: PolicySpec
    seed: int
    endpoint_correlation: float = 0.0
    replicates: int = 1

    def __post_init__(self):
        theta, mass = self.true_prior
        theta = tuple(float(t) for t in theta)
        mass = tuple(float(p) for p in mass)
        if len(theta) != len(mass) or not theta:
            raise ValueError("true_prior needs parallel theta/mass sequences")
        if any(not math.isfinite(t) for t in theta):
            raise ValueError("prior support must be finite")
        if any(not 0.0 <= p < math.inf for p in mass):
            raise ValueError("true_prior masses must be finite and >= 0")
        total = _normalizer(mass, "true_prior masses")
        merged_prior: dict = {}
        for t, p in zip(theta, mass):
            merged_prior[t] = merged_prior.get(t, 0.0) + p / total
        theta = tuple(sorted(merged_prior))
        mass = tuple(merged_prior[t] for t in theta)
        object.__setattr__(self, "true_prior", (theta, mass))

        if not (isinstance(self.n_trials, int) and self.n_trials >= 1):
            raise ValueError("n_trials must be an integer >= 1")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError("seed is mandatory and must be an integer >= 0")
        if not (isinstance(self.replicates, int) and self.replicates >= 1):
            raise ValueError("replicates must be an integer >= 1")
        rc = float(self.endpoint_correlation)
        if not 0.0 <= rc < 1.0:
            raise ValueError("endpoint_correlation must lie in [0, 1)")
        object.__setattr__(self, "endpoint_correlation", rc)

        merged: dict = {}
        for m, t, prob in self.m_distribution:
            m = int(m)
            t = FailureRegionType(t)
            prob = float(prob)
            if m < 1:
                raise ValueError("endpoint count m must be >= 1")
            if not 0.0 <= prob < math.inf:
                raise ValueError(
                    "m_distribution probabilities must be finite and >= 0"
                )
            if m == 1:
                t = FailureRegionType.B
            merged[(m, t)] = merged.get((m, t), 0.0) + prob
        total = _normalizer(merged.values(), "m_distribution probabilities")
        dist = tuple(
            (m, t, p / total)
            for (m, t), p in sorted(
                merged.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
            )
        )
        object.__setattr__(self, "m_distribution", dist)
        if not isinstance(self.policy, PolicySpec):
            raise ValueError("policy must be a PolicySpec")

    def prior_model(self):
        """The true prior as a PriorModel (for oracle-mode h values): its
        support is the model's grid and its masses the model's masses."""
        from enfp.deconv import PriorModel

        return PriorModel.from_masses(*self.true_prior)

    def to_dict(self) -> dict:
        return {
            "format": SCENARIO_FORMAT,
            "true_prior": {
                "theta": list(self.true_prior[0]),
                "mass": list(self.true_prior[1]),
            },
            "n_trials": self.n_trials,
            "m_distribution": [
                [m, t.value, p] for m, t, p in self.m_distribution
            ],
            "endpoint_correlation": self.endpoint_correlation,
            "policy": self.policy.to_dict(),
            "seed": self.seed,
            "replicates": self.replicates,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Inverse of :meth:`to_dict`, reading every field strictly."""
        data = _fields.document(data)
        tag = _fields.read(data, "format", str, default=SCENARIO_FORMAT)
        if tag != SCENARIO_FORMAT:
            raise ValueError(f"unrecognized scenario format {tag!r}")
        prior = _fields.read(data, "true_prior", dict)
        designs = []
        for i, row in enumerate(_fields.read(data, "m_distribution", list)):
            where = f"m_distribution[{i}]."
            if type(row) is not list or len(row) != 3:
                raise ValueError(
                    f"{where[:-1]}: expected [m, failure_type, probability]"
                )
            row = dict(zip(("m", "failure_type", "probability"), row))
            designs.append((
                _fields.read(row, "m", int, where),
                _fields.read(
                    row, "failure_type", str, where, choices=("A", "B")
                ),
                _fields.read(row, "probability", float, where),
            ))
        return cls(
            true_prior=(
                tuple(_fields.numbers(prior, "theta", "true_prior.")),
                tuple(_fields.numbers(prior, "mass", "true_prior.")),
            ),
            n_trials=_fields.read(data, "n_trials", int),
            m_distribution=tuple(designs),
            endpoint_correlation=_fields.read(
                data, "endpoint_correlation", float, default=0.0
            ),
            policy=PolicySpec.from_dict(_fields.read(data, "policy", dict)),
            seed=_fields.read(data, "seed", int),
            replicates=_fields.read(data, "replicates", int, default=1),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))


def rho_from_prior(cfg: ScenarioConfig) -> float:
    """Oracle null fraction: prior mass at theta <= 0 (ZERO_TOLERANCE)."""
    theta, mass = cfg.true_prior
    return math.fsum(p for t, p in zip(theta, mass) if t <= ZERO_TOLERANCE)


@dataclass(frozen=True)
class PopulationDraw:
    """One replicate of a simulated population, as padded arrays.

    Arrays are (n,) per trial or (n, m_max) per endpoint slot; slots past
    a trial's m are NaN (floats) / False (masks).  ``positive`` and
    ``null_truth`` come from the rules in ``enfp.trials`` that the
    trial-model classifier uses: each trial's policy is
    ``RejectionPolicy.at_alpha`` of its alpha.
    """

    replicate: int
    m: np.ndarray
    is_type_a: np.ndarray
    theta: np.ndarray
    z: np.ndarray
    valid: np.ndarray
    alpha: np.ndarray
    positive: np.ndarray
    null_truth: np.ndarray

    @property
    def n_trials(self) -> int:
        return int(self.m.size)


def draw_population(cfg: ScenarioConfig, replicate: int = 0) -> PopulationDraw:
    """Draw one population replicate (vectorized, fixed draw order)."""
    if not 0 <= replicate:
        raise ValueError("replicate index must be >= 0")
    rng = np.random.default_rng([cfg.seed, replicate])
    n = cfg.n_trials

    ms = np.array([m for m, _, _ in cfg.m_distribution], dtype=np.int64)
    a_flags = np.array(
        [t is FailureRegionType.A for _, t, _ in cfg.m_distribution]
    )
    probs = np.array([p for _, _, p in cfg.m_distribution])
    which = _categorical(rng, probs, n)
    m = ms[which]
    is_type_a = a_flags[which]
    m_max = int(ms.max())

    theta_support = np.asarray(cfg.true_prior[0])
    theta_mass = np.asarray(cfg.true_prior[1])
    theta_idx = _categorical(rng, theta_mass, (n, m_max))
    theta = theta_support[theta_idx]
    del theta_idx

    # z is built in place; addition commutes, so it has the bits of
    # theta + sqrt(rc) * common + sqrt(1 - rc) * idio.
    common = rng.standard_normal((n, 1))
    z = rng.standard_normal((n, m_max))
    rc = cfg.endpoint_correlation
    z *= math.sqrt(1.0 - rc)
    z += theta + math.sqrt(rc) * common
    del common

    valid = np.arange(m_max)[None, :] < m[:, None]
    padding = ~valid
    np.putmask(theta, padding, np.nan)
    np.putmask(z, padding, np.nan)
    del padding

    menu, menu_index = _policy_alphas(rng, cfg.policy, theta, valid, m)
    alpha = menu[menu_index]

    # One critical value per (design, menu entry).  Padded slots hold
    # NaN, which compares False, so they neither exceed nor count as
    # null; null means theta <= ZERO_TOLERANCE, as for rho and h.
    critical = _critical_z(menu, ms[:, None], a_flags[:, None])
    n_exceed = _row_counts(z > critical[which, menu_index][:, None])
    del which
    positive = _rejects(n_exceed, m, is_type_a)
    n_null = _row_counts(theta <= ZERO_TOLERANCE)
    null_truth = _in_failure_region(n_null, m, is_type_a)

    return PopulationDraw(
        replicate=int(replicate),
        m=m,
        is_type_a=is_type_a,
        theta=theta,
        z=z,
        valid=valid,
        alpha=alpha,
        positive=positive,
        null_truth=null_truth,
    )


def _categorical(rng, p, size):
    """Indices into ``p`` drawn with probabilities ``p``: the bits of
    ``rng.choice(p.size, size, p=p)``, leaving ``rng`` in the same state.

    Like ``choice``, it takes one ``rng.random(size)`` draw u and returns
    the number of entries of ``cdf = cumsum(p) / cdf[-1]`` at or below
    each u, without ``choice``'s checks of ``p``, which ``ScenarioConfig``
    has already made.  Every u in a bucket [b, b + 1) / _BUCKETS that no
    entry of cdf falls inside has the same number, so it is looked up by
    bucket; only a u in a bucket that holds an entry is searched for,
    which is faster than a binary search for each of the unsorted u.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = rng.random(size)
    starts = np.arange(_BUCKETS + 1) / _BUCKETS
    count = cdf.searchsorted(starts[:-1], side="right")
    count[count != cdf.searchsorted(starts[1:], side="left")] = -1
    index = count.take((u * _BUCKETS).astype(np.intp))
    split = np.flatnonzero(index < 0)
    index.flat[split] = cdf.searchsorted(u.flat[split], side="right")
    return index


def _row_counts(mask):
    """True entries per row of a 2-d mask.  Integer sums do not depend
    on order, so columns are added one by one, which is faster than a
    reduction along short rows."""
    counts = mask[:, 0].astype(np.int64)
    for column in mask.T[1:]:
        counts += column
    return counts


def _policy_alphas(rng, policy: PolicySpec, theta, valid, m):
    """The sorted menu and each trial's index into it."""
    menu = np.sort(np.asarray(policy.alpha_menu))
    k = menu.size
    n = m.size
    if policy.kind == "fixed_alpha":
        if k == 1:
            return menu, np.zeros(n, dtype=np.int64)
        return menu, rng.integers(0, k, size=n)
    signal = np.where(valid, theta, 0.0).sum(axis=1) / m + (
        policy.signal_noise * rng.standard_normal(n)
    )
    if k == 1:
        return menu, np.zeros(n, dtype=np.int64)
    edges = np.quantile(signal, np.arange(1, k) / k)
    bins = np.searchsorted(edges, signal, side="right")
    if policy.kind == "signal_concordant":
        return menu, bins
    return menu, k - 1 - bins  # adversarial: stringent when strong


def oracle_count_fp(draw: PopulationDraw) -> int:
    """Count positives whose hidden truth lies in the failure region."""
    return int(np.count_nonzero(draw.positive & draw.null_truth))


# ----------------------------------------------------------------------
# Concordance diagnostics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MeanCheck:
    """A <= comparison of conditional alpha means at 3 MC-SE."""

    name: str
    mean_null: float
    mean_nonnull: float
    se_diff: float
    n_null: int
    n_nonnull: int
    passed: bool
    vacuous: bool = False

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        if self.vacuous:
            # A vacuous check has no means: JSON null, not the NaN token.
            for key in ("mean_null", "mean_nonnull", "se_diff"):
                out[key] = None
        return out


@dataclass(frozen=True)
class BinnedCheck:
    """Per-z-bin comparison of null fractions at 3 MC-SE.

    The underlying assumption conditions on exact z; binning (width
    0.25) makes the empirical check an approximation of that statement.
    Bins holding only one outcome class are skipped and counted.  Each
    checked bin runs a pooled two-proportion z-test at 3 SE; since that
    threshold itself false-flags ~0.135% of null bins, the overall
    verdict tolerates up to ``failure_allowance`` flagged bins — the
    0.999 binomial quantile of pure noise across ``n_bins_checked``
    tests — and fails beyond it.
    """

    name: str
    bin_width: float
    n_bins_checked: int
    n_bins_skipped: int
    n_bins_failed: int
    failure_allowance: int
    worst_excess: float | None
    n_units: int
    passed: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class ConcordanceReport:
    first: MeanCheck
    second: MeanCheck
    third: BinnedCheck
    fourth: BinnedCheck

    @property
    def passed(self) -> bool:
        return (
            self.first.passed
            and self.second.passed
            and self.third.passed
            and self.fourth.passed
        )

    def to_dict(self) -> dict:
        return {
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
            "third": self.third.to_dict(),
            "fourth": self.fourth.to_dict(),
            "passed": self.passed,
        }


def _mean_check_counts(name, values, counts) -> MeanCheck:
    """The mean check from distinct alphas and, per alpha, the count of
    (non-null, null) units.

    Means and variances are exact rational numbers rounded once, so
    they do not depend on summation order, and a constant alpha gives
    equal means and ``se_diff == 0.0``.
    """
    n_null = int(counts[:, 1].sum())
    n_nonnull = int(counts[:, 0].sum())
    vacuous = n_null == 0 or n_nonnull == 0
    mean_null = mean_nonnull = se = math.nan
    if not vacuous:
        # fractions loads decimal: only a process checking means pays.
        from fractions import Fraction

        exact = [Fraction(v) for v in np.asarray(values, dtype=float).tolist()]
        means = []
        var = Fraction(0)
        for column in (counts[:, 1], counts[:, 0]):
            weights = column.tolist()
            n = sum(weights)
            s1 = sum(c * x for c, x in zip(weights, exact))
            means.append(float(s1 / n))
            if n > 1:
                s2 = sum(c * x * x for c, x in zip(weights, exact))
                var += (n * s2 - s1 * s1) / (n * n * (n - 1))
        mean_null, mean_nonnull = means
        se = math.sqrt(var)
    return MeanCheck(
        name=name,
        mean_null=mean_null,
        mean_nonnull=mean_nonnull,
        se_diff=se,
        n_null=n_null,
        n_nonnull=n_nonnull,
        passed=vacuous or mean_null - mean_nonnull <= 3.0 * se + _EQ_SLACK,
        vacuous=vacuous,
    )


# Per-bin false-flag rate of a one-sided 3-SE test, 1 - Phi(3).
_P_FLAG = 1.3498980316300946e-03


def _noise_allowance(n_bins: int, p: float = _P_FLAG) -> int:
    """Largest flag count consistent with pure noise at the 0.999 level.

    Returns the greatest a such that Pr[Binomial(n_bins, p) > a] >= 1e-3
    is false — i.e. observing more than a flags has probability < 1e-3
    under the null that every bin satisfies the assumption.
    """
    if n_bins == 0:
        return 0
    q = 1.0 - p
    pmf = q**n_bins
    cdf = pmf
    k = 0
    while 1.0 - cdf >= 1e-3 and k < n_bins:
        k += 1
        pmf *= (n_bins - k + 1) / k * (p / q)
        cdf += pmf
    return k


def _bin_counts(z, null, positive, bin_width):
    """Occupied z bins (ascending) and, per bin, the count of units that
    are (negative non-null, negative null, positive non-null, positive
    null)."""
    bins = np.floor(z / bin_width).astype(np.int64)
    code = positive * 2 + null
    if bins.size == 0:
        return bins, np.zeros((0, 4), dtype=np.int64)
    lo = bins.min()
    span = int(bins.max() - lo) + 1
    if span <= bins.size:
        keys = lo + np.arange(span)
        slots = bins - lo
    else:  # sparse bins: number the occupied ones instead
        keys, slots = np.unique(bins, return_inverse=True)
    counts = np.bincount(slots * 4 + code, minlength=4 * keys.size)
    counts = counts.reshape(keys.size, 4)
    occupied = counts.any(axis=1)
    return keys[occupied], counts[occupied]


def _binned_check(name, counts, bin_width) -> BinnedCheck:
    """The binned check from the per-bin counts of ``_bin_counts``.

    A bin is checked when it holds both outcome classes; it runs a
    pooled two-proportion test of Pr[null | positive] <= Pr[null |
    negative] at 3 SE.
    """
    n_neg = counts[:, 0] + counts[:, 1]
    n_pos = counts[:, 2] + counts[:, 3]
    both = (n_neg > 0) & (n_pos > 0)
    n_neg, n_pos = n_neg[both], n_pos[both]
    x_neg, x_pos = counts[both, 1], counts[both, 3]
    p_pos = x_pos / n_pos
    p_neg = x_neg / n_neg
    # Pooled SE (two-proportion score test): stays honest when a sample
    # proportion sits on the 0/1 boundary, where the unpooled estimator
    # degenerates to zero variance.
    pooled = (x_pos + x_neg) / (n_pos + n_neg)
    se = np.sqrt(pooled * (1.0 - pooled) * (1.0 / n_pos + 1.0 / n_neg))
    excess = (p_pos - p_neg) - 3.0 * se
    checked = int(excess.size)
    failed = int(np.count_nonzero(excess > _EQ_SLACK))
    allowance = _noise_allowance(checked)
    return BinnedCheck(
        name=name,
        bin_width=bin_width,
        n_bins_checked=checked,
        n_bins_skipped=int(counts.shape[0]) - checked,
        n_bins_failed=failed,
        failure_allowance=allowance,
        worst_excess=float(excess.max()) if checked else None,
        n_units=int(counts.sum()),
        passed=failed <= allowance,
    )


_CHECK_NAMES = {
    "first": "first: E[alpha | endpoint null] <= E[alpha | endpoint non-null]",
    "second": "second: E[alpha | failure region] <= E[alpha | complement]",
    "third": "third: Pr[null | z bin, positive] <= Pr[null | z bin, negative] "
    "(single-endpoint trials)",
    "fourth": "fourth: per-endpoint Pr[null | z bin, positive] <= negative "
    "(multi-endpoint trials)",
}


def _draw_counts(draw: PopulationDraw, bin_width: float) -> dict:
    """The counts behind the four concordance checks for one draw.

    Each check gets (keys, counts): ascending distinct alphas with their
    (non-null, null) unit counts for the first two, occupied z bins with
    their ``_bin_counts`` columns for the last two.  Units are endpoint
    slots for the first and fourth checks and trials for the others.
    Slot counts come from per-trial arrays and the fourth check bins one
    endpoint column at a time, so no per-slot index array is built.
    """
    values, index = np.unique(draw.alpha, return_inverse=True)
    k = values.size
    # Per-alpha sums of per-trial slot counts: exact in float64.
    n_null = _row_counts(draw.theta <= ZERO_TOLERANCE)
    slot_alpha = np.stack([
        np.bincount(index, weights=w, minlength=k)
        for w in (draw.m - n_null, n_null)
    ], axis=1).astype(np.int64)
    trial_alpha = np.bincount(index * 2 + draw.null_truth, minlength=2 * k)
    single = np.flatnonzero(draw.m == 1)
    multi = draw.m > 1
    fourth = None
    for j, z in enumerate(draw.z.T):
        rows = np.flatnonzero(multi & draw.valid[:, j])
        part = _bin_counts(
            z[rows], draw.theta[rows, j] <= ZERO_TOLERANCE,
            draw.positive[rows], bin_width,
        )
        fourth = _merge_counts(fourth, part)
    return {
        "first": (values, slot_alpha),
        "second": (values, trial_alpha.reshape(k, 2)),
        "third": _bin_counts(
            draw.z[single, 0],
            draw.null_truth[single],
            draw.positive[single],
            bin_width,
        ),
        "fourth": fourth,
    }


def _merge_counts(total: tuple | None, part: tuple) -> tuple:
    """Sum two (keys, counts) pairs, aligning their keys."""
    if total is None:
        return part
    keys, counts = total
    part_keys, part_counts = part
    union = np.union1d(keys, part_keys)
    summed = np.zeros((union.size, counts.shape[1]), dtype=np.int64)
    summed[np.searchsorted(union, keys)] += counts
    summed[np.searchsorted(union, part_keys)] += part_counts
    return union, summed


def _concordance_from_counts(counts: dict, bin_width: float):
    return ConcordanceReport(
        first=_mean_check_counts(_CHECK_NAMES["first"], *counts["first"]),
        second=_mean_check_counts(_CHECK_NAMES["second"], *counts["second"]),
        third=_binned_check(
            _CHECK_NAMES["third"], counts["third"][1], bin_width
        ),
        fourth=_binned_check(
            _CHECK_NAMES["fourth"], counts["fourth"][1], bin_width
        ),
    )


def check_concordance(draws, bin_width: float = 0.25) -> ConcordanceReport:
    """Empirical checks of the four concordance assumptions at 3 MC-SE.

    Accepts one PopulationDraw or an iterable of them (pooled).  Each
    draw is reduced to integer counts per alpha value and per z bin
    before the next is read, so pooling loses nothing and memory does
    not grow with the number of draws.  The third/fourth checks bin z
    (width 0.25 by default) because the assumptions condition on exact
    z; one-class bins are skipped and reported, not judged.
    """
    if isinstance(draws, PopulationDraw):
        draws = [draws]
    counts = dict.fromkeys(_CHECK_NAMES)
    for draw in draws:
        for check, part in _draw_counts(draw, bin_width).items():
            counts[check] = _merge_counts(counts[check], part)
    if counts["first"] is None:
        raise ValueError("no draws given")
    return _concordance_from_counts(counts, bin_width)


# ----------------------------------------------------------------------
# Bound validation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo comparison of realized false positives to the bounds."""

    n_trials: int
    replicates: int
    rho: float
    model_id: str
    realized_fp_mean: float
    realized_fp_se: float
    positive_count_mean: float
    tau_hat_mean: float
    tau_hat_se: float
    omega_hat_mean: float
    omega_hat_se: float
    alpha_mean_null: float
    alpha_mean_nonnull: float
    concordance: ConcordanceReport
    tau_margin: float
    omega_margin: float
    bound_violations: dict

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["concordance"] = self.concordance.to_dict()
        if self.concordance.second.vacuous:
            out["alpha_mean_null"] = out["alpha_mean_nonnull"] = None
        out["bound_violations"] = dict(self.bound_violations)
        if self.replicates < 2:
            # A single replicate carries no spread information; report
            # the standard errors as absent rather than a fake zero.
            for key in ("realized_fp_se", "tau_hat_se", "omega_hat_se"):
                out[key] = None
        return out

    def _with_se(self, mean: float, se: float) -> str:
        if self.replicates < 2:
            return f"{mean:.6g} (SE n/a)"
        return f"{mean:.6g} +/- {se:.3g}"

    def table(self) -> str:
        rows = [
            ("trials per replicate", f"{self.n_trials}"),
            ("replicates", f"{self.replicates}"),
            ("oracle null fraction rho", f"{self.rho:.6g}"),
            (
                "realized false positives",
                self._with_se(self.realized_fp_mean, self.realized_fp_se),
            ),
            ("positive count (M)", f"{self.positive_count_mean:.6g}"),
            (
                "tau-hat (frequentist bound)",
                self._with_se(self.tau_hat_mean, self.tau_hat_se),
            ),
            (
                "omega-hat (Bayesian bound)",
                self._with_se(self.omega_hat_mean, self.omega_hat_se),
            ),
            ("E[alpha | null]", f"{self.alpha_mean_null:.6g}"),
            ("E[alpha | non-null]", f"{self.alpha_mean_nonnull:.6g}"),
            ("concordance", "pass" if self.concordance.passed else "FAIL"),
            (
                "tau bound violated",
                "YES" if self.bound_violations["tau"] else "no",
            ),
            (
                "omega bound violated",
                "YES" if self.bound_violations["omega"] else "no",
            ),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)


def _mc_se(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def validate_bounds(
    cfg: ScenarioConfig,
    rho_for_bound: float | None = None,
    model_for_bound=None,
    endpoint_mode: str = "designated",
) -> SimulationReport:
    """Run every replicate and compare realized FPs against both bounds.

    With the defaults the comparison runs in oracle mode — the bound
    inputs are the scenario's own truth (rho from the prior's negative
    mass, h from the true prior).  Passing a fitted model/rho instead
    gives the end-to-end check.  A bound is flagged violated when the
    mean of (realized - bound) across replicates exceeds 3 MC-SE of
    that difference.

    Raises:
        ValueError: before any draw, if ``rho_for_bound`` is not finite
            in [0, 1] or ``endpoint_mode`` is unknown.
    """
    if rho_for_bound is None:
        rho = rho_from_prior(cfg)
    else:
        rho = float(rho_for_bound)
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {rho}")
    _check_endpoint_mode(endpoint_mode)
    model = cfg.prior_model() if model_for_bound is None else model_for_bound
    fps = np.empty(cfg.replicates)
    taus = np.empty(cfg.replicates)
    omegas = np.empty(cfg.replicates)
    positives = np.empty(cfg.replicates)
    counts = dict.fromkeys(_CHECK_NAMES)
    for rep in range(cfg.replicates):
        draw = draw_population(cfg, rep)
        fps[rep] = oracle_count_fp(draw)
        positives[rep] = np.count_nonzero(draw.positive)
        # Counts first: their temporaries are gone before omega's copies.
        for check, part in _draw_counts(draw, 0.25).items():
            counts[check] = _merge_counts(counts[check], part)
        taus[rep] = _tau_from_arrays(rho, draw.m, draw.is_type_a, draw.alpha)
        z = draw.z[draw.positive]
        read = _read_endpoints(z, draw.is_type_a[draw.positive], endpoint_mode)
        # A memoryview hands fsum one float at a time, not a list of them all.
        omegas[rep] = math.fsum(memoryview(1.0 - h_values(model, z[read])))
        # Unbound, the draw would live until the next one is built.
        del draw, z, read
    concordance = _concordance_from_counts(counts, 0.25)

    tau_diff = fps - taus
    omega_diff = fps - omegas
    tau_margin = float(tau_diff.mean()) - 3.0 * _mc_se(tau_diff)
    omega_margin = float(omega_diff.mean()) - 3.0 * _mc_se(omega_diff)
    return SimulationReport(
        n_trials=cfg.n_trials,
        replicates=cfg.replicates,
        rho=rho,
        model_id=model.model_id,
        realized_fp_mean=float(fps.mean()),
        realized_fp_se=_mc_se(fps),
        positive_count_mean=float(positives.mean()),
        tau_hat_mean=float(taus.mean()),
        tau_hat_se=_mc_se(taus),
        omega_hat_mean=float(omegas.mean()),
        omega_hat_se=_mc_se(omegas),
        alpha_mean_null=concordance.second.mean_null,
        alpha_mean_nonnull=concordance.second.mean_nonnull,
        concordance=concordance,
        tau_margin=tau_margin,
        omega_margin=omega_margin,
        bound_violations={
            "tau": tau_margin > _EQ_SLACK,
            "omega": omega_margin > _EQ_SLACK,
        },
    )
