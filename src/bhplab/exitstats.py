"""Monte Carlo estimators with uncertainty for exit statistics.

`escalate` is the one driver that turns exit samples into estimates: it
averages functionals over common exits, doubling the sample count until
every estimate is precise or a path cap is reached.  Boolean functionals
give Wilson 95% intervals, others t-intervals, whose quantile comes from
`t_quantile_975` (standard library only, within 3 ulp of the exact one,
so loading bhplab loads no scipy); the fixed-n estimators are one-round
calls.  A round of n paths splits into ceil(n / PART_PATHS) near-even
parts, each on its own RNG substream, so results depend only on the seed
and the config.  Many start points escalate in one call, each with its
own functionals if need be (exit-stats walks its mean exit time and its
targets so): each round walks the parts of the points still running in
lockstep walks that hold the exits of up to 3 * PART_PATHS paths but
move at most PART_PATHS walkers at once, starting a part as earlier ones
finish, and sums each walk's exits as it returns (so memory does not
grow with n); each point's estimates equal those of a call of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .domains import Domain
from .errors import DomainError, EstimationError
from .rng import RngStream
from .sampler import BALL_FACTOR, ProcessModel, sample_exits

STALL_WARN_FRACTION = 1e-3
STALL_FAIL_FRACTION = 5e-2
ESCALATION_CAP = 10_000_000
TARGET_REL_STDERR = 0.02
PART_PATHS = 2 ** 14   # paths per RNG part: fixes the draws


# ===================================================================== #
# estimates
# ===================================================================== #

@dataclass
class Estimate:
    """A Monte Carlo estimate with its uncertainty and provenance."""

    value: float
    stderr: float
    n: int
    ci95: tuple
    method: str
    warnings: list = field(default_factory=list)
    underpowered: bool = False

    def __post_init__(self):
        if self.stderr < 0 or self.n < 1:
            raise EstimationError("estimate needs stderr >= 0 and n >= 1")
        lo, hi = self.ci95
        if not lo <= self.value <= hi:
            raise EstimationError("confidence interval must contain the value")

    @property
    def rel_stderr(self) -> float:
        if self.value == 0.0:
            return np.inf
        return self.stderr / abs(self.value)

    # -------------------------------------------------------------- #
    @classmethod
    def binomial(cls, k: int, n: int, method: str = "mc-binomial") -> "Estimate":
        """Proportion estimate with a Wilson 95% interval."""
        if not 0 <= k <= n or n < 1:
            raise EstimationError("need 0 <= k <= n, n >= 1")
        p = k / n
        z = 1.959963984540054
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z / denom * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        return cls(value=p, stderr=float(np.sqrt(p * (1 - p) / n)), n=n,
                   ci95=(max(0.0, min(center - half, p)),
                         min(1.0, max(center + half, p))),
                   method=method)

    @classmethod
    def from_moments(cls, total: float, total_sq: float, n: int,
                     method: str = "mc-mean") -> "Estimate":
        """Mean estimate with a t-interval from merged (sum, sumsq, n)."""
        if n < 1:
            raise EstimationError("need n >= 1")
        mean = total / n
        if n == 1:
            return cls(value=mean, stderr=0.0, n=1, ci95=(mean, mean),
                       method=method)
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
        se = float(np.sqrt(var / n))
        tq = t_quantile_975(n - 1)
        return cls(value=mean, stderr=se, n=n,
                   ci95=(mean - tq * se, mean + tq * se), method=method)


# ===================================================================== #
# the Student-t quantile
# ===================================================================== #

_Z975 = 1.9599639845400543     # the normal quantile at 0.975, rounded
# A&S 26.7.5 at p = 0.975: t = z + g1/df + g2/df^2 + g3/df^3 + g4/df^4
_AS_TERMS = ((_Z975 ** 3 + _Z975) / 4,
             (5 * _Z975 ** 5 + 16 * _Z975 ** 3 + 3 * _Z975) / 96,
             (3 * _Z975 ** 7 + 19 * _Z975 ** 5 + 17 * _Z975 ** 3
              - 15 * _Z975) / 384,
             (79 * _Z975 ** 9 + 776 * _Z975 ** 7 + 1482 * _Z975 ** 5
              - 1920 * _Z975 ** 3 - 945 * _Z975) / 92160)
_AS_DF = 5000       # from here on the four terms are exact to 1e-17
_SERIES_DF = 20     # below this `_t_tail` sums A&S 26.7.3/26.7.4


def _sinhc_power_coefficients(count: int) -> list:
    """alpha_0..alpha_{count-1} of (sinh(v/2) / (v/2))^(-1/2) in powers
    of v^2, by the power rule for series."""
    s = [1.0 / (4 ** k * math.factorial(2 * k + 1)) for k in range(count)]
    alpha = [1.0]
    for k in range(1, count):
        alpha.append(sum((0.5 * j - k) * s[j] * alpha[k - j]
                         for j in range(1, k + 1)) / k)
    return alpha


_ALPHA = _sinhc_power_coefficients(16)


def _inverse_beta(df: int, c: float) -> float:
    """1 / B(df / 2, 1/2) from c = C(2m, m) / 4^m, m = df // 2."""
    return df // 2 * c if df % 2 == 0 else 1.0 / (math.pi * c)


def _t_tail(t: float, df: int, c: float) -> float:
    """P(T > t) for Student's T with df >= 3 degrees of freedom, t > 0.

    The tail itself is summed, never 1 minus the body, and x = df / (df +
    t^2) is never rounded (near 1 its rounding alone moves the tail by
    hundreds of ulp): powers of x are taken as exp(-k log1p(t^2 / df)).
    `c` is the central binomial term C(2m, m) / 4^m, m = df // 2.

    Below df 20, the terms past the finite sums of A&S 26.7.3/26.7.4,
    with u = x and c_k = C(2k, k) / 4^k:
        df = 2m:      P = sin(theta) / 2 * sum_{k >= m} c_k u^k
        df = 2m + 1:  P = sin(theta) cos(theta) / pi
                          * sum_{k >= m} u^k / ((2k + 1) c_k).
    From df 20, P = I_x(a, 1/2) / 2 with a = df / 2 by the expansion of
    DiDonato & Morris (ACM TOMS 18, 1992, BGRAT): with s = a - 1/4 and
    z = log1p(t^2 / df),
        I_x(a, 1/2) = s^(-1/2) / B(a, 1/2)
                      * sum_n alpha_n s^(-2n) Gamma(2n + 1/2, s z),
    where Gamma is the upper incomplete gamma function; it has converged
    to 1e-17 by alpha_10 at df 20 and by alpha_3 from df 1000 on.
    """
    m = df // 2
    lx = -math.log1p(t * t / df)                   # log x
    sin = t / math.sqrt(df + t * t)
    if df < _SERIES_DF:
        total, k = 0.0, m
        while True:
            term = (c if df % 2 == 0 else 1.0 / ((2 * k + 1) * c)) \
                * math.exp(k * lx)
            total += term
            if term < 1e-17 * total:
                break
            c *= (2 * k + 1) / (2 * k + 2)
            k += 1
        if df % 2 == 0:
            return 0.5 * sin * total
        return sin * math.exp(0.5 * lx) * total / math.pi
    s = 0.5 * df - 0.25
    u = -s * lx
    # Gamma(q, u) climbs by Gamma(q + 1, u) = q Gamma(q, u) + u^q e^-u
    gamma = math.sqrt(math.pi) * math.erfc(math.sqrt(u))
    power = math.sqrt(u) * math.exp(-u)
    q, total, scale = 0.5, gamma, 1.0
    for alpha in _ALPHA[1:]:
        for _ in range(2):
            gamma = q * gamma + power
            power *= u
            q += 1.0
        scale /= s * s
        term = alpha * scale * gamma
        total += term
        if abs(term) < 1e-17 * total:
            break
    return 0.5 * _inverse_beta(df, c) / math.sqrt(s) * total


@functools.cache
def _central_binomial(m: int) -> float:
    """C(2m, m) / 4^m from exact integers, so it is correctly rounded;
    cached, since df = 2m and 2m + 1 both need it."""
    return math.comb(2 * m, m) / 4 ** m


@functools.cache
def t_quantile_975(df: int) -> float:
    """The 0.975 quantile of Student's t with df >= 1 degrees of freedom.

    Closed forms at df 1 and 2, the expansion of Abramowitz & Stegun
    26.7.5 to 1/df^4 from df 5000 on, and in between Newton steps from
    that expansion on the upper tail `_t_tail` (at most four).  Within 3
    ulp of the exact quantile at every df to 5000 and on a grid to 3e7;
    cached per df.
    """
    if df == 1:
        return 1.0 / math.tan(math.pi / 40)
    if df == 2:
        return math.sqrt(722 / 39)
    g1, g2, g3, g4 = _AS_TERMS
    t = _Z975 + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df
    if df >= _AS_DF:
        return t
    c = _central_binomial(df // 2)
    # the density is f0 (1 + t^2 / df)^(-(df + 1) / 2)
    f0 = _inverse_beta(df, c) / math.sqrt(df)
    for _ in range(8):
        step = (_t_tail(t, df, c) - 0.025) / (
            f0 * math.exp(-0.5 * (df + 1) * math.log1p(t * t / df)))
        t += step
        if abs(step) < 1e-12 * t:
            break
    return t


class PointEstimates(list):
    """One start point's estimates from `escalate`, in functional order.

    `shell_stops` counts the point's estimated paths that stopped in a
    stopping shell (`domains.Truncation`); it is tallied, never targeted,
    so it does not steer escalation.
    """

    shell_stops: int = 0


# ===================================================================== #
# RNG parts, lockstep walks and their tallies
# ===================================================================== #

@dataclass
class Tally:
    """Sums of functionals over non-stalled exits, one row per point;
    each point has its own functionals."""

    counts: list     # per point: kept paths
    sums: list       # per point: (functionals,) sums over the kept paths
    sumsq: list      # per point: (functionals,) sums of squares
    binary: list     # per point: whether each functional is boolean

    @classmethod
    def zeros(cls, widths) -> "Tally":
        """No paths yet, for points with widths[j] functionals each."""
        return cls([0] * len(widths), [np.zeros(k) for k in widths],
                   [np.zeros(k) for k in widths],
                   [[False] * k for k in widths])

    @property
    def n(self) -> int:
        """The kept paths of all points."""
        return sum(self.counts)


def split_n(n: int, parts: int) -> list:
    """Deterministic near-even split of n into `parts` sizes."""
    if parts < 1:
        raise DomainError("need at least one part")
    base = n // parts
    sizes = [base + (1 if i < n % parts else 0) for i in range(parts)]
    return [s for s in sizes if s > 0]


def _lockstep_chunks(sizes: list):
    """Consecutive slices of `sizes` that sum to at most 3 * PART_PATHS,
    or hold one size alone.

    Each slice is one walk, which holds the exits of all its parts but
    moves at most `sampler.LOCKSTEP_WALKERS` (= PART_PATHS) walkers at
    once: it starts a part once the part fits beside the walkers still
    active, so the tail of one part's walk overlaps the bulk of the next.
    """
    start = total = 0
    for i, s in enumerate(sizes):
        if total + s > 3 * PART_PATHS:
            yield slice(start, i)
            start, total = i, 0
        total += s
    if sizes:
        yield slice(start, len(sizes))


def gather_exits(model: ProcessModel, D: Domain, points, ns, rngs,
                 functionals, rho: float = BALL_FACTOR) -> tuple:
    """Per-point sums of functionals over exits, stall policy applied.

    Point j draws ns[j] paths split into ceil(ns[j] / PART_PATHS)
    near-even parts; part i draws from rngs[j].substream(i).  The parts
    of all points walk in order, as `sample_exits` calls that each hold
    the exits of at most 3 * PART_PATHS paths (`_lockstep_chunks`) and
    move at most PART_PATHS walkers at once, a part starting as earlier
    ones finish.  Each part draws exactly what a call of its own would,
    so nothing depends on how they are grouped.  As a walk returns, each
    of its parts adds the values of each of its point's functionals,
    functionals[j], on its non-stalled exits to the point's row, so at
    most one walk is held.

    Returns (tally, warnings): the `Tally` of the points in order, and
    each point's warning list.  Raises EstimationError at the first point
    with more than 5% of its paths stalled: paths that hit the step
    budget (`sampler.MAX_STEPS`) or escaped to infinity.
    """
    parts = [(j, x, size, rng.substream(i))
             for j, (x, n, rng) in enumerate(zip(points, ns, rngs))
             for i, size in enumerate(split_n(n, -(-n // PART_PATHS)))]
    tally = Tally.zeros([len(fs) for fs in functionals])
    for chunk in _lockstep_chunks([size for _, _, size, _ in parts]):
        owners, xs, sizes, streams = zip(*parts[chunk])
        batch = sample_exits(model, D, xs, sizes, streams, rho=rho)
        start = 0
        for j, size in zip(owners, sizes):
            kept = batch.take(start + np.flatnonzero(
                ~batch.stalled[start:start + size]))
            start += size
            tally.counts[j] += kept.n
            for i, f in enumerate(functionals[j]):
                v = np.asarray(f(kept))
                tally.binary[j][i] = v.dtype == bool
                v = v.astype(float)
                tally.sums[j][i] += v.sum()
                tally.sumsq[j][i] += (v * v).sum()
    warnings = []
    for n, kept in zip(ns, tally.counts):
        n_stall = n - kept
        frac = n_stall / n
        if frac > STALL_FAIL_FRACTION:
            raise EstimationError(
                f"sampler stall rate {frac:.2%} exceeds the 5% reliability "
                f"limit ({n_stall}/{n} paths hit the step budget or escaped "
                f"to infinity)")
        warnings.append(
            [f"stall rate {frac:.3%} ({n_stall}/{n}); estimates use the "
             f"non-stalled paths only"] if frac > STALL_WARN_FRACTION else [])
    return tally, warnings


# ===================================================================== #
# estimators
# ===================================================================== #

def harmonic_measure(model: ProcessModel, D: Domain, x, A, n: int,
                     rng: RngStream, rho: float = BALL_FACTOR) -> Estimate:
    """P_x(X_{tau_D} in A): fraction of n exit samples landing in A.

    A is a vectorized predicate over exit points (a subset of the
    complement of D).
    """
    (est,), = escalate(model, D, [x],
                       [lambda b: np.asarray(A(b.y), dtype=bool)], [rng], n,
                       n, rho=rho, method="mc-binomial-harmonic-measure")
    return est


def mean_exit_time(model: ProcessModel, D: Domain, x, n: int,
                   rng: RngStream, rho: float = BALL_FACTOR) -> Estimate:
    """E_x[tau_D] via the accumulated closed-form time weights of n paths."""
    (est,), = escalate(model, D, [x], [lambda b: b.w], [rng], n, n,
                       rho=rho, method="mc-mean-exit-time")
    return est


# ===================================================================== #
# precision escalation
# ===================================================================== #

def escalate(model: ProcessModel, D: Domain, points, functionals,
             rngs, n0: int, cap: int = ESCALATION_CAP,
             rho: float = BALL_FACTOR, method: str = "mc-mean") -> list:
    """Estimates of several batch functionals over common exits, per point.

    `points` holds one start point per stream in `rngs`; the result
    holds one estimate list per point, equal to what a one-point call on
    (points[j], rngs[j]) returns.  Each functional maps an exit batch to
    per-path values (e.g. `lambda b: g(b.y)` or `lambda b: b.w`), so a
    point's estimates are built from the same paths.  `functionals` is
    one list for every point, or one list per point; `method`, the label
    of every estimate, is likewise one string or one per point.  Boolean
    values give a binomial estimate of the summed count, any others a
    mean estimate of the summed moments.  Each point's list is a
    `PointEstimates`, which also counts the paths that stopped in D's
    stopping shell, if D has one: `b.shelled` is summed as one more
    functional, but never targeted.

    Round k of point j draws from `rngs[j].substream(k)`: n0 paths first,
    then as many as already drawn (bounded by the cap), so the sample
    count doubles per round.  A cap below n0 raises DomainError before
    any walk.  A point stops once every relative standard error is below
    TARGET_REL_STDERR, or once `cap` paths have been drawn, in which case
    its estimates are marked underpowered; `cap = n0` is a fixed-n
    estimate.  Stalled paths count as drawn but not in the estimates, and
    every round's stall warnings are attached to each of the point's
    estimates.

    Each round is one `gather_exits` call for the points still running;
    draws depend on PART_PATHS, not on which points walk together.  If
    several points break the stall limit, the first in (round, point)
    order raises.
    """
    if cap < n0:
        raise DomainError(f"path cap {cap} is below the first round's "
                          f"{n0} paths; increase cap or lower n")
    rngs = list(rngs)
    m = len(rngs)
    points = np.asarray(points, dtype=float).reshape(m, -1)
    if callable(functionals[0]):
        functionals = [functionals] * m
    methods = [method] * m if isinstance(method, str) else method
    functionals = [[*fs, lambda b: b.shelled] for fs in functionals]
    total = Tally.zeros([len(fs) for fs in functionals])
    warnings = [[] for _ in range(m)]
    results = [None] * m
    running = list(range(m))
    drawn = k = 0
    n = n0
    while running:
        tally, warns = gather_exits(
            model, D, points[running], [n] * len(running),
            [rngs[j].substream(k) for j in running],
            [functionals[j] for j in running], rho)
        k += 1
        drawn += n
        for row, j in enumerate(running):
            total.counts[j] += tally.counts[row]
            total.sums[j] += tally.sums[row]
            total.sumsq[j] += tally.sumsq[row]
            warnings[j].extend(warns[row])
            estimates = [
                Estimate.binomial(int(s), total.counts[j], method=methods[j])
                if b else Estimate.from_moments(s, q, total.counts[j],
                                                method=methods[j])
                for s, q, b in zip(total.sums[j][:-1], total.sumsq[j][:-1],
                                   tally.binary[row])]
            precise = (max(e.rel_stderr for e in estimates)
                       < TARGET_REL_STDERR)
            if precise or drawn >= cap:
                for e in estimates:
                    e.underpowered = not precise
                    e.warnings.extend(warnings[j])
                results[j] = PointEstimates(estimates)
                results[j].shell_stops = int(total.sums[j][-1])
        running = [j for j in running if results[j] is None]
        n = min(drawn, cap - drawn)
    return results
