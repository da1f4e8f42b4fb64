"""Monte Carlo estimators with uncertainty for exit statistics.

`escalate` is the one driver that turns exit samples into estimates: it
averages functionals over common exits, doubling the sample count until
every estimate is precise or a path cap is reached.  Boolean functionals
give Wilson 95% intervals, others t-intervals; the fixed-n estimators are
one-round calls.  A round of n paths splits into ceil(n / PART_PATHS)
near-even parts, each on its own RNG substream, so results depend only
on the seed and the config.  Many start points escalate in one call:
each round walks the parts of the points still running in lockstep, at
most LOCKSTEP_PATHS paths at a time, and each point's estimates equal
those of a call of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .domains import Ball, Domain
from .errors import DomainError, EstimationError
from .rng import RngStream
from .sampler import (DEFAULT_MAX_STEPS, BatchExit, ProcessModel,
                      sample_exits)

STALL_WARN_FRACTION = 1e-3
STALL_FAIL_FRACTION = 5e-2
ESCALATION_CAP = 10_000_000
TARGET_REL_STDERR = 0.02
PART_PATHS = 2 ** 14          # paths per RNG part; fixes which draws are made
LOCKSTEP_PATHS = 2 ** 14      # paths per gather and walk; bounds their memory


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
        tq = float(stats.t.ppf(0.975, n - 1))
        return cls(value=mean, stderr=se, n=n,
                   ci95=(mean - tq * se, mean + tq * se), method=method)


class PointEstimates(list):
    """One start point's estimates from `escalate`, in functional order.

    `shell_stops` counts the point's estimated paths that stopped in a
    stopping shell (`domains.Truncation`); it is tallied, never targeted,
    so it does not steer escalation.
    """

    shell_stops: int = 0


# ===================================================================== #
# RNG parts and lockstep chunks
# ===================================================================== #

def split_n(n: int, parts: int) -> list:
    """Deterministic near-even split of n into `parts` sizes."""
    if parts < 1:
        raise DomainError("need at least one part")
    base = n // parts
    sizes = [base + (1 if i < n % parts else 0) for i in range(parts)]
    return [s for s in sizes if s > 0]


def _lockstep_chunks(sizes: list):
    """Consecutive slices of `sizes` summing to at most LOCKSTEP_PATHS;
    a larger size gets a slice of its own."""
    start = total = 0
    for i, s in enumerate(sizes):
        if i > start and total + s > LOCKSTEP_PATHS:
            yield slice(start, i)
            start, total = i, 0
        total += s
    if sizes:
        yield slice(start, len(sizes))


def gather_exits(model: ProcessModel, D: Domain, points, ns, rngs,
                 rho: float = 0.5, max_steps: int = DEFAULT_MAX_STEPS) -> tuple:
    """Exit batches of several points, with the stall policy applied per point.

    Point j draws ns[j] paths split into ceil(ns[j] / PART_PATHS)
    near-even parts; part i draws from rngs[j].substream(i).  The parts
    of all points walk in lockstep, as the groups of `sample_exits` calls
    of at most LOCKSTEP_PATHS paths each (a larger part walks alone).
    Each part draws exactly what a call of its own would, so nothing
    depends on how they are grouped.

    Returns (batch, counts, warnings): the non-stalled paths of all
    points in point order, how many of them belong to each point, and
    each point's warning list.  Raises EstimationError at the first point
    with more than 5% of its paths stalled.
    """
    parts = [(x, size, rng.substream(i))
             for x, n, rng in zip(points, ns, rngs)
             for i, size in enumerate(split_n(n, -(-n // PART_PATHS)))]
    batches = []
    for chunk in _lockstep_chunks([size for _, size, _ in parts]):
        xs, sizes, streams = zip(*parts[chunk])
        batches.append(sample_exits(model, D, xs, sizes, streams, rho=rho,
                                    max_steps=max_steps))
    batch = BatchExit.concat(batches)
    counts, warnings = [], []
    start = 0
    for n in ns:
        n_stall = int(batch.stalled[start:start + n].sum())
        start += n
        frac = n_stall / n
        if frac > STALL_FAIL_FRACTION:
            raise EstimationError(
                f"sampler stall rate {frac:.2%} exceeds the 5% reliability "
                f"limit ({n_stall}/{n})")
        warnings.append(
            [f"stall rate {frac:.3%} ({n_stall}/{n}); estimates use the "
             f"non-stalled paths only"] if frac > STALL_WARN_FRACTION else [])
        counts.append(n - n_stall)
    return batch.take(~batch.stalled), counts, warnings


# ===================================================================== #
# estimators
# ===================================================================== #

def harmonic_measure(model: ProcessModel, D: Domain, x, A, n: int,
                     rng: RngStream, rho: float = 0.5) -> Estimate:
    """P_x(X_{tau_D} in A): fraction of n exit samples landing in A.

    A is a vectorized predicate over exit points (a subset of the
    complement of D).
    """
    (est,), = escalate(model, D, [x],
                       [lambda b: np.asarray(A(b.y), dtype=bool)], [rng], n,
                       n, rho=rho, method="mc-binomial-harmonic-measure")
    return est


def mean_exit_time(model: ProcessModel, D: Domain, x, n: int,
                   rng: RngStream, rho: float = 0.5) -> Estimate:
    """E_x[tau_D] via the accumulated closed-form time weights of n paths."""
    (est,), = escalate(model, D, [x], [lambda b: b.w], [rng], n, n,
                       rho=rho, method="mc-mean-exit-time")
    return est


def exit_before_subdomain(model: ProcessModel, D: Domain, xi, r: float, x,
                          n: int, rng: RngStream,
                          rho: float = 0.5) -> Estimate:
    """P_x(tau_D > tau_{B_D(xi, r)}): the process leaves B(xi,r) before D.

    Estimated as the fraction of n exit samples from D & B(xi,r) whose
    exit point still lies in D.
    """
    (est,), = escalate(model, D.truncate(xi, r), [x],
                       [lambda b: D.contains(b.y)], [rng], n, n, rho=rho,
                       method="mc-binomial-exit-before-subdomain")
    return est


def set_distance(U: Domain, W: Domain) -> float:
    """Distance d(U, W), exact for ball pairs, conservative otherwise.

    For non-ball pairs the bound is a probe minimum over anchor points,
    which only weakens inequalities that divide by phi(d(U, W)).
    """
    if isinstance(U, Ball) and isinstance(W, Ball):
        gap = float(np.linalg.norm(U.center - W.center)) - U.radius - W.radius
        return max(0.0, gap)
    pts = [np.asarray(a, dtype=float) for a in U.boundary_anchors]
    qts = [np.asarray(a, dtype=float) for a in W.boundary_anchors]
    if not pts or not qts:
        raise DomainError("set_distance needs boundary anchors on both sets")
    d = min(float(np.linalg.norm(p - q)) for p in pts for q in qts)
    return d


def lemma24_bounds(model: ProcessModel, U: Domain, W: Domain, x, n: int,
                   rng: RngStream, phi, r_bar: float = np.inf,
                   rho: float = 0.5) -> dict:
    """Compare P_x(X_{tau_U} in W) against E_x[tau_U] / phi(d(U,W) ^ r_bar).

    Returns {"lhs": Estimate, "rhs": float, "implied_constant": float,
    "dist": float}; the implied constant is lhs/rhs.
    """
    d_uw = set_distance(U, W)
    if not d_uw > 0:
        raise DomainError("lemma comparison needs d(U, W) > 0 "
                          "(W must not touch the closure of U)")
    lhs = harmonic_measure(model, U, x, W.contains, n, rng.substream(0),
                           rho=rho)
    met = mean_exit_time(model, U, x, n, rng.substream(1), rho=rho)
    rhs = met.value / float(phi(min(d_uw, r_bar)))
    implied = lhs.value / rhs if rhs > 0 else np.inf
    return {"lhs": lhs, "mean_exit_time": met, "rhs": rhs,
            "implied_constant": implied, "dist": d_uw}


# ===================================================================== #
# precision escalation
# ===================================================================== #

def escalate(model: ProcessModel, D: Domain, points, functionals,
             rngs, n0: int, cap: int = ESCALATION_CAP,
             target: float = TARGET_REL_STDERR, rho: float = 0.5,
             method: str = "mc-mean") -> list:
    """Estimates of several batch functionals over common exits, per point.

    `points` holds one start point per stream in `rngs`; the result
    holds one estimate list per point, equal to what a one-point call on
    (points[j], rngs[j]) returns.  Each functional maps an exit batch to
    per-path values (e.g. `lambda b: g(b.y)` or `lambda b: b.w`), so a
    point's estimates are built from the same paths.  Boolean values
    give a binomial estimate of the merged count, any others a mean
    estimate of the merged moments.  Each point's list is a
    `PointEstimates`, which also counts the paths that stopped in D's
    stopping shell, if D has one.

    Round k of point j draws from `rngs[j].substream(k)`: n0 paths first,
    then as many as already drawn (bounded by the cap), so the sample
    count doubles per round.  A point stops once every relative standard
    error is below `target`, or once `cap` paths have been drawn, in which
    case its estimates are marked underpowered; `cap = n0` is a fixed-n
    estimate.  Stalled paths count as drawn but not in the estimates, and
    every round's stall warnings are attached to each of the point's
    estimates.

    A round gathers the exits of the points still running in
    consecutive chunks of at most LOCKSTEP_PATHS paths (a larger point
    gets a gather of its own), and `gather_exits` walks each chunk in
    lockstep; draws depend on PART_PATHS, not on LOCKSTEP_PATHS or on
    which points walk together.  If several points break the stall
    limit, the first in (round, point) order raises.
    """
    rngs = list(rngs)
    points = np.asarray(points, dtype=float).reshape(len(rngs), -1)
    m, nf = len(rngs), len(functionals)
    sums = [[0.0] * nf for _ in range(m)]
    sumsq = [[0.0] * nf for _ in range(m)]
    binary = [False] * nf
    warnings = [[] for _ in range(m)]
    total = [0] * m
    shell_stops = [0] * m
    results = [None] * m
    running = list(range(m))
    drawn = k = 0
    n = n0
    while running:
        for c in _lockstep_chunks([n] * len(running)):
            chunk = running[c]
            batch, counts, warns = gather_exits(
                model, D, points[chunk], [n] * len(chunk),
                [rngs[j].substream(k) for j in chunk], rho)
            start = 0
            for j, cnt, warn in zip(chunk, counts, warns):
                part = batch.take(slice(start, start + cnt))
                start += cnt
                warnings[j].extend(warn)
                for i, f in enumerate(functionals):
                    v = np.asarray(f(part))
                    binary[i] = v.dtype == bool
                    v = v.astype(float)
                    sums[j][i] += v.sum()
                    sumsq[j][i] += (v * v).sum()
                total[j] += cnt
                shell_stops[j] += int(part.shelled.sum())
        k += 1
        drawn += n
        for j in running:
            estimates = [
                Estimate.binomial(int(s), total[j], method=method) if b
                else Estimate.from_moments(s, q, total[j], method=method)
                for s, q, b in zip(sums[j], sumsq[j], binary)]
            precise = max(e.rel_stderr for e in estimates) < target
            if precise or drawn >= cap:
                for e in estimates:
                    e.underpowered = not precise
                    e.warnings.extend(warnings[j])
                results[j] = PointEstimates(estimates)
                results[j].shell_stops = shell_stops[j]
        running = [j for j in running if results[j] is None]
        n = min(drawn, cap - drawn)
    return results
