"""Monte Carlo estimators with uncertainty for exit statistics.

Probabilities carry Wilson 95% intervals, means carry t-intervals; every
estimate records its sample count and method tag.  Estimators split work
across logical worker streams with disjoint RNG substreams and merge
(sum, sumsq, count) triples, so results depend only on
(seed, worker count), never on scheduling.
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

    @classmethod
    def from_samples(cls, values, method: str = "mc-mean") -> "Estimate":
        values = np.asarray(values, dtype=float)
        return cls.from_moments(float(values.sum()),
                                float((values * values).sum()),
                                int(values.size), method=method)

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr, "n": self.n,
                "ci95": list(self.ci95), "method": self.method,
                "warnings": list(self.warnings),
                "underpowered": self.underpowered}


# ===================================================================== #
# worker plumbing
# ===================================================================== #

def split_n(n: int, workers: int) -> list:
    """Deterministic near-even split of n across workers."""
    if workers < 1:
        raise DomainError("need at least one worker")
    base = n // workers
    sizes = [base + (1 if i < n % workers else 0) for i in range(workers)]
    return [s for s in sizes if s > 0]


def gather_exits(model: ProcessModel, D: Domain, x, n: int, rng: RngStream,
                 workers: int = 1, rho: float = 0.5,
                 max_steps: int = DEFAULT_MAX_STEPS) -> tuple:
    """Merged exit batch over worker streams, with the stall policy applied.

    Returns (batch restricted to non-stalled paths, warnings list).
    Raises EstimationError if more than 5% of paths stalled.
    """
    parts = []
    for i, ni in enumerate(split_n(n, workers)):
        parts.append(sample_exits(model, D, x, ni, rng.substream(i),
                                  rho=rho, max_steps=max_steps))
    batch = BatchExit(y=np.concatenate([p.y for p in parts]),
                      w=np.concatenate([p.w for p in parts]),
                      steps=np.concatenate([p.steps for p in parts]),
                      stalled=np.concatenate([p.stalled for p in parts]))
    n_stall = int(batch.stalled.sum())
    frac = n_stall / batch.n
    warnings = []
    if frac > STALL_FAIL_FRACTION:
        raise EstimationError(
            f"sampler stall rate {frac:.2%} exceeds the 5% reliability limit "
            f"({n_stall}/{batch.n})")
    if frac > STALL_WARN_FRACTION:
        warnings.append(f"stall rate {frac:.3%} ({n_stall}/{batch.n}); "
                        f"estimates use the non-stalled paths only")
    ok = ~batch.stalled
    clean = BatchExit(y=batch.y[ok], w=batch.w[ok], steps=batch.steps[ok],
                      stalled=batch.stalled[ok])
    return clean, warnings


# ===================================================================== #
# estimators
# ===================================================================== #

def harmonic_measure(model: ProcessModel, D: Domain, x, A, n: int,
                     rng: RngStream, workers: int = 1, rho: float = 0.5,
                     max_steps: int = DEFAULT_MAX_STEPS) -> Estimate:
    """P_x(X_{tau_D} in A): fraction of exit samples landing in A.

    A is a vectorized predicate over exit points (a subset of the
    complement of D).
    """
    batch, warnings = gather_exits(model, D, x, n, rng, workers, rho,
                                   max_steps)
    hits = np.asarray(A(batch.y), dtype=bool)
    est = Estimate.binomial(int(hits.sum()), batch.n,
                            method="mc-binomial-harmonic-measure")
    est.warnings.extend(warnings)
    return est


def mean_exit_time(model: ProcessModel, D: Domain, x, n: int,
                   rng: RngStream, workers: int = 1, rho: float = 0.5,
                   max_steps: int = DEFAULT_MAX_STEPS) -> Estimate:
    """E_x[tau_D] via the accumulated closed-form time weights."""
    batch, warnings = gather_exits(model, D, x, n, rng, workers, rho,
                                   max_steps)
    est = Estimate.from_samples(batch.w, method="mc-mean-exit-time")
    est.warnings.extend(warnings)
    return est


def exit_before_subdomain(model: ProcessModel, D: Domain, xi, r: float, x,
                          n: int, rng: RngStream, workers: int = 1,
                          rho: float = 0.5,
                          max_steps: int = DEFAULT_MAX_STEPS) -> Estimate:
    """P_x(tau_D > tau_{B_D(xi, r)}): the process leaves B(xi,r) before D.

    Estimated as the fraction of exit samples from D & B(xi,r) whose exit
    point still lies in D.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not D.contains(x) or np.linalg.norm(x - xi) >= r:
        raise DomainError("start point must lie in B_D(xi, r)")
    trunc = D.truncate(xi, r)
    batch, warnings = gather_exits(model, trunc, x, n, rng, workers, rho,
                                   max_steps)
    still_inside = np.asarray(D.contains(batch.y), dtype=bool)
    est = Estimate.binomial(int(still_inside.sum()), batch.n,
                            method="mc-binomial-exit-before-subdomain")
    est.warnings.extend(warnings)
    return est


def set_distance(U: Domain, W: Domain, probes: int = 4096,
                 rng: RngStream | None = None) -> float:
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
                   workers: int = 1, rho: float = 0.5,
                   dist_uw: float | None = None) -> dict:
    """Compare P_x(X_{tau_U} in W) against E_x[tau_U] / phi(d(U,W) ^ r_bar).

    Returns {"lhs": Estimate, "rhs": float, "implied_constant": float,
    "dist": float}; the implied constant is lhs/rhs.
    """
    d_uw = set_distance(U, W) if dist_uw is None else float(dist_uw)
    if not d_uw > 0:
        raise DomainError("lemma comparison needs d(U, W) > 0 "
                          "(W must not touch the closure of U)")
    lhs = harmonic_measure(model, U, x, W.contains, n,
                           rng.substream(0), workers=workers, rho=rho)
    met = mean_exit_time(model, U, x, n, rng.substream(1), workers=workers,
                         rho=rho)
    rhs = met.value / float(phi(min(d_uw, r_bar)))
    implied = lhs.value / rhs if rhs > 0 else np.inf
    return {"lhs": lhs, "mean_exit_time": met, "rhs": rhs,
            "implied_constant": implied, "dist": d_uw}


# ===================================================================== #
# precision escalation
# ===================================================================== #

def escalate(model: ProcessModel, D: Domain, x, functionals,
             rng: RngStream, n0: int, cap: int = ESCALATION_CAP,
             target: float = TARGET_REL_STDERR, workers: int = 1,
             rho: float = 0.5, method: str = "mc-mean") -> list:
    """Mean estimates of several batch functionals over common exits.

    Each functional maps an exit batch to per-path values (e.g.
    `lambda b: g(b.y)` or `lambda b: b.w`), so every estimate is built
    from the same paths.  Round k draws from `rng.substream(k)`: n0 paths
    first, then as many as already counted (bounded by the cap), so the
    sample count doubles per round.  Rounds stop once every relative
    standard error is below `target`, or once the non-stalled path count
    reaches `cap`, in which case the estimates are marked underpowered.
    Every round's stall warnings are attached to each estimate.
    """
    sums = [0.0] * len(functionals)
    sumsq = [0.0] * len(functionals)
    warnings = []
    total = 0
    n = n0
    k = 0
    while True:
        batch, warn = gather_exits(model, D, x, n, rng.substream(k), workers,
                                   rho)
        k += 1
        warnings.extend(warn)
        for i, f in enumerate(functionals):
            v = np.asarray(f(batch), dtype=float)
            sums[i] += v.sum()
            sumsq[i] += (v * v).sum()
        total += batch.n
        estimates = [Estimate.from_moments(s, q, total, method=method)
                     for s, q in zip(sums, sumsq)]
        precise = max(e.rel_stderr for e in estimates) < target
        if precise or total >= cap:
            for e in estimates:
                e.underpowered = not precise
                e.warnings.extend(warnings)
            return estimates
        n = min(total, cap - total)
