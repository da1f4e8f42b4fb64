"""Samplers for pure-jump Markov processes.

The workhorse is the exact exit law of a ball for the isotropic
alpha-stable process: from the center, the exit radius is Beta-distributed
after the substitution B = 1/|y|^2, and the exit direction is uniform.
Composing exact ball exits inside a domain ("walk on balls") yields exact
samples of the domain exit position, plus an unbiased accumulator for the
mean exit time via the closed-form expected ball-exit time.  The walk
reads one number of the domain per walker and step, its signed clearance
(`Domain.clearance`): it sizes the next ball and decides the exit.  One
walk can carry many groups of paths, each with its own random stream, in
lockstep: they share every clearance call and position update, while
each group draws exactly what a walk of its own would.  A group starts
once it fits beside the walkers still active (LOCKSTEP_WALKERS), so one
group's tail walks beside the bulk of the next.

Without a shell a walker that nears the boundary continuously ends only
when its clearance drops below SURFACE_TOL = 1e-12, which on the slit
plane at alpha = 1.5 takes half the paths a hundred or more shrinking
balls.  A truncation D & B(xi, R) may carry a stopping shell of width
eps * r at D's own boundary (`domains.Truncation`): a walker whose
clearance to D falls to that width stops where it is, the epsilon-shell
of walk on spheres (Muller 1956).  A stop biases a harmonic function
whose data vanish nearby by about its size at distance eps * r: of order
eps^{alpha/2} only beside a fat complement, about eps^{0.55} as measured
beside the slit at alpha = 1.5, and with no bound at alpha <= 1, where
the slit and the comb's teeth are polar.  `bhp.eval_harmonic` walks with
eps = `bhp.SHELL_EPS` = 1e-6, and every other caller walks without one.

Approximation-grade models (lattice chain, Euler scheme for a stable SDE
with constant coefficient sigma_scale * I, gamma-subordinated stable)
cover time marginals and non-power scale functions, and the chain's
kappa(x, z) covers variable coefficients; their bias knobs (the chain's
pitch and cutoff, and ep-check's `n_steps`, which sets the Euler step
t / n_steps) are exposed, not certified.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domains import SURFACE_TOL, Ball, Domain, Truncation, _row_norm
from .errors import CapabilityError, ConfigError, DomainError, SamplerStallError
from .kernel import JumpKernelSpec, geometric_stable_kernel, tail_mass
from .rng import RngStream
from .scale import ScaleFunction

MAX_STEPS = 10 ** 6   # ball exits or chain proposals before a path stalls
LOCKSTEP_WALKERS = 2 ** 14   # walkers one walk on balls moves at once
# the default ball factor rho of the walk on balls: a walker at clearance
# c next exits B(x, rho * c); rho = 1 is the largest ball inside D, which
# gives exact exits in the fewest steps
BALL_FACTOR = 1.0


# ===================================================================== #
# closed-form constants for the isotropic stable process
# ===================================================================== #

def mean_exit_constant(d: int, alpha: float) -> float:
    """E_x[tau_{B(0,r)}] = C_E(d,a) (r^2 - |x|^2)^{a/2}; this is C_E."""
    return math.gamma(d / 2.0) / (2.0 ** alpha * math.gamma(1.0 + alpha / 2.0)
                                  * math.gamma((d + alpha) / 2.0))


def stable_kernel_constant(d: int, alpha: float) -> float:
    """The C of the jump kernel C |z|^{-d-a} of the process with symbol
    |xi|^a, the process the walk on balls and the Euler scheme run."""
    return alpha * 2.0 ** (alpha - 1.0) * math.gamma((d + alpha) / 2.0) \
        / (math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0))


# ===================================================================== #
# exact ball exits
# ===================================================================== #

def _radial_points(d: int, n, g, draw, to_radii) -> np.ndarray:
    """Points at radii to_radii(draws) in uniform directions, shape
    (sum(n), d).

    `n` and `g` are equal-length sequences: each generator g[j] in turn
    draws its n[j] values draw(g[j], n[j]) and then its n[j] directions,
    and the points come back concatenated in that order (a generator
    with n[j] = 0 draws nothing); to_radii maps the draws of all groups
    to radii in one elementwise call.  A direction is the sign of a
    uniform if d = 1, else a normalized Gaussian, drawn as
    g[j].random(n[j]) or g[j].standard_normal((n[j], d)) would draw
    them.  The points are column-major, each coordinate's column
    contiguous, and are scaled a column at a time.
    """
    m = int(sum(n))
    radii = np.empty(m)
    v = np.empty(m) if d == 1 else np.empty((m, d))
    start = 0
    for nj, gj in zip(n, g):
        if nj:
            stop = start + nj
            radii[start:stop] = draw(gj, nj)
            if d == 1:
                gj.random(out=v[start:stop])
            else:
                gj.standard_normal(out=v[start:stop])
            start = stop
    radii = to_radii(radii)
    out = np.empty((d, m)).T
    if d == 1:
        out[:, 0] = np.where(v < 0.5, -radii, radii)
        return out
    norm = _row_norm(v)
    for k in range(d):
        col = np.divide(v[:, k], norm, out=out[:, k])
        col *= radii
    return out


def ball_exit_centered(alpha: float, d: int, n, g) -> np.ndarray:
    """Exact unit-ball exit points from the center, shape (sum(n), d).

    The exit radius is 1/sqrt(B) with B ~ Beta(a/2, 1 - a/2); the
    direction is uniform by rotational symmetry.  `n` and `g` are
    equal-length sequences, one group per generator, drawn and ordered
    as `_radial_points` does.
    """
    def beta(gj, nj):
        return gj.beta(alpha / 2.0, 1.0 - alpha / 2.0, size=nj)

    def radii(b):
        return np.divide(1.0, np.sqrt(b, out=b), out=b)

    return _radial_points(d, n, g, beta, radii)


# ===================================================================== #
# process models
# ===================================================================== #

class ProcessModel:
    """Base class for the simulable model variants, each with a `kernel`."""


@dataclass(frozen=True)
class StableModel(ProcessModel):
    """A model of the alpha-stable process in R^dim with symbol |xi|^alpha,
    whose jump kernel is C |z|^{-dim-alpha}, C = `stable_kernel_constant`."""

    alpha: float
    dim: int

    def __post_init__(self):
        if not 0 < self.alpha < 2:
            raise ConfigError("alpha must lie in (0, 2)")
        if self.dim < 1:
            raise ConfigError("dimension must be >= 1")

    @property
    def kernel(self) -> JumpKernelSpec:
        c = stable_kernel_constant(self.dim, self.alpha)
        return JumpKernelSpec(dim=self.dim,
                              scale=ScaleFunction.power(self.alpha),
                              kappa=c, kappa_lo=c, kappa_hi=c)


class IsotropicStable(StableModel):
    """Rotation-invariant alpha-stable process; exact ball-exit law."""


@dataclass(frozen=True)
class StableLikeChain(ProcessModel):
    """Continuous-time lattice chain with rates h^d j(x, y - x) within R_c.

    Jumps beyond the cutoff are aggregated into a single far jump drawn
    from the normalized radial tail, carrying the exact tail mass beyond
    R_c.  A callable kappa (variable coefficients) is sampled by thinning
    against kappa_hi: jumps are proposed at the envelope rates and kept
    with probability kappa(x, z) / kappa_hi, which is exact for the chain,
    far jumps included.

    With kappa = 1 the chain runs the process with kernel |z|^{-d-alpha}.
    SdeStable's kernel is C |z|^{-d-alpha}, C = `stable_kernel_constant`,
    so chain time t is SdeStable time t / C (pi t at d = 1, alpha = 1).
    """

    kernel_spec: JumpKernelSpec
    h: float
    r_cut: float
    lattice_offset: float = 0.0   # lattice is h * (Z^d + offset) per axis

    def __post_init__(self):
        if not 0 < self.h < self.r_cut:
            raise ConfigError("need 0 < pitch h < cutoff R_c")
        if not 0 <= self.lattice_offset < 1:
            raise ConfigError("lattice offset must lie in [0, 1)")
        ks = self.kernel_spec
        alpha = ks.scale.params.get("alpha")
        if alpha is not None and alpha >= 1.0 and not ks.symmetric_in_z:
            raise ConfigError(
                "chain models with alpha >= 1 require symmetric-in-z "
                "coefficients (no compensator is simulated)")
        n_off = (2.0 * self.r_cut / self.h + 1.0) ** ks.dim
        if n_off > 5e6:
            raise ConfigError(
                f"lattice stencil would hold ~{n_off:.2g} offsets; "
                f"increase h or decrease R_c")

    @property
    def kernel(self) -> JumpKernelSpec:
        return self.kernel_spec

    @cached_property
    def tables(self) -> "_ChainTables":
        return _build_chain_tables(self)


@dataclass(frozen=True)
class SdeStable(StableModel):
    """Euler scheme for dX = sigma dZ with Z isotropic alpha-stable and a
    constant sigma = s I, the number `sigma_scale` = s.

    Increments of Z are exact (subordinated Gaussian), so the scheme is
    exact in law at the monitoring times.  The scale is checked here once,
    0 < s < inf, and applied as one multiply per step; the default s = 1
    is the identity.  The model carries no time step:
    `survival_prob_ball` (with it ep-check) steps at t / n_steps.
    """

    sigma_scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.sigma_scale < math.inf:
            raise ConfigError(f"sigma_scale must be finite and > 0 for "
                              f"ellipticity, got {self.sigma_scale!r}")


class GeometricStable(StableModel):
    """Stable process run at an independent Gamma-process clock.

    Matches the jump density comparable to r^{-d} min(1, r^{-alpha});
    approximation-grade only — its exit laws are not claimed exact.
    """

    @property
    def kernel(self) -> JumpKernelSpec:
        return geometric_stable_kernel(self.dim, self.alpha)


# ===================================================================== #
# walk on balls
# ===================================================================== #

@dataclass
class BatchExit:
    """Vectorized exit samples: arrays indexed by path."""

    y: np.ndarray          # (n, d) exit points
    w: np.ndarray          # (n,) accumulated expected-time weights
    steps: np.ndarray      # (n,) ball-exit counts
    stalled: np.ndarray    # (n,) bool: out of steps or escaped to infinity
    shelled: np.ndarray    # (n,) bool: stopped in a stopping shell

    @property
    def n(self) -> int:
        return len(self.w)

    def take(self, key) -> "BatchExit":
        """The paths selected by an index array, slice or mask."""
        return BatchExit(y=self.y[key], w=self.w[key], steps=self.steps[key],
                         stalled=self.stalled[key], shelled=self.shelled[key])

    @classmethod
    def concat(cls, parts) -> "BatchExit":
        """The paths of several batches, in order."""
        return cls(y=np.concatenate([p.y for p in parts]),
                   w=np.concatenate([p.w for p in parts]),
                   steps=np.concatenate([p.steps for p in parts]),
                   stalled=np.concatenate([p.stalled for p in parts]),
                   shelled=np.concatenate([p.shelled for p in parts]))


def _check_dimension(start_dim: int, model_dim: int) -> None:
    """Raise DomainError unless the starts lie in the model's R^d."""
    if start_dim != model_dim:
        raise DomainError(f"start points have dimension {start_dim} but the "
                          f"model has dimension {model_dim}")


def walk_exit_batch_indexed(model: IsotropicStable, clearance, starts,
                            rho: float, rngs, sizes) -> BatchExit:
    """Walk-on-balls exits of `model` for many groups of paths at once;
    starts outside its dimension raise DomainError before any draw.

    `clearance(pts, idx)` is the signed clearance of the (m, d) points
    `pts`; it also receives their path indices, so callers can close over
    per-path geometry (e.g. a different truncating ball for each walker).
    It is evaluated once on each group's starts, when the group starts,
    and once per active walker after each jump: a walker with clearance
    c > SURFACE_TOL is inside and next exits the ball B(x, rho * c)
    exactly, accumulating the closed-form expected ball-exit time; any
    other walker has exited.  One that left from a non-finite point
    escaped to infinity: like one still walking after MAX_STEPS steps, it
    is marked stalled.

    `clearance` may instead return a pair (c, in_shell), whose boolean
    `in_shell` marks the walkers inside a stopping shell (see
    `domains.Truncation`).  An inside walker so marked stops where it
    stands, with `shelled` set, and its position is reported as its exit:
    the epsilon-shell rule of walk on spheres (Muller, Ann. Math. Stat.
    27, 1956).  A start in the shell stops after 0 steps.

    The paths form consecutive groups, each with its own starts and
    stream: group j has sizes[j] paths, which start from `starts[j]`, one
    point or one per path (it broadcasts to (sizes[j], d)), and draw from
    the RngStream rngs[j].  Groups start in order, each once the walkers
    still active and its own fit in LOCKSTEP_WALKERS, or once no walker
    is active, so the tail of one group's walk overlaps the bulk of the
    next; a group's starts are neither built nor cleared before it starts.
    Started groups walk in lockstep, one clearance call and one position
    update per step for all of them, but each draws from its own
    generator in the order a walk of its own would: it counts its steps,
    MAX_STEPS included, from its own start, and its active walkers stay
    in path order, so its t-th draw gets exactly the count its own walk
    would ask for, and a group with no active walker draws nothing.
    Every group's exits are therefore bit-identical to a separate walk,
    however the groups overlap.

    The active positions live as coordinate rows, one C-ordered (d, m)
    array, and each jump is applied a coordinate at a time; `clearance`
    always gets the column-major (m, d) view of such an array.  Finished
    walkers are dropped by taking the indices of the rest
    (`np.flatnonzero`), and each group's count is read off the ascending
    path indices of the active walkers with `np.searchsorted`.
    """
    if not 0 < rho <= 1:
        raise DomainError("ball factor rho must lie in (0, 1]")
    d = model.dim
    starts = [np.atleast_2d(np.asarray(s, dtype=float)) for s in starts]
    for s in starts:
        _check_dimension(s.shape[1], d)
    sizes = [int(s) for s in sizes]
    if not len(starts) == len(sizes) == len(rngs) or any(
            len(s) not in (1, k) for s, k in zip(starts, sizes)):
        raise DomainError("walk exit: per group one stream, and one start "
                          "point or one per path")
    gens = [r.generator() for r in rngs]
    # group j holds the paths edges[j] <= i < edges[j + 1]; it started at
    # step begun[j] if j < started
    edges = np.cumsum([0] + sizes)
    begun = np.zeros(len(sizes), dtype=np.int64)
    started = 0
    n = int(edges[-1])
    y = np.empty((n, d))
    w = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    stalled = np.zeros(n, dtype=bool)
    shelled = np.zeros(n, dtype=bool)
    # the active walkers, compacted: coordinate rows xt, weights wa,
    # clearances c and whether they are inside, path idx (ascending), and
    # their count per group
    xt = np.empty((d, 0))
    wa, c = np.empty(0), np.empty(0)
    inside = np.empty(0, dtype=bool)
    idx = np.empty(0, dtype=np.int64)
    counts = [0] * len(sizes)
    ce = mean_exit_constant(d, model.alpha)
    step = 0
    # a walker escaping to infinity overflows; it is marked stalled below
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            out = ~inside
            # the oldest group still walking is the first out of steps
            if len(idx) and step - begun[bisect.bisect_right(
                    edges, idx[0]) - 1] >= MAX_STEPS:
                out |= np.repeat(step - begun >= MAX_STEPS, counts)
            if out.any():
                gone = np.flatnonzero(out)
                done = idx.take(gone)
                pos = xt.take(gone, axis=1)
                left = inside.take(gone)         # still inside: stalled
                y[done] = pos.T
                w[done] = wa.take(gone)
                steps[done] = step - begun[
                    np.searchsorted(edges, done, side="right") - 1]
                stalled[done] = left | ~np.isfinite(pos).all(axis=0)
                # a walker that ends inside the domain, with positive
                # clearance, stopped in the shell; any other jumped out
                shelled[done] = ~left & (c.take(gone) > SURFACE_TOL)
                keep = np.flatnonzero(~out)
                xt, wa, idx, c, inside = (
                    xt.take(keep, axis=1), wa.take(keep), idx.take(keep),
                    c.take(keep), inside.take(keep))
                counts = np.diff(np.searchsorted(idx, edges)).tolist()
            j = started
            if j < len(sizes) and (
                    not len(idx) or len(idx) + sizes[j] <= LOCKSTEP_WALKERS):
                # start the next group, and settle its starts at this step
                begun[j] = step
                started += 1
                if sizes[j]:
                    new = np.empty((d, sizes[j]))
                    new[...] = starts[j].T
                    ids = np.arange(edges[j], edges[j + 1])
                    cj, in_shell = _clearance_and_shell(clearance(new.T, ids))
                    if not np.all(cj > SURFACE_TOL):
                        raise DomainError("walk exit: a start point lies "
                                          "outside the domain")
                    xt = np.concatenate([xt, new], axis=1)
                    wa = np.concatenate([wa, np.zeros(sizes[j])])
                    idx = np.concatenate([idx, ids])
                    c = np.concatenate([c, cj])
                    inside = np.concatenate([inside, _inside(cj, in_shell)])
                    counts[j] = sizes[j]
                continue
            if not len(idx):
                break
            radii = rho * c
            wa += ce * radii ** model.alpha
            jumps = ball_exit_centered(model.alpha, d, counts, gens)
            for k in range(d):
                xt[k] += radii * jumps[:, k]
            c, in_shell = _clearance_and_shell(clearance(xt.T, idx))
            inside = _inside(c, in_shell)
            step += 1
    return BatchExit(y=y, w=w, steps=steps, stalled=stalled, shelled=shelled)


def _inside(c, in_shell) -> np.ndarray:
    """The walkers that walk on: clearance above SURFACE_TOL, and not in
    a stopping shell."""
    inside = c > SURFACE_TOL
    if in_shell is not None:
        inside &= ~in_shell
    return inside


def _clearance_and_shell(out) -> tuple:
    """(c, in_shell) from a walk's clearance callback; in_shell is None
    when the callback returns the clearance alone."""
    c, in_shell = out if isinstance(out, tuple) else (out, None)
    return np.asarray(c, dtype=float), in_shell


# ===================================================================== #
# lattice chain
# ===================================================================== #

@dataclass
class _ChainTables:
    offsets: np.ndarray       # (m, d) lattice displacement vectors
    rates: np.ndarray         # (m,) near rates at the envelope kappa
    far_rate: float
    total_rate: float
    near_cdf: np.ndarray      # (m,) cumulative jump probabilities (near part)
    far_radius_grid: np.ndarray
    far_radius_cdf: np.ndarray


def _lattice_offsets(d: int, h: float, r_cut: float) -> np.ndarray:
    k_max = int(math.floor(r_cut / h))
    axes = [np.arange(-k_max, k_max + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    v = grid * h
    norms = np.linalg.norm(v, axis=1)
    keep = (norms > 0) & (norms <= r_cut)
    return v[keep]


def _build_chain_tables(model: StableLikeChain) -> _ChainTables:
    ks = model.kernel_spec
    offsets = _lattice_offsets(ks.dim, model.h, model.r_cut)
    s = np.linalg.norm(offsets, axis=1)
    # envelope: kappa itself if constant, kappa_hi if callable (thinned)
    kappa = float(ks.kappa) if ks.isotropic else ks.kappa_hi
    rates = kappa * model.h ** ks.dim * np.asarray(ks.radial_profile(s))
    # aggregated far jump: exact tail mass beyond the cutoff
    unit = JumpKernelSpec(dim=ks.dim, scale=ks.scale, kappa=kappa,
                          kappa_lo=kappa, kappa_hi=kappa, temper=ks.temper)
    far_rate = tail_mass(unit, np.zeros(ks.dim), model.r_cut)
    total = float(rates.sum()) + far_rate
    if total <= 0:
        raise ConfigError("chain has zero total jump rate")
    near_cdf = np.cumsum(rates) / total

    # inverse-CDF table of the far radius: density ~ 1/(s phi(s) T(s))
    u = np.linspace(math.log(model.r_cut),
                    math.log(model.r_cut) + 10 * math.log(10.0), 4097)
    sg = np.exp(u)
    # f(e^u) e^u du; a tempered scale * temper overflows far out, where
    # the density is correctly 0
    with np.errstate(over="ignore"):
        dens = 1.0 / (ks.scale(sg) * ks.temper_factor(sg))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                           * np.diff(u))])
    cdf /= cdf[-1]
    return _ChainTables(offsets=offsets, rates=rates, far_rate=far_rate,
                        total_rate=total, near_cdf=near_cdf,
                        far_radius_grid=sg, far_radius_cdf=cdf)


def _snap(z: np.ndarray, h: float, offset: float = 0.0) -> np.ndarray:
    return (np.round(z / h - offset) + offset) * h


def _far_jumps(tables: _ChainTables, d: int, h: float, n: int,
               g: np.random.Generator) -> np.ndarray:
    def radii(u):
        return np.interp(u, tables.far_radius_cdf, tables.far_radius_grid)

    return _snap(_radial_points(d, [n], [g], lambda gj, k: gj.random(k),
                                radii), h)


def chain_exit_batch(model: StableLikeChain, D: Domain, starts,
                     rng: RngStream, t_max: float | None = None) -> BatchExit:
    """Vectorized chain exits from D.

    Jumps are proposed from the tables at the envelope rate.  For a
    callable kappa each proposal z from x is kept with probability
    kappa(x, z) / kappa_hi and is otherwise void, so the walker stays
    (thinning); a kappa outside [kappa_lo, kappa_hi] raises ConfigError
    naming the point.  Weights accumulate the expected holding time
    1/total_rate per proposal, the same conditional-expectation trick as
    the walk on balls, and `steps` counts proposals; a path still
    running after MAX_STEPS proposals is marked stalled.  Starts outside
    the kernel's dimension raise DomainError before any draw.  With `t_max`
    set, paths additionally stop once their (random, exponential) clock
    passes t_max: the jump drawn at that proposal comes after t_max, so
    it is not applied, and such paths report y = last position inside D
    and stalled = False, letting callers estimate time marginals.
    """
    ks = model.kernel_spec
    x = _snap(np.array(np.atleast_2d(starts), dtype=float), model.h,
              model.lattice_offset)
    n, d = x.shape
    _check_dimension(d, ks.dim)
    t = model.tables
    g = rng.generator()
    if not np.all(D.contains(x)):
        raise DomainError("chain_exit_batch: a start point lies outside D")
    p_far = t.far_rate / t.total_rate
    expected_hold = 1.0 / t.total_rate
    near_cdf = t.near_cdf / t.near_cdf[-1]

    y = np.empty_like(x)
    w = np.zeros(n)
    steps = np.zeros(n, dtype=np.int64)
    stalled = np.zeros(n, dtype=bool)
    clock = np.zeros(n) if t_max is not None else None
    active = np.arange(n)
    for _ in range(MAX_STEPS):
        if len(active) == 0:
            break
        m = len(active)
        w[active] += expected_hold
        if t_max is not None:
            clock[active] += g.exponential(expected_hold, m)
        u = g.random(m)
        far = u < p_far
        z = np.empty((m, d))
        if far.any():
            z[far] = _far_jumps(t, d, model.h, int(far.sum()), g)
        near = ~far
        if near.any():
            v = (u[near] - p_far) / (1.0 - p_far)
            idx = np.minimum(np.searchsorted(near_cdf, v), len(t.offsets) - 1)
            z[near] = t.offsets[idx]
        if not ks.isotropic:
            xa = x[active]
            kap = np.broadcast_to(ks.kappa_at(xa, z), (m,))
            ok = ((kap >= ks.kappa_lo * (1 - 1e-9))
                  & (kap <= ks.kappa_hi * (1 + 1e-9)))
            if not ok.all():
                k = int(np.argmin(ok))
                raise ConfigError(
                    f"kappa({xa[k].tolist()}, {z[k].tolist()}) = {kap[k]:g} "
                    f"lies outside the declared bounds "
                    f"[{ks.kappa_lo}, {ks.kappa_hi}]")
            z[g.random(m) >= kap / ks.kappa_hi] = 0.0
        if t_max is not None:
            # a jump drawn after t_max is not made by time t_max
            late = clock[active] > t_max
            z[late] = 0.0
        x[active] += z
        steps[active] += 1
        inside = D.contains(x[active])
        if t_max is not None:
            inside &= ~late
        done = active[~inside]
        y[done] = x[done]
        active = active[inside]
    if len(active):
        stalled[active] = True
        y[active] = x[active]
    return BatchExit(y=y, w=w, steps=steps, stalled=stalled,
                     shelled=np.zeros(n, dtype=bool))


# ===================================================================== #
# exact stable increments and the Euler scheme
# ===================================================================== #

def one_sided_stable(a: float, n: int, g: np.random.Generator) -> np.ndarray:
    """Positive stable variates with Laplace transform exp(-lambda^a), 0<a<1.

    Kanter's representation: S = (A(theta)/W)^{(1-a)/a} with
    A(theta) = (sin(a theta)^a sin((1-a) theta)^{1-a} / sin theta)^{1/(1-a)},
    theta uniform on (0, pi) and W unit exponential.
    """
    if not 0 < a < 1:
        raise DomainError("one-sided stable index must lie in (0, 1)")
    theta = g.uniform(0.0, math.pi, n)
    wexp = g.standard_exponential(n)
    log_a = (a * np.log(np.sin(a * theta))
             + (1.0 - a) * np.log(np.sin((1.0 - a) * theta))
             - np.log(np.sin(theta))) / (1.0 - a)
    return np.exp((1.0 - a) / a * (log_a - np.log(wexp)))


def stable_increment(alpha: float, d: int, dt, n: int,
                     g: np.random.Generator) -> np.ndarray:
    """Exact isotropic alpha-stable increments over time dt, shape (n, d).

    Subordinated Gaussian: sqrt(2 S) N(0, I) with S positive
    (alpha/2)-stable scaled by dt^{2/alpha}, so the characteristic
    function is exp(-dt |xi|^alpha).  `dt` may be an (n,) array, one
    time per increment.
    """
    s = dt ** (2.0 / alpha) * one_sided_stable(alpha / 2.0, n, g)
    return np.sqrt(2.0 * s)[:, None] * g.standard_normal((n, d))


def _paths_exit_indicator(model: SdeStable | GeometricStable, x0, r: float,
                          t: float, n: int, n_steps: int,
                          g: np.random.Generator) -> np.ndarray:
    """Indicator of leaving B(x0, r) by time t, monitored at n_steps times.

    Only the paths still inside move; each step draws one increment per
    such path, in path order: sigma_scale * dZ with an exact stable dZ for
    SdeStable, a gamma-subordinated stable increment for GeometricStable.
    A path that a large sigma_scale carries to inf has left the ball.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    _check_dimension(len(x0), model.dim)
    dt = t / n_steps
    exited = np.zeros(n, dtype=bool)
    alive = np.arange(n)
    x = np.tile(x0, (n, 1))
    for _ in range(n_steps):
        if alive.size == 0:
            break
        if isinstance(model, GeometricStable):
            # the stable process over a gamma clock's increment
            dx = stable_increment(model.alpha, model.dim,
                                  g.gamma(dt, 1.0, alive.size), alive.size, g)
        else:
            dx = stable_increment(model.alpha, model.dim, dt, alive.size, g)
        with np.errstate(over="ignore"):
            if isinstance(model, SdeStable):
                dx = model.sigma_scale * dx
            x = x + dx
            out = _row_norm(x - x0) > r
        exited[alive[out]] = True
        alive, x = alive[~out], x[~out]
    return exited


# ===================================================================== #
# unified exit sampling and survival probabilities
# ===================================================================== #

def sample_exits(model: ProcessModel, D: Domain, x, n, rng,
                 rho: float = BALL_FACTOR) -> BatchExit:
    """n exit samples of D from x under the given model.

    Exact for IsotropicStable (walk on balls over `D.clearance`), except
    on a truncation with a stopping shell (`Domain.truncate(..., shell)`),
    whose walkers stop in the shell; approximation-grade for the lattice
    chain, which ignores shells.  Other variants carry no exit-law
    sampler.  A start outside D, or of the wrong dimension, raises
    DomainError.

    `n` and `rng` may also be equal-length sequences, with `x` then one
    start point per group: group j draws n[j] paths from x[j] on rng[j],
    bit-identical to a call of its own, and the groups come back
    consecutive in one batch.  Walks on balls run their groups in
    lockstep, each starting once it fits beside the walkers still active
    (`walk_exit_batch_indexed`); chains run them in turn.
    """
    if isinstance(rng, RngStream):
        x, n, rng = [x], [n], [rng]
    points = np.asarray(x, dtype=float).reshape(len(rng), -1)
    if isinstance(model, IsotropicStable):
        if isinstance(D, Truncation) and D.shell > 0:
            clearance = lambda pts, idx: D.shelled_clearance(pts)
        else:
            clearance = lambda pts, idx: D.clearance(pts)
        return walk_exit_batch_indexed(model, clearance, points, rho, rng, n)
    if isinstance(model, StableLikeChain):
        return BatchExit.concat([
            chain_exit_batch(model, D, np.tile(p, (nj, 1)), r)
            for p, nj, r in zip(points, n, rng)])
    raise CapabilityError(
        f"{type(model).__name__} provides no exit-law sampler")


def survival_prob_ball(model: ProcessModel, x, r: float, t: float, n: int,
                       rng: RngStream, n_steps: int = 64):
    """Estimate of P_x(tau_{B(x,r)} < t) with binomial uncertainty.

    Time marginals exist for the chain, SDE, and subordinated models.
    The exact-exit-law model carries no clock; SdeStable(alpha, dim), the
    identity-coefficient Euler scheme (exact increments, discrete
    monitoring at n_steps times), runs the same process with one.  An
    SdeStable step costs one stable draw per path still inside and one
    multiply by `sigma_scale`.
    """
    from .exitstats import Estimate  # local import: exitstats builds on sampler

    if not (r > 0 and t > 0 and n >= 1 and n_steps >= 1):
        raise DomainError("survival_prob_ball needs r > 0, t > 0, n >= 1, "
                          "n_steps >= 1")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = rng.generator()

    if isinstance(model, (SdeStable, GeometricStable)):
        exited = _paths_exit_indicator(model, x, r, t, n, n_steps, g)
    elif isinstance(model, StableLikeChain):
        ball = Ball(x, r)
        batch = chain_exit_batch(model, ball, np.tile(x, (n, 1)), rng,
                                 t_max=t)
        if batch.stalled.any():
            raise SamplerStallError(
                f"chain survival run hit the step budget on "
                f"{int(batch.stalled.sum())} of {n} paths")
        exited = ~np.asarray(ball.contains(batch.y))
    else:
        raise CapabilityError(
            f"{type(model).__name__} provides no time marginal; the "
            f"sde-stable model, SdeStable(alpha, dim), runs the isotropic "
            f"stable process with one")

    return Estimate.binomial(int(exited.sum()), n,
                             method="mc-binomial-survival")
