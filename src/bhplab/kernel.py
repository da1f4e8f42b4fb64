"""Jump kernels and numerical certificates for their structural conditions.

A jump kernel here always has a density

    j(x, z) = kappa(x, z) / (|z|^d * phi(|z|) * T(|z|)),

with kappa bounded between two positive constants, phi an increasing
scale function and T an optional exponential temper exp(lam * s^beta_t).
The checkers below certify, over declared grids and sample sets, the
comparability conditions between kernel densities at nearby base points,
the two-sided tail estimate tail(x, r) ~ 1/phi(r), and the doubling /
reverse-doubling behaviour of phi.  Verdicts are sampled certificates,
not proofs: a check can refute a condition (with a reproducible witness)
or support it on the tested set.

One outward radial quadrature, `_outward_integral`, serves both the tail
masses J(x, B(x, r)^c) and the boundary integrals of g(y) J(xi, dy) over
|y - xi| >= r that the BHP harness needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, DomainError
from .rng import RngStream
from .scale import ScaleFunction

QUAD_REL_TOL = 1e-6          # declared relative quadrature error for tail masses
_SEG_DECADES_CAP = 60        # give up (divergence) after this many radial decades
_BOUNDARY_NODES = 256        # angular nodes for boundary integrals
JT_MAX_RATIO = 100.0         # (Jt) holds while C5_hat / C4_hat <= this
RD_C1 = 2.0                  # reverse doubling tests phi(RD_C1 r) / phi(r)
THETA_CAP = 16.0             # largest (Jc.1) exponent theta accepted
BALL_MASS_POINTS = 100_000   # uniform points of a ball_mass estimate, d >= 2


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere S^{d-1} (equals 2 for d=1)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d: int, r: float = 1.0) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r ** d


def angular_nodes(d: int, n: int = 64) -> np.ndarray:
    """Fixed unit directions used for angular averages, shape (m, d).

    Deterministic by construction so quadratures are reproducible.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        theta = (np.arange(n) + 0.5) / n * 2.0 * math.pi
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if d == 3:
        # Fibonacci sphere
        i = np.arange(n) + 0.5
        z = 1.0 - 2.0 * i / n
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        s = np.sqrt(1.0 - z ** 2)
        return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    g = RngStream(0xA17E5, d).generator()
    v = g.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ===================================================================== #
# kernel specification
# ===================================================================== #

@dataclass(frozen=True)
class JumpKernelSpec:
    """Density j(x,z) = kappa(x,z) / (|z|^d phi(|z|) T(|z|))."""

    dim: int
    scale: ScaleFunction
    kappa: object = 1.0               # constant, or callable kappa(x, z)
    kappa_lo: float = 1.0
    kappa_hi: float = 1.0
    temper: tuple | None = None       # (lam, beta_t) for T(s)=exp(lam s^beta_t)
    symmetric_in_z: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("dimension must be >= 1")
        if not (0 < self.kappa_lo <= self.kappa_hi):
            raise ConfigError("need 0 < kappa_lo <= kappa_hi")
        if self.temper is not None:
            lam, beta_t = self.temper
            if not (lam > 0 and 0 < beta_t <= 1):
                raise ConfigError("temper needs lam > 0 and beta_t in (0, 1]")

    # -------------------------------------------------------------- #
    @property
    def isotropic(self) -> bool:
        return not callable(self.kappa)

    def kappa_at(self, x, z):
        if callable(self.kappa):
            return np.asarray(self.kappa(x, z), dtype=float)
        return np.full(np.broadcast_shapes(np.shape(x)[:-1], np.shape(z)[:-1]),
                       float(self.kappa))

    def temper_factor(self, s):
        s = np.asarray(s, dtype=float)
        if self.temper is None:
            return np.ones_like(s)
        lam, beta_t = self.temper
        # overflow to inf is fine: the profile divides by it, giving 0
        with np.errstate(over="ignore"):
            return np.exp(lam * s ** beta_t)

    def radial_profile(self, s):
        """1 / (s^d phi(s) T(s)): the radial part of the density."""
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            return 1.0 / (s ** self.dim * self.scale(s) * self.temper_factor(s))

    def density(self, x, z):
        """j(x, z) for displacement z (z != 0)."""
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        s = np.linalg.norm(np.atleast_2d(z), axis=-1) if z.ndim > 1 \
            else np.linalg.norm(z)
        out = self.kappa_at(x, z) * self.radial_profile(s)
        return out


def isotropic_stable_kernel(dim: int, alpha: float) -> JumpKernelSpec:
    """kappa == 1 power kernel: j(z) = |z|^{-d-alpha}."""
    return JumpKernelSpec(dim=dim, scale=ScaleFunction.power(alpha))


def geometric_stable_kernel(dim: int, alpha: float) -> JumpKernelSpec:
    """j(z) = |z|^{-d} min(1, |z|^{-alpha}), as kappa(z) against the geostable phi.

    The density equals kappa(s) / (s^d phi(s)) with
    kappa(s) = phi(s) * min(1, s^{-alpha}); kappa is bounded above by 1
    and tends to 0 only logarithmically as s -> 0.
    """
    phi = ScaleFunction.geometric_stable(alpha)

    def kappa(x, z):
        s = np.linalg.norm(np.atleast_2d(z), axis=-1)
        return phi(s) * np.minimum(1.0, s ** (-alpha))

    # kappa(s) is 1 for s >= 1 and 1/(1 - log s) for s < 1; the bounds are
    # its extrema over the probed range s in [1e-12, 1e12]
    s_probe = np.logspace(-12, 12, 2001)
    k_probe = phi(s_probe) * np.minimum(1.0, s_probe ** (-alpha))
    return JumpKernelSpec(dim=dim, scale=phi, kappa=kappa,
                          kappa_lo=float(k_probe.min()),
                          kappa_hi=float(k_probe.max()))


def tempered_stable_kernel(dim: int, alpha: float, lam: float,
                           beta_t: float = 1.0) -> JumpKernelSpec:
    return JumpKernelSpec(dim=dim, scale=ScaleFunction.power(alpha),
                          temper=(lam, beta_t))


# ===================================================================== #
# condition reports
# ===================================================================== #

HOLDS = "holds-numerically"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass
class ConditionReport:
    """Outcome of one numerical condition check."""

    condition: str
    verdict: str
    constants: dict = field(default_factory=dict)
    test_points: dict = field(default_factory=dict)
    witness: dict | None = None
    notes: str = ""



# ===================================================================== #
# tail mass
# ===================================================================== #

def _angular_mean(J: JumpKernelSpec, x: np.ndarray, nodes, g=None):
    """s -> mean over the direction nodes u of g(x + s u) * kappa(x, s u).

    g == 1 when omitted; for a constant kappa that mean is kappa itself.
    A point x outside the kernel's dimension raises DomainError.
    """
    if np.shape(x) != (J.dim,):
        raise DomainError(f"point has dimension {np.size(x)} but the kernel "
                          f"has dimension {J.dim}")
    if g is None and not callable(J.kappa):
        kappa = float(J.kappa)
        return lambda s: kappa

    def ang(s):
        z = s * nodes
        kv = J.kappa_at(np.broadcast_to(x, z.shape), z)
        if g is not None:
            kv = np.asarray(g(x + z), dtype=float) * kv
        return float(np.mean(kv))
    return ang


def _outward_integral(J: JumpKernelSpec, ang, r: float) -> float:
    """omega_d * integral over [r, inf) of ang(s) s^{d-1} profile(s) ds.

    Integrated decade by decade outward, in u = log s for stability of
    heavy-tailed integrands.  Returns once the kernel has vanished, or
    once a full decade [a, b] (b >= 5a) adds at most QUAD_REL_TOL of a
    non-zero total and less than the decade before it, so that data
    vanishing near r do not stop it early; a sliver left over where the
    scale table ends mid-decade adds ~0 whether or not the integral
    converges, so it is no evidence.  Raises DivergenceError at the scale
    table's edge or after _SEG_DECADES_CAP decades.
    """
    from scipy import integrate  # local import: slow to load

    d = J.dim
    omega = sphere_area(d)

    def f(u):
        s = math.exp(u)
        return ang(s) * s ** d * float(J.radial_profile(s))

    edge = J.scale.r_max
    total = 0.0
    prev_seg = None
    a = float(r)
    for _ in range(_SEG_DECADES_CAP):
        b = min(a * 10.0, edge)
        seg, _ = integrate.quad(f, math.log(a), math.log(b),
                                epsrel=QUAD_REL_TOL * 1e-2, epsabs=0.0,
                                limit=200)
        seg = omega * seg
        total += seg
        if float(J.radial_profile(b)) == 0.0:
            return total
        if b >= 5.0 * a and total != 0.0 and \
                abs(seg) <= QUAD_REL_TOL * abs(total) and \
                (prev_seg is None or abs(seg) < abs(prev_seg)):
            return total
        if b >= edge:
            raise DivergenceError(
                f"integral from r={r:g} not converged at the scale-function "
                f"range edge r={edge:g}")
        prev_seg = seg
        a = b
    raise DivergenceError(
        f"integral from r={r:g} shows no decay after {_SEG_DECADES_CAP} "
        f"decades (accumulated {total:g})")


def tail_mass(J: JumpKernelSpec, x, r: float) -> float:
    """J(x, B(x, r)^c) by the outward radial quadrature, to QUAD_REL_TOL.

    Raises DivergenceError if the tail integral does not converge before
    the scale function's table ends or within the decade cap.
    """
    if not r > 0:
        raise DomainError("tail_mass needs r > 0")
    x = np.asarray(x, dtype=float)
    ang = _angular_mean(J, x, angular_nodes(J.dim))
    return _outward_integral(J, ang, r)


def ball_mass(J: JumpKernelSpec, x, center, s: float,
              rng: RngStream | None = None) -> float:
    """J(x, B(center, s)) for a ball not containing x.

    Exact quadrature in d=1; in d>=2 the mean over BALL_MASS_POINTS
    uniform points of the ball (the integrand is smooth there since x is
    outside the ball).
    """
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    if np.linalg.norm(center - x) <= s:
        raise DomainError("ball_mass requires x outside B(center, s)")
    d = J.dim
    if d == 1:
        from scipy import integrate  # local import: slow to load

        lo, hi = center[0] - s, center[0] + s

        def f(t):
            return float(J.density(x, np.array([t - x[0]])))

        val, _ = integrate.quad(f, lo, hi, epsrel=QUAD_REL_TOL * 1e-2, limit=200)
        return val
    g = (rng or RngStream(0)).generator()
    u = g.standard_normal((BALL_MASS_POINTS, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = s * g.random(BALL_MASS_POINTS) ** (1.0 / d)
    z = center + radii[:, None] * u
    vals = J.density(np.broadcast_to(x, z.shape), z - x)
    return ball_volume(d, s) * float(np.mean(vals))


# ===================================================================== #
# condition checkers
# ===================================================================== #

def check_jt(J: JumpKernelSpec, r_grid,
             rng: RngStream | None = None) -> ConditionReport:
    """Two-sided tail estimate: C4/phi(r) <= J(x, B(x,r)^c) <= C5/phi(r).

    Computes m(r) = tail_mass(x, r) * phi(r), with phi = J.scale, over
    the grid and the base points (the origin for a constant kappa, else
    5 uniform points of [-1, 1]^d); C4_hat = min, C5_hat = max.  Holds
    numerically iff C4_hat > 0 and C5_hat / C4_hat <= JT_MAX_RATIO.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    if r_grid.max() / r_grid.min() < 1e3 * (1 - 1e-9):
        raise DomainError("(Jt) check needs a radius grid spanning >= 3 decades")
    if J.isotropic:
        xs = [np.zeros(J.dim)]
    else:
        g = (rng or RngStream(0)).generator()
        xs = list(g.uniform(-1.0, 1.0, size=(5, J.dim)))

    m = np.empty((len(xs), len(r_grid)))
    for i, x in enumerate(xs):
        for k, r in enumerate(r_grid):
            m[i, k] = tail_mass(J, x, r) * float(J.scale(r))
    c4 = float(m.min())
    c5 = float(m.max())
    i_min = np.unravel_index(np.argmin(m), m.shape)
    ratio = c5 / c4 if c4 > 0 else math.inf
    verdict = HOLDS if (c4 > 0 and ratio <= JT_MAX_RATIO) else VIOLATED
    witness = None
    if verdict == VIOLATED:
        witness = {"x": np.asarray(xs[i_min[0]]), "r": float(r_grid[i_min[1]]),
                   "m": c4, "c5": c5, "max_ratio": JT_MAX_RATIO}
    return ConditionReport(
        condition="(Jt)", verdict=verdict,
        constants={"C4": c4, "C5": c5, "ratio": ratio,
                   "max_ratio": JT_MAX_RATIO},
        test_points={"r_grid": r_grid, "x_samples": np.asarray(xs)},
        witness=witness)


def _sample_triples(J: JumpKernelSpec, n: int, r_bar: float,
                    rng: RngStream):
    """n triples (x, y, z): x uniform in [-1, 1]^d, y in
    B(x, min(r_bar, 2)), z at a log-uniform distance in [1e-3, 1e3]
    from x."""
    g = rng.generator()
    d = J.dim
    x = g.uniform(-1.0, 1.0, size=(n, d))
    u = g.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r_pair = min(r_bar, 2.0)
    y = x + g.random(n)[:, None] * r_pair * u
    v = g.standard_normal((n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    s = np.exp(g.uniform(math.log(1e-3), math.log(1e3), n))
    z = x + s[:, None] * v
    return x, y, z


def check_jc1(J: JumpKernelSpec, n_triples: int = 10_000,
              r_bar: float = math.inf,
              rng: RngStream | None = None) -> ConditionReport:
    """Density comparability: j(x,z) <= C1 (1 + |y-z|/|x-z|)^theta j(y,z).

    Draws n_triples triples from `rng` (RngStream(0) by default), with
    |x - y| < min(r_bar, 2) (`_sample_triples`).  theta_hat is the least
    theta >= 0 with lr_i - theta lt_i <= theta ln 2 + ln(kappa_hi/kappa_lo)
    + 1e-9 for every triple, lr_i = ln(j(x,z)/j(y,z)), lt_i = ln(1 +
    |y-z|/|x-z|) >= 0: each constraint is linear in theta, so theta_hat is
    the largest per-triple bound, solved in closed form.  C1_hat is the
    envelope at theta_hat; above THETA_CAP the verdict is inconclusive.
    """
    x, y, z = _sample_triples(J, n_triples, r_bar, rng or RngStream(0))
    jx = J.density(x, z - x)
    jy = J.density(y, z - y)
    t = 1.0 + np.linalg.norm(y - z, axis=1) / np.linalg.norm(x - z, axis=1)
    ok = (jx > 0) & (jy > 0) & np.isfinite(jx) & np.isfinite(jy)
    lr = np.log(jx[ok]) - np.log(jy[ok])
    lt = np.log(t[ok])

    slack = math.log(J.kappa_hi / J.kappa_lo) + 1e-9
    theta_hat = float(np.max((lr - slack) / (lt + math.log(2.0)),
                             initial=0.0))
    if theta_hat > THETA_CAP:
        return ConditionReport(
            condition="(Jc.1)", verdict=INCONCLUSIVE,
            constants={"theta_cap": THETA_CAP,
                       "log_c1_at_cap": float(np.max(lr - THETA_CAP * lt))},
            test_points={"n": int(ok.sum())},
            notes="no exponent below the cap gives a bounded envelope")
    i_worst = int(np.argmax(lr - theta_hat * lt))
    c1_hat = float(math.exp(lr[i_worst] - theta_hat * lt[i_worst]))
    idx = np.nonzero(ok)[0][i_worst]
    return ConditionReport(
        condition="(Jc.1)", verdict=HOLDS,
        constants={"C1": c1_hat, "theta": theta_hat,
                   "worst_ratio": float(np.exp(lr[i_worst]))},
        test_points={"n": int(ok.sum()), "r_bar": r_bar},
        witness={"x": x[idx], "y": y[idx], "z": z[idx],
                 "jx": float(jx[idx]), "jy": float(jy[idx]), "t": float(t[idx])})


def check_jc2(J: JumpKernelSpec, configs, c3: float,
              rng: RngStream | None = None) -> ConditionReport:
    """Ball-vs-tail domination: J(x, B(y,s)) <= C2 J(x, B(x,r)^c), C2 < 1.

    Each config is (r, s, x, y) and must satisfy |x - y| > s + c3 * r.
    """
    rows = []
    worst = None
    for i, (r, s, x, y) in enumerate(configs):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        sep = float(np.linalg.norm(x - y))
        if not sep > s + c3 * r:
            raise DomainError(
                f"config {i}: need |x-y| > s + C3*r ({sep:g} <= {s + c3 * r:g})")
        lhs = ball_mass(J, x, y, s, rng=(rng.substream(i) if rng else None))
        rhs = tail_mass(J, x, r)
        ratio = lhs / rhs
        rows.append({"r": r, "s": s, "x": x, "y": y,
                     "lhs": lhs, "rhs": rhs, "ratio": ratio})
        if worst is None or ratio > worst["ratio"]:
            worst = rows[-1]
    c2_hat = worst["ratio"]
    verdict = HOLDS if c2_hat < 1.0 else VIOLATED
    return ConditionReport(
        condition="(Jc.2)", verdict=verdict,
        constants={"C2": c2_hat, "C3": c3},
        test_points={"configs": rows},
        witness=worst if verdict == VIOLATED else None)


def check_phi(phi: ScaleFunction, r_grid,
              check_reverse: bool = True) -> ConditionReport:
    """Fit doubling constants of phi and optionally test reverse doubling.

    beta_hat is the log-log least-squares slope; c_hat is the smallest
    prefactor making phi(R)/phi(r) <= c_hat (R/r)^beta_hat on all grid
    pairs.  Reverse doubling is flagged violated when
    inf_r phi(RD_C1 * r)/phi(r) falls below 1.05 on the grid.
    """
    r_grid = np.sort(np.asarray(r_grid, dtype=float))
    if r_grid.max() / r_grid.min() < 1e4 * (1 - 1e-9):
        raise DomainError("phi check needs a radius grid spanning >= 4 decades")
    vals = np.asarray(phi(r_grid), dtype=float)
    if np.any(np.diff(vals) <= 0):
        k = int(np.argmax(np.diff(vals) <= 0))
        raise DomainError(
            f"scale function not strictly increasing near r={r_grid[k]:g}")

    lr, lp = np.log(r_grid), np.log(vals)
    beta_hat = float(np.polyfit(lr, lp, 1)[0])
    # c_hat = max over pairs r < R of (phi(R)/phi(r)) (r/R)^beta_hat
    dl = lp[None, :] - lp[:, None] - beta_hat * (lr[None, :] - lr[:, None])
    iu = np.triu_indices(len(r_grid), k=1)
    c_hat = float(np.exp(dl[iu].max()))

    in_range = r_grid * 2.0 <= phi.r_max
    ratio2 = np.asarray(phi(2.0 * r_grid[in_range]), dtype=float) / vals[in_range]
    doubling_max = float(ratio2.max())
    trend = float(np.polyfit(lr[in_range], np.log(ratio2), 1)[0])
    verdict = HOLDS if trend <= 0.05 else INCONCLUSIVE

    constants = {"c": c_hat, "beta": beta_hat, "doubling_max": doubling_max,
                 "doubling_trend": trend}
    witness = None
    condition = "phi-doubling"
    if check_reverse:
        condition = "phi-doubling+reverse"
        mask = r_grid * RD_C1 <= phi.r_max
        rratio = np.asarray(phi(RD_C1 * r_grid[mask]), dtype=float) / vals[mask]
        rd_inf = float(rratio.min())
        constants.update({"rd_c1": RD_C1, "rd_c2": rd_inf})
        if rd_inf < 1.05:
            verdict = VIOLATED
            k = int(np.argmin(rratio))
            witness = {"r": float(r_grid[mask][k]),
                       "phi_r": float(vals[mask][k]),
                       "phi_c1r": float(phi(RD_C1 * r_grid[mask][k])),
                       "ratio": rd_inf, "threshold": 1.05}
    return ConditionReport(condition=condition, verdict=verdict,
                           constants=constants,
                           test_points={"r_grid": r_grid},
                           witness=witness)


# ===================================================================== #
# boundary integrals for the BHP harness
# ===================================================================== #

def boundary_integral(J: JumpKernelSpec, xi, g, r_min: float) -> float:
    """integral of g(y) J(xi, dy) over |y - xi| >= r_min.

    The outward radial quadrature with a fixed-node angular average of
    g(xi + s u) * kappa(xi, s u) over 256 directions; exact enough for
    indicator-type g.
    """
    if not r_min > 0:
        raise DomainError("boundary_integral needs r_min > 0")
    xi = np.asarray(xi, dtype=float)
    ang = _angular_mean(J, xi, angular_nodes(J.dim, _BOUNDARY_NODES), g)
    return _outward_integral(J, ang, r_min)
