"""Boundary Harnack verification harness.

Builds regular harmonic functions from boundary data supported far from
a boundary point, scans their pairwise ratios over interior grids,
checks the approximate factorization of such functions into a mean exit
time and a nonlocal boundary integral, and instruments the layered
box/chain constructions used to control exit probabilities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import stdtrit

from .domains import SURFACE_TOL, Ball, Domain, Intersection
from .errors import ConfigError, DomainError, UnderpoweredError
from .exitstats import ESCALATION_CAP, TARGET_REL_STDERR, escalate
# unused here, but bench/tracer.py patches bhp.gather_exits by name
from .exitstats import gather_exits  # noqa: F401
from .kernel import boundary_integral
from .rng import RngStream
from .sampler import (BALL_FACTOR, IsotropicStable, ProcessModel,
                      walk_exit_batch_indexed)

PAIR_GATE_REL_STDERR = 0.05   # per-estimate precision gate for ratio pairs
DELTA_FLOOR_FACTOR = 1.0 / 64.0
# eval_harmonic stops a walker once its clearance to D is at most
# SHELL_EPS * r; h vanishes off D near xi and decays like delta^{alpha/2},
# so a stop biases h by at most of order SHELL_EPS^{alpha/2} of its scale
SHELL_EPS = 1e-6


# ===================================================================== #
# boundary data
# ===================================================================== #

@dataclass(frozen=True)
class BoundaryData:
    """Nonnegative boundary data g vanishing inside B(xi, support_radius).

    The induced function h(x) = E_x[g(exit position of D & B(xi, 2r))] is
    regular harmonic in the truncated set and vanishes outside D near xi
    whenever support_radius >= 2r.
    """

    fn: object              # vectorized y -> values >= 0
    support_radius: float   # g == 0 on B(xi, support_radius)
    xi: np.ndarray          # the boundary point the support is anchored to

    def __post_init__(self):
        object.__setattr__(self, "xi",
                           np.atleast_1d(np.asarray(self.xi, dtype=float)))
        if not self.support_radius > 0:
            raise ConfigError("boundary data needs a positive support radius")

    def __call__(self, y):
        return np.asarray(self.fn(np.atleast_2d(np.asarray(y, dtype=float))),
                          dtype=float)

    def validate(self, r: float) -> None:
        """Probe-test at 10^4 points that g is 0 on B(xi, 2r) and >= 0."""
        if self.support_radius < 2.0 * r * (1 - 1e-12):
            raise ConfigError(
                f"boundary data support starts at {self.support_radius:g} "
                f"but must vanish on B(xi, {2 * r:g})")
        g = RngStream(0).generator()
        d = self.xi.shape[0]
        u = g.standard_normal((10_000, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts = self.xi + (2.0 * r) * g.random(10_000)[:, None] ** (1.0 / d) * u
        vals = self(pts)
        if np.any(vals != 0.0):
            raise ConfigError("boundary data does not vanish on B(xi, 2r)")
        far = self.xi + self.support_radius * 3.0 * u
        if np.any(self(far) < 0.0):
            raise ConfigError("boundary data must be nonnegative")


def far_field_indicator(xi, r_min: float, predicate=None) -> BoundaryData:
    """Indicator of {|y - xi| > r_min} intersected with an optional predicate."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))

    def fn(y):
        far = np.linalg.norm(y - xi, axis=1) > r_min
        if predicate is None:
            return far.astype(float)
        return (far & np.asarray(predicate(y), dtype=bool)).astype(float)

    return BoundaryData(fn=fn, support_radius=r_min, xi=xi)


# ===================================================================== #
# regular harmonic evaluation
# ===================================================================== #

def eval_harmonic(model: ProcessModel, D: Domain, xi, r: float, data,
                  points, rngs, n0: int, cap: int = ESCALATION_CAP) -> list:
    """h_g(x) = E_x[g(X at the exit of D & B(xi, 2r))] for each g in `data`.

    Returns, for each start x in `points` (one per stream in `rngs`),
    the `PointEstimates` for the data in order.  Every datum is
    validated, then averaged at each point over the *same* exit samples
    of D & B(xi, 2r), escalated by `escalate` from n0 paths until every
    relative standard error beats TARGET_REL_STDERR or `cap` paths are
    drawn (estimates then marked underpowered).  All points walk the
    same set, so `escalate` walks them in lockstep.  A start outside the
    truncated set raises DomainError.

    The walk on balls (IsotropicStable) stops a walker whose clearance
    to D falls to SHELL_EPS * r, with SHELL_EPS = 1e-6, and scores g
    where it stops, which is 0 since it lies in B(xi, 2r); the sphere of
    B(xi, 2r) has no shell.  h decays like delta^{alpha/2} at D's
    boundary near xi, so the stops bias h by at most of order
    SHELL_EPS^{alpha/2} of its scale.  Each point's `shell_stops` counts
    its stopped paths.  Lattice chains walk without a shell.
    """
    for g in data:
        g.validate(r)
    U = D.truncate(xi, 2.0 * r, shell=_shell_eps(model) * r)
    return escalate(model, U, points, [lambda b, g=g: g(b.y) for g in data],
                    rngs, n0, cap, TARGET_REL_STDERR,
                    method="mc-mean-harmonic")


def _shell_eps(model: ProcessModel) -> float:
    """The relative shell width eval_harmonic walks with: SHELL_EPS for
    the walk on balls, 0 for models whose exits ignore shells."""
    return SHELL_EPS if isinstance(model, IsotropicStable) else 0.0


def _shell_fields(model: ProcessModel, h: list) -> dict:
    """Report fields for eval_harmonic's result h: the paths stopped in
    its shell, the relative width eps and the decay bound eps^{alpha/2}."""
    eps = _shell_eps(model)
    return {"shell_stops": sum(p.shell_stops for p in h), "shell_eps": eps,
            "shell_decay": eps ** (model.alpha / 2.0) if eps else 0.0}


# ===================================================================== #
# interior grids
# ===================================================================== #

def interior_grid(D: Domain, xi, radius: float, size: int,
                  delta_floor: float, rng: RngStream,
                  max_tries: int = 1_000_000) -> np.ndarray:
    """size points of D & B(xi, radius) with clearance >= delta_floor."""
    if size < 1:
        raise ConfigError("a grid needs at least one point")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    d = xi.shape[0]
    g = rng.generator()
    pts = []
    tried = 0
    while len(pts) < size and tried < max_tries:
        m = 4 * size
        u = g.standard_normal((m, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        cand = xi + radius * g.random(m)[:, None] ** (1.0 / d) * u
        c = D.clearance(cand)
        deep = (c > SURFACE_TOL) & (c >= delta_floor)
        pts.extend(cand[deep][: size - len(pts)])
        tried += m
    if len(pts) < size:
        raise DomainError(
            f"could not place {size} grid points with clearance >= "
            f"{delta_floor:g} in the truncated set (found {len(pts)})")
    return np.asarray(pts)


# ===================================================================== #
# BHP ratio scan
# ===================================================================== #

@dataclass
class BhpReport:
    """Ratio-scan result at one radius.

    h1 and h2 come from walks stopped in a shell of width shell_eps * r
    at D's boundary (`eval_harmonic`); shell_decay = shell_eps^{alpha/2}
    bounds the relative bias of each h, and shell_stops counts the
    stopped paths among the n_total paths behind h1 (and h2).
    """

    xi: np.ndarray
    r: float
    kappa: float
    grid: np.ndarray
    h1: list
    h2: list
    ratio: np.ndarray          # R[i, j] = h1_i h2_j / (h1_j h2_i)
    powered: np.ndarray        # bool per grid point: both estimates precise
    c_hat: float
    excluded_pairs: int
    n_total: int = 0
    shell_stops: int = 0
    shell_eps: float = 0.0
    shell_decay: float = 0.0
    warnings: list = field(default_factory=list)   # distinct, first seen


def _verified_radius(model: ProcessModel) -> float:
    """Largest radius at which the scan will run for this model."""
    if model.kernel.temper is not None:
        return 1.0
    return math.inf


def bhp_scan(model: ProcessModel, D: Domain, xi, r: float, kappa: float,
             g1: BoundaryData, g2: BoundaryData, grid_size: int, n: int,
             rng: RngStream, cap: int = ESCALATION_CAP,
             grid: np.ndarray | None = None) -> BhpReport:
    """Scan h1(x) h2(y) / (h1(y) h2(x)) over a grid in D & B(xi, kappa r).

    c_hat is the maximum ratio over pairs whose four estimates all pass
    the precision gate PAIR_GATE_REL_STDERR; excluded pairs are counted,
    and an all-excluded scan raises an underpowered error.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not 0 < kappa < 2:
        raise ConfigError("the scan fraction kappa must lie in (0, 2)")
    r_ok = _verified_radius(model)
    if r > r_ok:
        raise ConfigError(
            f"radius {r:g} exceeds this model's verified radius {r_ok:g}")
    if grid is None:
        grid = interior_grid(D, xi, kappa * r, grid_size,
                             DELTA_FLOOR_FACTOR * kappa * r, rng.substream(0))
    else:
        grid = np.atleast_2d(np.asarray(grid, dtype=float))
        if not np.all(D.contains(grid)):
            raise DomainError("a supplied grid point lies outside the domain")
    h = eval_harmonic(model, D, xi, r, (g1, g2), grid,
                      [rng.substream(1 + i) for i in range(len(grid))], n,
                      cap)
    h1, h2 = map(list, zip(*h))
    n_total = sum(e.n for e in h1)

    v1 = np.array([e.value for e in h1])
    v2 = np.array([e.value for e in h2])
    powered = np.array([e1.rel_stderr < PAIR_GATE_REL_STDERR
                        and e2.rel_stderr < PAIR_GATE_REL_STDERR
                        for e1, e2 in zip(h1, h2)])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (v1[:, None] * v2[None, :]) / (v1[None, :] * v2[:, None])
    m = len(grid)
    pair_ok = powered[:, None] & powered[None, :]
    np.fill_diagonal(pair_ok, False)
    excluded = int((m * m - m - pair_ok.sum()) // 1)
    if not pair_ok.any():
        raise UnderpoweredError(
            "every grid pair failed the precision gate; increase n or cap")
    c_hat = float(np.nanmax(ratio[pair_ok]))
    warnings = list(dict.fromkeys(w for e in h1 + h2 for w in e.warnings))
    return BhpReport(xi=xi, r=r, kappa=kappa, grid=grid, h1=h1, h2=h2,
                     ratio=ratio, powered=powered, c_hat=c_hat,
                     excluded_pairs=excluded, n_total=n_total,
                     warnings=warnings, **_shell_fields(model, h))


def bhp_scan_series(model: ProcessModel, D: Domain, xi, r_series, kappa: float,
                    g_factory, grid_size: int, n: int, rng: RngStream,
                    **kwargs) -> dict:
    """Run bhp_scan over a radius series; g_factory(r) -> (g1, g2).

    One grid is drawn at the first radius and rescaled about xi for the
    others, so that on sets invariant under dilation about xi the radii
    see congruent grids and the c_hat series varies by MC noise only.
    """
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    reports = []
    grid = None
    r0 = float(r_series[0])
    for k, r in enumerate(r_series):
        g1, g2 = g_factory(float(r))
        if reports:
            grid = xi_arr + (float(r) / r0) * (reports[0].grid - xi_arr)
        reports.append(bhp_scan(model, D, xi, float(r), kappa, g1, g2,
                                grid_size, n, rng.substream(k), grid=grid,
                                **kwargs))
    series = [rep.c_hat for rep in reports]
    return {"r_series": [float(r) for r in r_series],
            "c_hat_series": series,
            "series_spread": max(series) / min(series),
            "reports": reports}


# ===================================================================== #
# approximate factorization
# ===================================================================== #

def factorization_check(model: ProcessModel, D: Domain, xi, r: float,
                        c1: float, c2: float, c3: float, g: BoundaryData,
                        grid_size: int, n: int, rng: RngStream,
                        cap: int = ESCALATION_CAP) -> dict:
    """rho(x) = h(x) / (E_x[tau of D & B(x, c1 r)] * int g dJ(xi, .)).

    The integral runs over |y - xi| >= c2 r; since g vanishes on
    B(xi, 2r) it equals the boundary integral of the data itself.
    Reports rho per powered grid point, the max/min band, the shell
    fields of h's walk (as in `BhpReport`), and the distinct quadrature
    and estimate warnings in first-seen order.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not (0 < c1 and 0 < c3 and c1 + c3 < c2 < 2.0):
        raise ConfigError("factorization fractions need c1 + c3 < c2 < 2")
    with warnings.catch_warnings(record=True) as caught:
        # local import: slow to load
        from scipy.integrate import IntegrationWarning
        warnings.simplefilter("always", IntegrationWarning)
        integral = boundary_integral(model.kernel, xi, g.fn, r_min=c2 * r)
    if not integral > 0:
        raise DomainError("boundary integral of g vanishes; rho is undefined")

    grid = interior_grid(D, xi, c3 * r, grid_size,
                         DELTA_FLOOR_FACTOR * c3 * r, rng.substream(0))
    subs = [rng.substream(1 + i) for i in range(len(grid))]
    harmonic = eval_harmonic(model, D, xi, r, (g,), grid,
                             [sub.substream(0) for sub in subs], n, cap)
    h_est = [h for h, in harmonic]
    e_est, rho_vals, powered = [], [], []
    for x, sub, h in zip(grid, subs, h_est):
        # each point walks its own ball, so these walks run one by one
        ball = Intersection([D, Ball(x, c1 * r)])
        (met,), = escalate(model, ball, [x], [lambda b: b.w],
                           [sub.substream(1)], n, cap, TARGET_REL_STDERR,
                           method="mc-mean-exit-time")
        e_est.append(met)
        ok = (h.rel_stderr < PAIR_GATE_REL_STDERR
              and met.rel_stderr < PAIR_GATE_REL_STDERR)
        powered.append(ok)
        rho_vals.append(h.value / (met.value * integral)
                        if met.value > 0 else np.nan)
    powered = np.asarray(powered)
    rho_vals = np.asarray(rho_vals)
    if not powered.any():
        raise UnderpoweredError("no factorization grid point passed the gate")
    band = rho_vals[powered]
    notes = [f"boundary integral: {str(w.message).splitlines()[0]}"
             for w in caught] + [w for e in h_est + e_est for w in e.warnings]
    return {"xi": xi, "r": r, "c1": c1, "c2": c2, "c3": c3,
            "integral": integral, "grid": grid, "h": h_est,
            "mean_exit": e_est, "rho": rho_vals, "powered": powered,
            "band_max": float(np.nanmax(band)),
            "band_min": float(np.nanmin(band)),
            "band_ratio": float(np.nanmax(band) / np.nanmin(band)),
            **_shell_fields(model, harmonic),
            "warnings": list(dict.fromkeys(notes))}


# ===================================================================== #
# box-method diagnostics
# ===================================================================== #

@dataclass
class BoxDiagnostics:
    """Layered classification of grid points with per-layer infima."""

    xi: np.ndarray
    r: float
    grid: np.ndarray
    p: list                    # per point: exit-before-subdomain estimate
    e: list                    # per point: mean exit time of D & B(xi, r)
    layers: list               # dicts {j, radius, U, V, W, lambda_j}


def _layer_radius(r: float, j: int) -> float:
    """3r/4 minus the first j terms of the convergent series 3r/(2 pi^2 k^2)."""
    return 0.75 * r - sum(3.0 * r / (2.0 * math.pi ** 2 * k * k)
                          for k in range(1, j + 1))


def box_diagnostics(model: ProcessModel, D: Domain, xi, r: float, j_max: int,
                    grid_size: int, n: int, rng: RngStream) -> BoxDiagnostics:
    """Classify grid points into dyadic layers and compute layer infima.

    Each point x in B_D(xi, 3r/4) gets q(x) = P_x(exit of D & B(xi,r)
    stays in D) + E_x[tau of D & B(xi,r)] / phi(r), with phi the model's
    scale function; layer j collects the points within the shrinking
    radius whose q falls in [2^{-(j+1)}, 2^{-j}); cumulative layers V_j
    grow with j, and lambda_j = inf over V_j of E / (phi(r) P), with +inf
    on empty layers.
    P and E at a point are estimated from the same n exits.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    phi_r = float(model.kernel.scale(r))
    grid = interior_grid(D, xi, 0.75 * r, grid_size,
                         DELTA_FLOOR_FACTOR * 0.75 * r, rng.substream(0))
    trunc = D.truncate(xi, r)
    p_est, e_est = map(list, zip(*escalate(
        model, trunc, grid, [lambda b: D.contains(b.y), lambda b: b.w],
        [rng.substream(1 + i) for i in range(len(grid))], n, n,
        method="mc-box-common-exits")))
    p = np.array([e.value for e in p_est])
    e = np.array([e.value for e in e_est])
    q = p + e / phi_r
    dist = np.linalg.norm(grid - xi, axis=1)

    layers = []
    v_cum = np.zeros(len(grid), dtype=bool)
    for j in range(1, j_max + 1):
        rad = _layer_radius(r, j)
        in_rad = dist < rad
        u_j = in_rad & (q >= 2.0 ** (-(j + 1))) & (q < 2.0 ** (-j))
        w_j = in_rad & (q >= 2.0 ** (-(j + 1)))
        v_cum = v_cum | u_j
        sel = v_cum & (p > 0)
        lam = float(np.min(e[sel] / (phi_r * p[sel]))) if sel.any() else math.inf
        layers.append({"j": j, "radius": rad,
                       "U": np.nonzero(u_j)[0], "V": np.nonzero(v_cum)[0],
                       "W": np.nonzero(w_j)[0], "lambda_j": lam})
    return BoxDiagnostics(xi=xi, r=r, grid=grid, p=p_est, e=e_est,
                          layers=layers)


# ===================================================================== #
# chain decay
# ===================================================================== #

def _gamma_radius(s: np.ndarray, r: float) -> np.ndarray:
    """Ball-radius schedule gamma(s) = (2 - s/r)^2 r / 8 for s < 2r, else 0."""
    out = 0.125 * (2.0 - s / r) ** 2 * r
    return np.where(s < 2.0 * r, out, 0.0)


def chain_decay(model: ProcessModel, D: Domain, xi, r: float, x, n: int,
                rng: RngStream, m_max: int = 8) -> dict:
    """Survival table of the iterated-ball chain built at (xi, r).

    Starting from Y_0 = x, each step exits D & B(Y_k, gamma(|Y_k - xi|))
    exactly; step k survives if Y_k stays inside D and within either
    B(xi, 3r/2) or B(Y_{k-1}, 2 gamma_{k-1}).  Reports the survival
    probabilities for m = 1..m_max and a fitted geometric decay rate
    with its 95% confidence interval; `stalled` counts the walks, over
    all steps, that hit the step budget, and none of them survives.
    """
    if not isinstance(model, IsotropicStable):
        raise ConfigError("the chain instrument needs the exact-exit-law model")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not D.contains(x) or np.linalg.norm(x - xi) >= r:
        raise DomainError("chain start must lie in B_D(xi, r)")

    y = np.tile(x, (n, 1))
    alive = np.ones(n, dtype=bool)
    survival = []
    stalled = 0
    for step in range(m_max):
        idx_alive = np.nonzero(alive)[0]
        radii = _gamma_radius(np.linalg.norm(y[idx_alive] - xi, axis=1), r)
        movable = radii > 0
        # paths whose radius schedule hit zero can no longer move: dead
        alive[idx_alive[~movable]] = False
        idx = idx_alive[movable]
        if len(idx) == 0:
            survival.extend([0.0] * (m_max - step))
            break
        centers = y[idx]
        radii = radii[movable]

        # clearance of D & B(centers[row], radii[row]); the walker index
        # passed back by the core is the row for this step
        def clearance(pts, rows):
            to_ball = radii[rows] - np.linalg.norm(pts - centers[rows], axis=1)
            return np.minimum(D.clearance(pts), to_ball)

        batch = walk_exit_batch_indexed(model.alpha, model.dim, clearance,
                                        centers, BALL_FACTOR,
                                        rng.substream(step))
        new_y = batch.y
        stalled += int(batch.stalled.sum())
        in_d = np.asarray(D.contains(new_y), dtype=bool) & ~batch.stalled
        near_xi = np.linalg.norm(new_y - xi, axis=1) < 1.5 * r
        near_prev = np.linalg.norm(new_y - centers, axis=1) < 2.0 * radii
        ok = in_d & (near_xi | near_prev)
        alive[:] = False
        alive[idx[ok]] = True
        y[idx] = new_y
        survival.append(float(alive.sum()) / n)

    m = np.arange(1, len(survival) + 1)
    pos_mask = np.asarray(survival) > 0
    fit = None
    if pos_mask.sum() >= 3:
        from scipy import stats  # local import: slow to load
        reg = stats.linregress(m[pos_mask], np.log(np.asarray(survival)[pos_mask]))
        df = int(pos_mask.sum()) - 2
        tq = float(stdtrit(df, 0.975)) if df > 0 else math.inf
        fit = {"log_slope": float(reg.slope),
               "slope_stderr": float(reg.stderr),
               "slope_ci95": (float(reg.slope - tq * reg.stderr),
                              float(reg.slope + tq * reg.stderr)),
               "rate": float(math.exp(reg.slope)),
               "rate_upper95": float(math.exp(reg.slope + tq * reg.stderr))}
    return {"xi": xi, "r": r, "x": x, "n": n, "stalled": stalled,
            "survival": list(map(float, survival)), "fit": fit}
