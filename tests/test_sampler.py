import numpy as np
import pytest
from scipy import stats

from bhplab import exitstats, sampler
from bhplab.bhp import SHELL_EPS
from bhplab.domains import SURFACE_TOL, Ball, HalfSpace, SlitPlane, _row_norm
from bhplab.errors import (CapabilityError, ConfigError, DomainError,
                           SamplerStallError)
from bhplab.exitstats import escalate
from bhplab.kernel import (JumpKernelSpec, isotropic_stable_kernel,
                           tail_mass, tempered_stable_kernel)
from bhplab.rng import RngStream
from bhplab.sampler import (GeometricStable, IsotropicStable, SdeStable,
                            StableLikeChain, _far_jumps,
                            _paths_exit_indicator, _snap,
                            ball_exit_centered, chain_exit_batch,
                            mean_exit_constant, one_sided_stable,
                            sample_exits, stable_increment,
                            survival_prob_ball, walk_exit_batch_indexed)
from bhplab.scale import ScaleFunction

from conftest import (ball_exit_prob_interval, ball_exit_tail_prob,
                      halfspace_far_prob, poisson_kernel_constant)


# ------------------------------------------------------------------ #
# exact single-ball exit law
# ------------------------------------------------------------------ #

def test_centered_exit_tail_matches_quadrature(rng):
    n = 200_000
    for d, alpha, R in [(1, 1.0, 2.0), (2, 1.5, 3.0)]:
        y = ball_exit_centered(alpha, d, [n], [rng.substream(d).generator()])
        p_hat = float((np.linalg.norm(y, axis=1) > R).mean())
        p = ball_exit_tail_prob(alpha, d, R)
        se = np.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) < 3.5 * se


def test_centered_exit_points_leave_the_ball(rng):
    y = ball_exit_centered(0.7, 3, [10_000], [rng.generator()])
    assert np.all(np.linalg.norm(y, axis=1) >= 1.0)


def test_offcenter_exit_matches_quadrature(rng):
    x = 0.3
    batch = sample_exits(IsotropicStable(1.0, 1), Ball([0.0], 1.0), [x],
                         4000, rng.substream(1))
    p_hat = float((batch.y[:, 0] > 1.0).mean())
    p = ball_exit_prob_interval(1.0, x, 1.0, np.inf)
    se = np.sqrt(p * (1 - p) / batch.n)
    assert abs(p_hat - p) < 3.5 * se


# ------------------------------------------------------------------ #
# walk on balls
# ------------------------------------------------------------------ #

def test_walk_self_similarity_bitwise(rng):
    # from the center with rho=1 the walk makes a single exact exit, so
    # exits of B(0, r) are exactly r times exits of B(0, 1)
    model = IsotropicStable(1.0, 2)
    r = 7.0
    b1 = sample_exits(model, Ball([0.0, 0.0], 1.0), [0.0, 0.0], 500,
                      RngStream(5), rho=1.0)
    br = sample_exits(model, Ball([0.0, 0.0], r), [0.0, 0.0], 500,
                      RngStream(5), rho=1.0)
    assert np.allclose(br.y, r * b1.y, rtol=1e-12)
    assert np.all(b1.steps == 1)


def test_walk_exit_law_invariant_under_rho(rng):
    # the exit position law of the domain does not depend on the
    # walk-on-balls radius factor
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    n = 30_000
    a = sample_exits(model, D, [0.0], n, rng.substream(0), rho=1.0)
    b = sample_exits(model, D, [0.0], n, rng.substream(1), rho=0.5)
    ks = stats.ks_2samp(a.y[:, 0], b.y[:, 0])
    assert ks.pvalue > 0.01
    assert not a.stalled.any() and not b.stalled.any()


def test_walk_time_weight_matches_closed_form(rng):
    # E_x[tau_{B(0,r)}] = C_E (r^2 - |x|^2)^{alpha/2}
    alpha, r, x0 = 1.2, 2.0, 0.8
    D = Ball([0.0], r)
    n = 40_000
    batch = sample_exits(IsotropicStable(alpha, 1), D, [x0], n, rng, rho=0.7)
    expect = mean_exit_constant(1, alpha) * (r * r - x0 * x0) ** (alpha / 2)
    se = batch.w.std(ddof=1) / np.sqrt(n)
    assert abs(batch.w.mean() - expect) < 3.5 * se


def test_walk_weight_is_exact_from_center_at_rho_one(rng):
    alpha = 0.9
    D = Ball([0.0, 0.0], 3.0)
    batch = sample_exits(IsotropicStable(alpha, 2), D, [0.0, 0.0], 100, rng,
                         rho=1.0)
    expect = mean_exit_constant(2, alpha) * 3.0 ** alpha
    assert np.allclose(batch.w, expect, rtol=1e-12)


def test_walk_determinism_bitwise():
    model = IsotropicStable(1.5, 1)
    D = Ball([0.0], 1.0)
    a = sample_exits(model, D, [0.0], 200, RngStream(77, 3))
    b = sample_exits(model, D, [0.0], 200, RngStream(77, 3))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.w, b.w)


def test_walk_on_balls_single_sample_and_stall(monkeypatch):
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    s = sample_exits(model, D, [0.2], 1, RngStream(3))
    assert not D.contains(s.y[0]) and not s.stalled[0]
    assert s.w[0] > 0 and s.steps[0] >= 1
    # a walker that runs out of steps is flagged, not reported as an exit
    monkeypatch.setattr(sampler, "MAX_STEPS", 1)
    stuck = sample_exits(model, D, [0.0], 1, RngStream(3), rho=0.001)
    assert stuck.stalled[0] and stuck.steps[0] == 1
    assert D.contains(stuck.y[0])


def test_walk_evaluates_clearance_once_per_step(rng):
    # the oracle sees each start once and each active walker once after
    # every jump: n + total steps points, never a second query per step
    D = Ball([0.0, 0.0], 1.0)
    seen = []

    def clearance(pts, idx):
        assert len(pts) == len(idx)
        seen.append(len(pts))
        return D.clearance(pts)

    n = 2000
    batch = walk_exit_batch_indexed(IsotropicStable(1.5, 2), clearance,
                                    [np.zeros((n, 2))], 0.5, [rng], [n])
    assert not batch.stalled.any()
    assert sum(seen) == n + int(batch.steps.sum())
    assert len(seen) == 1 + int(batch.steps.max())
    ref = sample_exits(IsotropicStable(1.5, 2), D, [0.0, 0.0], n, rng,
                       rho=0.5)
    assert np.array_equal(batch.y, ref.y) and np.array_equal(batch.w, ref.w)


def test_grouped_ball_exits_equal_per_generator_calls(rng):
    sizes = [5, 0, 1, 300]
    for d in (1, 2, 3):
        streams = [rng.substream(10 * d + j) for j in range(len(sizes))]
        got = ball_exit_centered(1.3, d, sizes,
                                 [s.generator() for s in streams])
        ref = np.concatenate([ball_exit_centered(1.3, d, [n], [s.generator()])
                              for n, s in zip(sizes, streams)])
        assert got.shape == (sum(sizes), d)
        assert np.array_equal(got, ref)


def _row_directions(d, v):
    """Unit directions from raw draws by the (n, d) row formula that the
    column-wise kernels replaced."""
    if d == 1:
        return np.where(v < 0.5, -1.0, 1.0)[:, None]
    return v / _row_norm(v)[:, None]


def _draws(d, n, g):
    return g.random(n) if d == 1 else g.standard_normal((n, d))


def test_ball_exits_are_bitwise_the_row_formula(rng):
    # same draws, same elementwise operations in the same order: every
    # bit of the column-wise kernel matches the row formula, and its
    # columns are contiguous
    sizes = [7, 0, 1, 513, 64]
    for d in (1, 2, 3):
        streams = [rng.substream(100 + 10 * d + j) for j in range(len(sizes))]
        alpha = 0.8 + 0.3 * d
        got = ball_exit_centered(alpha, d, sizes,
                                 [s.generator() for s in streams])
        b, v = [], []
        for n, s in zip(sizes, streams):
            g = s.generator()
            if n:
                b.append(g.beta(alpha / 2.0, 1.0 - alpha / 2.0, size=n))
                v.append(_draws(d, n, g))
        ref = (1.0 / np.sqrt(np.concatenate(b)))[:, None] \
            * _row_directions(d, np.concatenate(v))
        assert got.flags.f_contiguous and np.array_equal(got, ref)
    assert ball_exit_centered(1.0, 2, [0, 0], [None, None]).shape == (0, 2)


def test_far_jumps_are_bitwise_the_row_formula(rng):
    for d in (1, 2):
        model = StableLikeChain(isotropic_stable_kernel(d, 1.2), 2.0 ** -3,
                                1.0)
        t = model.tables
        got = _far_jumps(t, d, model.h, 300, rng.substream(d).generator())
        g = rng.substream(d).generator()
        radii = np.interp(g.random(300), t.far_radius_cdf, t.far_radius_grid)
        ref = _snap(radii[:, None] * _row_directions(d, _draws(d, 300, g)),
                    model.h)
        assert np.array_equal(got, ref)


def _walk_groups(D, points, sizes, streams, rho):
    return walk_exit_batch_indexed(IsotropicStable(1.5, 2),
                                   lambda pts, idx: D.clearance(pts),
                                   points, rho, streams, sizes)


def _draw_counts(monkeypatch) -> list:
    """Each group's draw count in every ball-exit draw call from now on."""
    calls = []
    ball_exits = sampler.ball_exit_centered

    def recording(alpha, d, n, g):
        calls.append(list(n))
        return ball_exits(alpha, d, n, g)

    monkeypatch.setattr(sampler, "ball_exit_centered", recording)
    return calls


def _check_staggered(calls, budget, overlap=True):
    """A walk under a small walker budget: no draw call moves more than
    the budget, the last group starts after the first, and (if
    `overlap`) walks beside an earlier group's tail."""
    assert max(map(sum, calls)) <= budget
    first = [next(t for t, n in enumerate(calls) if n[j])
             for j in (0, -1)]
    assert first[1] > first[0]
    if overlap:
        assert any(n[-1] and any(n[:-1]) for n in calls)


def test_lockstep_groups_equal_separate_walks(rng, monkeypatch):
    # groups of different sizes and starts (one empty) walking in
    # lockstep give each group the exits of a walk of its own, also when
    # the step budget stalls most of them, and also when a small walker
    # budget starts the last group steps after the others, beside their
    # tails, and its steps count from its own start
    points = [[-0.3, 0.2], [0.1, 0.05], [0.0, 0.3], [-0.2, -0.1]]
    sizes = [700, 40, 0, 1500]
    streams = [rng.substream(j) for j in range(len(points))]
    # an oblique half-space: its clearance is a dot product per row
    half = HalfSpace([0.3, 1.0], -0.5).truncate([0.0, 0.0], 0.8)
    slit = SlitPlane().truncate([0.0, 0.0], 0.8)
    for budget in (sampler.LOCKSTEP_WALKERS, 1600):
        for D, rho, max_steps in [(slit, 0.5, 10 ** 6),
                                  (half, 0.5, 10 ** 6), (slit, 0.1, 3)]:
            monkeypatch.setattr(sampler, "LOCKSTEP_WALKERS", budget)
            monkeypatch.setattr(sampler, "MAX_STEPS", max_steps)
            calls = _draw_counts(monkeypatch)
            got = _walk_groups(D, points, sizes, streams, rho)
            if budget == 1600:
                _check_staggered(calls, budget, overlap=max_steps > 3)
            refs = [_walk_groups(D, [p], [n], [s], rho)
                    for p, n, s in zip(points, sizes, streams)]
            for f in ("y", "w", "steps", "stalled"):
                assert np.array_equal(getattr(got, f),
                                      np.concatenate([getattr(r, f)
                                                      for r in refs])), f
            if max_steps == 3:
                assert 0 < got.stalled.sum() < got.n
                assert np.all(got.steps[got.stalled] == 3)
            monkeypatch.undo()


class _NoDraws:
    """A stream that fails the test if a sampler asks it for draws."""

    def generator(self):
        raise AssertionError("the sampler drew before checking its input")


def test_samplers_reject_starts_of_another_dimension(rng):
    # the model fixes a run's dimension: a start in another is refused
    # before any draw, not indexed out of range or broadcast over axes
    D = HalfSpace([0.0, 1.0], 0.0)
    for d in (1, 3):
        with pytest.raises(DomainError,
                           match=f"dimension 2 but the model has "
                                 f"dimension {d}"):
            walk_exit_batch_indexed(IsotropicStable(1.0, d),
                                    lambda pts, idx: D.clearance(pts),
                                    [[0.0, 1.0]], 1.0, [_NoDraws()], [1])
    with pytest.raises(DomainError, match="model has dimension 1"):
        chain_exit_batch(_unit_chain(), D, [[0.0, 1.0]], _NoDraws())
    for model in (SdeStable(1.5, 2), GeometricStable(1.5, 2)):
        with pytest.raises(DomainError, match="model has dimension 2"):
            survival_prob_ball(model, [0.0], 1.0, 0.1, 10, rng)


def test_walk_validates_inputs():
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    with pytest.raises(DomainError):
        sample_exits(model, D, [2.0], 1, RngStream(0))          # outside D
    with pytest.raises(DomainError):
        sample_exits(model, D, [1.0 - 0.1 * SURFACE_TOL], 1, RngStream(0))
    with pytest.raises(DomainError):
        sample_exits(model, D, [0.0, 0.0], 1, RngStream(0))     # wrong dim
    with pytest.raises(DomainError):
        sample_exits(model, D, [0.0], 1, RngStream(0), rho=1.5)
    with pytest.raises(DomainError):
        walk_exit_batch_indexed(model, lambda pts, idx: D.clearance(pts),
                                [[2.0]], 0.5, [RngStream(0)], [1])


# ------------------------------------------------------------------ #
# stopping shell
# ------------------------------------------------------------------ #

def test_shelled_half_space_walk_matches_exit_law_quadrature():
    # a shell of width SHELL_EPS at the boundary of {y1 > 0}, seen from
    # x1 = 1, with the truncating sphere far out; a stopped walker scores
    # where it stands, next to the boundary point it was creeping to
    alpha, x, R, n = 1.5, [1.0, 0.0], 2.0, 20_000
    U = HalfSpace([1.0, 0.0]).truncate([0.0, 0.0], 1e6, shell=SHELL_EPS)
    batch = sample_exits(IsotropicStable(alpha, 2), U, x, n, RngStream(1))
    assert 0 < batch.shelled.sum() < 0.05 * n
    assert np.all(U.clearance(batch.y[batch.shelled]) <= SHELL_EPS)
    p = float((np.linalg.norm(batch.y, axis=1) > R).mean())
    exact = halfspace_far_prob(x, R, alpha)
    assert abs(p - exact) < 4.0 * np.sqrt(exact * (1.0 - exact) / n)


def test_shell_stops_walkers_at_d_only():
    # B((5, 0), 1) lies 4 away from the boundary of D = {y1 > 0}: a walk
    # from within the shell width of its sphere stops no walker and
    # equals the unshelled walk; a start within the width of D's own
    # boundary stops where it stands, after 0 steps
    model = IsotropicStable(1.5, 2)
    D = HalfSpace([1.0, 0.0])
    shell = 1e-3
    start = [5.0, 1.0 - 0.5 * shell]
    got = sample_exits(model, D.truncate([5.0, 0.0], 1.0, shell=shell),
                       start, 2000, RngStream(8))
    ref = sample_exits(model, D.truncate([5.0, 0.0], 1.0), start, 2000,
                       RngStream(8))
    assert not got.shelled.any()
    for f in ("y", "w", "steps", "stalled"):
        assert np.array_equal(getattr(got, f), getattr(ref, f)), f
    near = sample_exits(model, D.truncate([0.0, 0.0], 1.0, shell=shell),
                        [0.5 * shell, 0.0], 10, RngStream(8))
    assert near.shelled.all() and not near.steps.any()
    assert np.all(near.y == [0.5 * shell, 0.0]) and not near.w.any()


def test_shelled_lockstep_groups_equal_separate_walks(rng, monkeypatch):
    points = [[-0.3, 0.2], [0.1, 0.05], [0.0, 0.3], [0.2, -0.01]]
    sizes = [700, 40, 0, 1500]
    streams = [rng.substream(j) for j in range(len(points))]
    U = SlitPlane().truncate([0.0, 0.0], 0.8, shell=1e-4)
    model = IsotropicStable(1.5, 2)
    for budget in (sampler.LOCKSTEP_WALKERS, 1600):
        monkeypatch.setattr(sampler, "LOCKSTEP_WALKERS", budget)
        calls = _draw_counts(monkeypatch)
        got = sample_exits(model, U, points, sizes, streams)
        if budget == 1600:
            _check_staggered(calls, budget)
        refs = [sample_exits(model, U, p, n, s)
                for p, n, s in zip(points, sizes, streams)]
        assert 0 < got.shelled.sum() < got.n
        for f in ("y", "w", "steps", "stalled", "shelled"):
            assert np.array_equal(getattr(got, f),
                                  np.concatenate([getattr(r, f)
                                                  for r in refs])), f
        monkeypatch.undo()


# ------------------------------------------------------------------ #
# lattice chain
# ------------------------------------------------------------------ #

def _unit_chain(h=2.0 ** -5, r_cut=8.0, offset=0.5):
    return StableLikeChain(isotropic_stable_kernel(1, 1.0), h, r_cut,
                           lattice_offset=offset)


def test_chain_far_rate_matches_tail_mass():
    model = _unit_chain()
    # the aggregated far jump carries exactly the tail mass beyond R_c,
    # which for j(z) = |z|^-2 is 2 / R_c
    assert model.tables.far_rate == pytest.approx(2.0 / 8.0, rel=1e-5)


def test_chain_exits_are_symmetric(rng):
    model = _unit_chain()
    batch = chain_exit_batch(model, Ball([0.0], 1.0), np.zeros((20_000, 1)),
                             rng)
    y = batch.y[:, 0]
    assert np.all(np.abs(y) >= 1.0 - model.h)
    # symmetric kernel, symmetric start: the sign is a fair coin
    p = float((y > 0).mean())
    assert abs(p - 0.5) < 3.5 * np.sqrt(0.25 / len(y))


def _variable_chain(kappa_lo=0.5, kappa_hi=2.0):
    # x-dependent, z-symmetric coefficients in [0.73, 1.95]; every far jump
    # (|z| > 1) sees kappa = a(x)
    def kappa(x, z):
        a = 1.5 + 0.45 * np.tanh(4.0 * x[:, 0])
        return a * (1.0 - 0.4 * np.maximum(0.0, 1.0 - 2.0 * np.abs(z[:, 0])))

    ks = JumpKernelSpec(dim=1, scale=ScaleFunction.power(1.0), kappa=kappa,
                        kappa_lo=kappa_lo, kappa_hi=kappa_hi)
    return StableLikeChain(ks, 2.0 ** -3, 4.0, lattice_offset=0.5), kappa


def test_variable_kappa_chain_matches_direct_rate_loop(rng):
    # reference: the chain with its own rates kappa(x, z) h |z|^-2 on the
    # stencil and a(x) * 2 / R_c for the far jump (radius R_c / U, sign
    # fair, snapped to h Z), one path at a time, weighted by the expected
    # holding time 1 / total rate; the sampler proposes at kappa_hi and
    # thins instead
    model, kappa = _variable_chain()
    h, r_cut, x0, n = model.h, model.r_cut, 0.3125, 20_000
    batch = chain_exit_batch(model, Ball([0.0], 1.0), np.full((n, 1), x0),
                             rng.substream(0))
    k = np.arange(-32, 33)
    z = k[k != 0] * h                   # the stencil 0 < |z| <= R_c
    sites = {}
    g = rng.substream(1).generator()
    w, right = np.zeros(n), np.zeros(n, dtype=bool)
    for i in range(n):
        x = x0
        while abs(x) < 1.0:
            if x not in sites:
                near = kappa(np.full((len(z), 1), x), z[:, None]) * h / z ** 2
                far = (1.5 + 0.45 * np.tanh(4.0 * x)) * 2.0 / r_cut
                lam = near.sum() + far
                sites[x] = (1.0 / lam, far / lam, np.cumsum(near) / near.sum())
            hold, p_far, cdf = sites[x]
            w[i] += hold
            if g.random() < p_far:
                sign = 1.0 if g.random() < 0.5 else -1.0
                x += sign * round(r_cut / g.random() / h) * h
            else:
                x += z[min(int(np.searchsorted(cdf, g.random())),
                           len(z) - 1)]
        right[i] = x > 0
    se = np.sqrt(batch.w.var() / n + w.var() / n)
    assert abs(batch.w.mean() - w.mean()) < 4 * se
    p, q = float((batch.y[:, 0] > 0).mean()), float(right.mean())
    assert abs(p - q) < 4 * np.sqrt((p * (1 - p) + q * (1 - q)) / n)


def test_chain_rejects_kappa_outside_its_bounds(rng):
    # the declared envelope [1, 2] misses kappa's low values, so thinning
    # against kappa_hi alone would bias the chain silently
    model, _ = _variable_chain(kappa_lo=1.0)
    with pytest.raises(ConfigError, match=r"kappa\(\[-0\.6875\], \[.*\]\) = "
                       r".* outside the declared bounds \[1\.0, 2\.0\]"):
        chain_exit_batch(model, Ball([0.0], 1.0), np.full((100, 1), -0.6875),
                         rng)
    model, _ = _variable_chain(kappa_hi=1.5)
    with pytest.raises(ConfigError, match="outside the declared bounds"):
        chain_exit_batch(model, Ball([0.0], 1.0), np.full((100, 1), 0.3125),
                         rng)


def test_variable_kappa_chain_feeds_the_instruments(rng, monkeypatch):
    monkeypatch.setattr(exitstats, "TARGET_REL_STDERR", 0.01)
    model, _ = _variable_chain()
    D = Ball([0.0], 1.0)
    (mean, right), = escalate(model, D, [[0.3125]],
                              [lambda b: b.w, lambda b: b.y[:, 0] > 0],
                              [rng.substream(0)], 2000, cap=8000)
    assert mean.n == right.n == 8000 and not mean.warnings
    assert 0.2 < mean.value < 0.24 and 0.55 < right.value < 0.64
    est = survival_prob_ball(model, [0.3125], 1.0, 0.1, 4000,
                             rng.substream(1))
    assert 0.0 < est.value < 1.0


def test_chain_survival_stall_names_its_count(monkeypatch):
    monkeypatch.setattr(sampler, "MAX_STEPS", 1)
    model = StableLikeChain(isotropic_stable_kernel(1, 1.0), 2.0 ** -4, 4.0)
    with pytest.raises(SamplerStallError, match=r"on [1-9]\d* of 200 paths"):
        survival_prob_ball(model, [0.0], 1.0, 10.0, 200, RngStream(3))


def test_chain_survival_counts_no_jump_after_t(rng):
    # by t = 0.01 / lambda, with lambda the chain's total jump rate, a
    # path has jumped at all with probability 1 - e^{-0.01}; the jump
    # drawn at the proposal whose clock passes t must not count as an exit
    model = StableLikeChain(isotropic_stable_kernel(1, 1.0), 2.0 ** -3, 4.0)
    lam = model.tables.total_rate
    est = survival_prob_ball(model, [0.0], 0.5, 0.01 / lam, 20_000, rng)
    assert est.value <= -np.expm1(-0.01) + 4.0 * est.stderr


def test_tempered_chain_tables_build_without_warnings():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = StableLikeChain(tempered_stable_kernel(1, 0.8, 1.0), 2.0 ** -4,
                            4.0).tables
    assert t.far_rate > 0 and t.far_radius_cdf[-1] == 1.0


def test_chain_validation():
    ks = isotropic_stable_kernel(1, 1.0)
    with pytest.raises(ConfigError):
        StableLikeChain(ks, 1.0, 0.5)       # h >= r_cut
    with pytest.raises(ConfigError):
        StableLikeChain(ks, 2.0 ** -5, 8.0, lattice_offset=1.5)
    with pytest.raises(ConfigError):
        # stencil would be astronomically large
        StableLikeChain(isotropic_stable_kernel(3, 1.0), 1e-4, 10.0)


def test_chain_rejects_asymmetric_kernel_at_large_alpha():
    def kappa(x, z):
        z = np.atleast_2d(z)
        return 1.0 + 0.5 * np.tanh(z[..., 0])

    ks = JumpKernelSpec(dim=1, scale=ScaleFunction.power(1.5), kappa=kappa,
                        kappa_lo=0.5, kappa_hi=1.5, symmetric_in_z=False)
    with pytest.raises(ConfigError):
        StableLikeChain(ks, 2.0 ** -5, 8.0)


def test_chain_snaps_starts_to_the_lattice(rng, monkeypatch):
    monkeypatch.setattr(sampler, "MAX_STEPS", 1)
    model = _unit_chain(offset=0.0)
    batch = chain_exit_batch(model, Ball([0.0], 1.0),
                             np.full((10, 1), 0.013), rng)
    # after one step every position is on the lattice h Z
    rem = np.abs(batch.y / model.h - np.round(batch.y / model.h))
    assert np.all(rem < 1e-9)


# ------------------------------------------------------------------ #
# exact stable increments
# ------------------------------------------------------------------ #

def test_one_sided_stable_matches_levy_law(rng):
    # index 1/2: Laplace transform exp(-sqrt(lambda)) is the Levy
    # distribution with scale 1/2
    s = one_sided_stable(0.5, 20_000, rng.generator())
    ks = stats.kstest(s, stats.levy(scale=0.5).cdf)
    assert ks.pvalue > 0.01


def test_stable_increment_cauchy_case(rng):
    # alpha = 1, d = 1, dt = 1: characteristic function exp(-|xi|),
    # i.e. the standard Cauchy law
    z = stable_increment(1.0, 1, 1.0, 20_000, rng.generator())[:, 0]
    ks = stats.kstest(z, stats.cauchy.cdf)
    assert ks.pvalue > 0.01


def test_stable_increment_time_scaling(rng):
    # dt enters only through the dt^{1/alpha} spatial scale
    g1 = RngStream(42).generator()
    g2 = RngStream(42).generator()
    a = stable_increment(1.5, 2, 1.0, 1000, g1)
    b = stable_increment(1.5, 2, 8.0, 1000, g2)
    assert np.allclose(b, 8.0 ** (1 / 1.5) * a, rtol=1e-12)


def test_one_sided_stable_rejects_bad_index(rng):
    with pytest.raises(DomainError):
        one_sided_stable(1.0, 10, rng.generator())


# ------------------------------------------------------------------ #
# Euler scheme and survival probabilities
# ------------------------------------------------------------------ #

def test_survival_scaled_sigma_equivalent_to_scaled_ball(rng):
    # with sigma = 2 I, exiting B(0, 2r) is the same event as the
    # identity-coefficient scheme exiting B(0, r)
    n = 20_000
    base = SdeStable(1.0, 1)
    doubled = SdeStable(1.0, 1, sigma_scale=2.0)
    p1 = survival_prob_ball(base, [0.0], 1.0, 1.0, n, rng.substream(0),
                            n_steps=20)
    p2 = survival_prob_ball(doubled, [0.0], 2.0, 1.0, n, rng.substream(1),
                            n_steps=20)
    joint_se = np.hypot(p1.stderr, p2.stderr)
    assert abs(p1.value - p2.value) < 3.5 * joint_se


def test_batched_euler_matches_per_path_loop(rng):
    # reference: the Euler scheme one path at a time, drawing the alive
    # paths' increments in path order, as the batched scheme must
    model = SdeStable(1.5, 2, sigma_scale=1.7)
    x0, r, t, n, n_steps = np.array([0.3, -0.2]), 1.0, 0.3, 2000, 16
    got = _paths_exit_indicator(model, x0, r, t, n, n_steps,
                                    rng.generator())
    g = rng.generator()
    x = np.tile(x0, (n, 1))
    want = np.zeros(n, dtype=bool)
    for _ in range(n_steps):
        alive = np.nonzero(~want)[0]
        dz = stable_increment(1.5, 2, t / n_steps, len(alive), g)
        for i, k in enumerate(alive):
            x[k] = x[k] + 1.7 * dz[i]
        want |= np.linalg.norm(x - x0, axis=1) > r
    assert 0 < want.sum() < n
    assert np.array_equal(got, want)


@pytest.mark.parametrize("s", [1e-3, 0.3, 1.7, 2.0, np.pi, 7.5e5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_sigma_scale_steps_as_the_constant_matrix(rng, s, d):
    # sigma_scale s is the constant coefficient s I of dX = sigma dZ: the
    # exit verdicts equal a reference that applies the matrix s I to each
    # alive path's increment; s I dz and s dz differ at most in the sign
    # of a zero, which the exit test's norms do not see
    x0, r, t, n, n_steps = np.full(d, 0.1), 1.0, 0.3, 400, 8
    got = _paths_exit_indicator(SdeStable(1.5, d, sigma_scale=s), x0, r, t,
                                n, n_steps, rng.substream(d).generator())
    g = rng.substream(d).generator()
    sig = s * np.eye(d)
    x, want = np.tile(x0, (n, 1)), np.zeros(n, dtype=bool)
    for _ in range(n_steps):
        alive = np.nonzero(~want)[0]
        if alive.size == 0:
            break
        dz = stable_increment(1.5, d, t / n_steps, len(alive), g)
        x[alive] = x[alive] + np.matmul(sig, dz[:, :, None])[:, :, 0]
        want |= np.linalg.norm(x - x0, axis=1) > r
    assert np.array_equal(got, want)


def test_survival_under_an_overflowing_sigma_scale_exits_every_path(rng):
    # every path's distance overflows to inf on the first step, which is
    # an exit, and numpy's overflow warning would fail this test
    model = SdeStable(1.5, 2, sigma_scale=1e200)
    est = survival_prob_ball(model, [0.0, 0.0], 1.0, 1.0, 500, rng,
                             n_steps=4)
    assert est.value == 1.0


@pytest.mark.parametrize("s", [0.0, -2.0, np.inf, np.nan])
def test_sde_model_refuses_a_bad_sigma_scale(s):
    with pytest.raises(ConfigError, match="ellipticity"):
        SdeStable(1.5, 2, sigma_scale=s)


def test_survival_needs_positive_horizon_radius_and_counts(rng):
    model = SdeStable(1.0, 2)
    for r, t, n, n_steps in [(1.0, 0.0, 10, 4), (1.0, -1.0, 10, 4),
                             (0.0, 1.0, 10, 4), (-1.0, 1.0, 10, 4),
                             (1.0, 1.0, 0, 4), (1.0, 1.0, 10, 0),
                             (1.0, 1.0, 10, -2)]:
        with pytest.raises(DomainError):
            survival_prob_ball(model, [0.0, 0.0], r, t, n, rng,
                               n_steps=n_steps)


def test_survival_exact_model_needs_explicit_fallback(rng):
    # the fallback is the sde-stable model, which the error names
    with pytest.raises(CapabilityError, match="sde-stable"):
        survival_prob_ball(IsotropicStable(1.0, 1), [0.0], 1.0, 1.0, 100, rng)
    est = survival_prob_ball(SdeStable(1.0, 1), [0.0], 1.0, 1.0, 2000, rng)
    assert 0.0 < est.value < 1.0


def test_survival_vanishes_for_tiny_horizons(rng):
    model = SdeStable(1.0, 1)
    est = survival_prob_ball(model, [0.0], 1.0, 1e-5, 2000, rng, n_steps=10)
    assert est.value < 0.01


def test_survival_scaling_reference():
    # stable scaling: P_0(tau_{B(0,r)} < t) = P_0(tau_{B(0,1)} < t / r^alpha);
    # the Euler scheme with exact increments keeps it path by path, up to
    # rounding in the time step
    alpha, r, t, n = 1.5, 2.0, 2.0, 4000
    model = SdeStable(alpha, 1)
    big = survival_prob_ball(model, [0.0], r, t, n, RngStream(5), n_steps=16)
    unit = survival_prob_ball(model, [0.0], 1.0, t / r ** alpha, n,
                              RngStream(5), n_steps=16)
    assert 0.0 < big.value < 1.0
    assert abs(big.value - unit.value) <= 1.0 / n


def test_survival_chain_and_geometric_run(rng):
    chain = _unit_chain(h=2.0 ** -4)
    est = survival_prob_ball(chain, [0.0], 1.0, 0.5, 2000, rng.substream(0))
    assert 0.0 <= est.value <= 1.0
    geo = GeometricStable(1.0, 1)
    est2 = survival_prob_ball(geo, [0.0], 1.0, 0.5, 2000, rng.substream(1),
                              n_steps=16)
    assert 0.0 <= est2.value <= 1.0



def test_survival_stops_drawing_once_every_path_has_left(rng, monkeypatch):
    # every path leaves a ball of radius 1e-9 on the first of 16 steps
    import bhplab.sampler as sampler

    calls = []

    def counted(*args):
        calls.append(args[3])
        return stable_increment(*args)

    monkeypatch.setattr(sampler, "stable_increment", counted)
    est = survival_prob_ball(SdeStable(1.5, 2), [0.0, 0.0], 1e-9, 1.0, 500,
                             rng, n_steps=16)
    assert est.value == 1.0
    assert calls == [500]


def test_geometric_survival_matches_per_path_loop(rng):
    # reference: the gamma-subordinated process one path at a time,
    # drawing the alive paths' increments in path order, as the batched
    # path loop must
    model = GeometricStable(1.5, 2)
    x0, r, t, n, n_steps = np.array([0.3, -0.2]), 1.0, 0.5, 2000, 16
    got = _paths_exit_indicator(model, x0, r, t, n, n_steps, rng.generator())
    g = rng.generator()
    x = np.tile(x0, (n, 1))
    want = np.zeros(n, dtype=bool)
    for _ in range(n_steps):
        alive = np.nonzero(~want)[0]
        # a stable increment over a gamma clock's increment
        m = len(alive)
        clock = g.gamma(t / n_steps, 1.0, m)
        s = clock ** (2.0 / 1.5) * one_sided_stable(0.75, m, g)
        dx = np.sqrt(2.0 * s)[:, None] * g.standard_normal((m, 2))
        for i, k in enumerate(alive):
            x[k] = x[k] + dx[i]
        want |= np.linalg.norm(x - x0, axis=1) > r
    assert 0 < want.sum() < n
    assert np.array_equal(got, want)
    # survival_prob_ball draws from a fresh generator of its stream
    est = survival_prob_ball(model, x0, r, t, n, rng, n_steps=n_steps)
    assert est.value == want.sum() / n

# ------------------------------------------------------------------ #
# unified exit sampling
# ------------------------------------------------------------------ #

def test_sample_exits_dispatch(rng):
    D = Ball([0.0], 1.0)
    b = sample_exits(IsotropicStable(1.0, 1), D, [0.0], 100, rng.substream(0))
    assert b.n == 100 and not b.stalled.any()
    b2 = sample_exits(_unit_chain(h=2.0 ** -4), D, [0.0], 100,
                      rng.substream(1))
    assert b2.n == 100
    with pytest.raises(CapabilityError):
        sample_exits(SdeStable(1.0, 1), D, [0.0], 10, rng.substream(2))
    with pytest.raises(CapabilityError):
        sample_exits(GeometricStable(1.0, 1), D, [0.0], 10, rng.substream(3))


def test_model_validation():
    with pytest.raises(ConfigError):
        IsotropicStable(2.0, 1)
    with pytest.raises(ConfigError):
        IsotropicStable(1.0, 0)
    with pytest.raises(ConfigError):
        GeometricStable(0.0, 1)
    # the three stable models share one check of alpha and the dimension
    for model in (IsotropicStable, SdeStable, GeometricStable):
        with pytest.raises(ConfigError, match="dimension"):
            model(1.5, 0)


@pytest.mark.parametrize("d, alpha", [(1, 1.0), (2, 1.5), (3, 0.7)])
def test_stable_model_kernel_is_the_process_kernel(d, alpha):
    # Ikeda-Watanabe: from the center of the unit ball the exit point Y
    # has P(|Y| > R) = E[tau] J(0, B(0, R)^c) up to relative O(R^-2), so
    # the models' kernel must be the one of the walked process
    R = 100.0
    exact = ball_exit_tail_prob(alpha, d, R)
    for model in (IsotropicStable(alpha, d), SdeStable(alpha, d)):
        tail = tail_mass(model.kernel, np.zeros(d), R)
        assert tail * mean_exit_constant(d, alpha) == \
            pytest.approx(exact, rel=1e-3)


def test_poisson_kernel_constant_known_value():
    # d = 1, alpha = 1: C = 1/pi
    assert poisson_kernel_constant(1, 1.0) == pytest.approx(1.0 / np.pi)
    # mean-exit constant: C_E(1, 1) = 1, so E_0[tau_(-1,1)] = 1
    assert mean_exit_constant(1, 1.0) == pytest.approx(1.0)
