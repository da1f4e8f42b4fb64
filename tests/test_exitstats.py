import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ball_exit_prob_interval

from bhplab import exitstats
from bhplab.cli import encode
from bhplab.domains import Ball, HalfSpace, Intersection
from bhplab.errors import DomainError, EstimationError
from bhplab.exitstats import (Estimate, escalate, exit_before_subdomain,
                              gather_exits, harmonic_measure, lemma24_bounds,
                              mean_exit_time, set_distance, split_n)
from bhplab.rng import RngStream
from bhplab.sampler import BatchExit, IsotropicStable, sample_exits
from bhplab.scale import ScaleFunction


# ------------------------------------------------------------------ #
# Estimate invariants
# ------------------------------------------------------------------ #

@given(st.integers(0, 500), st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_binomial_estimate_invariants(k, n):
    if k > n:
        return
    e = Estimate.binomial(k, n)
    lo, hi = e.ci95
    assert 0.0 <= lo <= e.value <= hi <= 1.0
    assert e.stderr >= 0.0
    assert e.n == n


def test_binomial_estimate_validation():
    with pytest.raises(EstimationError):
        Estimate.binomial(5, 4)
    with pytest.raises(EstimationError):
        Estimate.binomial(0, 0)


def test_from_samples_matches_t_interval():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    e = Estimate.from_moments(vals.sum(), (vals * vals).sum(), vals.size)
    assert e.value == pytest.approx(2.5)
    assert e.stderr == pytest.approx(vals.std(ddof=1) / 2.0)
    lo, hi = e.ci95
    assert lo < 2.5 < hi
    assert e.n == 4


def test_single_sample_estimate_degenerates():
    e = Estimate.from_moments(3.0, 9.0, 1)
    assert e.value == 3.0 and e.stderr == 0.0 and e.ci95 == (3.0, 3.0)


def test_estimate_serialization():
    d = encode(Estimate.binomial(3, 10))
    assert set(d) == {"value", "stderr", "n", "ci95", "method", "warnings",
                      "underpowered"}


def test_rel_stderr_of_zero_value_is_infinite():
    e = Estimate.binomial(0, 100)
    assert e.rel_stderr == np.inf


# ------------------------------------------------------------------ #
# worker splitting and determinism
# ------------------------------------------------------------------ #

def test_split_n_partitions_exactly():
    assert sum(split_n(10, 3)) == 10
    assert split_n(10, 3) == [4, 3, 3]
    assert split_n(2, 5) == [1, 1]
    with pytest.raises(DomainError):
        split_n(10, 0)


def test_estimates_independent_of_worker_count_up_to_noise():
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    A = lambda y: np.abs(y[:, 0]) > 2.0
    e1 = harmonic_measure(model, D, [0.0], A, 20_000, RngStream(1), workers=1)
    e4 = harmonic_measure(model, D, [0.0], A, 20_000, RngStream(1), workers=4)
    joint = np.hypot(e1.stderr, e4.stderr)
    assert abs(e1.value - e4.value) < 3.5 * joint


def test_estimates_reproducible_bitwise():
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    a = mean_exit_time(model, D, [0.0], 5000, RngStream(4, 2), workers=3)
    b = mean_exit_time(model, D, [0.0], 5000, RngStream(4, 2), workers=3)
    assert a.value == b.value and a.stderr == b.stderr


# ------------------------------------------------------------------ #
# harmonic measure and exit times against closed forms
# ------------------------------------------------------------------ #

def test_harmonic_measure_partition_sums_to_one():
    model = IsotropicStable(1.2, 1)
    D = Ball([0.0], 1.0)
    n = 10_000
    bins = [lambda y: (y[:, 0] > 1.0) & (y[:, 0] <= 2.0),
            lambda y: y[:, 0] > 2.0,
            lambda y: (y[:, 0] < -1.0) & (y[:, 0] >= -2.0),
            lambda y: y[:, 0] < -2.0]
    total = sum(harmonic_measure(model, D, [0.0], A, n, RngStream(8)).value
                for A in bins)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_harmonic_measure_matches_quadrature():
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    est = harmonic_measure(model, D, [0.3], lambda y: y[:, 0] > 2.0,
                           40_000, RngStream(12))
    p = ball_exit_prob_interval(1.0, 0.3, 2.0, np.inf)
    assert abs(est.value - p) < 3.5 * est.stderr


def test_mean_exit_time_scaling_in_radius():
    # E_0[tau_{B(0,r)}] = C_E r^alpha: the ratio across radii is r^alpha
    model = IsotropicStable(1.5, 1)
    n = 20_000
    e1 = mean_exit_time(model, Ball([0.0], 1.0), [0.0], n, RngStream(3),
                        rho=0.7)
    e2 = mean_exit_time(model, Ball([0.0], 2.0), [0.0], n, RngStream(4),
                        rho=0.7)
    ratio = e2.value / e1.value
    se = ratio * np.hypot(e1.rel_stderr, e2.rel_stderr)
    assert abs(ratio - 2.0 ** 1.5) < 3.5 * se


def test_exit_before_subdomain_monotone_in_radius():
    # a larger truncating ball is harder to leave before D
    model = IsotropicStable(1.0, 2)
    D = HalfSpace([0.0, 1.0], 0.0)
    xi = [0.0, 0.0]
    x = [0.0, 0.05]
    small = exit_before_subdomain(model, D, xi, 0.2, x, 8000, RngStream(5))
    large = exit_before_subdomain(model, D, xi, 2.0, x, 8000, RngStream(5))
    assert 0.0 <= large.value <= small.value <= 1.0


def test_exit_before_subdomain_validates_start():
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 4.0)
    with pytest.raises(DomainError):
        exit_before_subdomain(model, D, [0.0], 0.5, [1.0], 100, RngStream(0))


# ------------------------------------------------------------------ #
# set distances and the exit-probability comparison
# ------------------------------------------------------------------ #

def test_set_distance_exact_for_balls():
    assert set_distance(Ball([0.0], 1.0), Ball([2.5], 0.5)) == pytest.approx(1.0)
    assert set_distance(Ball([0.0], 1.0), Ball([1.5], 1.0)) == 0.0


def test_lemma24_comparison_unit_interval():
    # U = (-1,1), W = (2,3): the implied constant is the quadrature
    # probability itself since E_0[tau] = phi(d(U,W)) = 1
    model = IsotropicStable(1.0, 1)
    U = Ball([0.0], 1.0)
    W = Ball([2.5], 0.5)
    out = lemma24_bounds(model, U, W, [0.0], 40_000, RngStream(6),
                         phi=ScaleFunction.power(1.0), rho=0.7)
    assert out["dist"] == pytest.approx(1.0)
    p = ball_exit_prob_interval(1.0, 0.0, 2.0, 3.0)
    assert abs(out["lhs"].value - p) < 3.5 * out["lhs"].stderr
    assert out["rhs"] == pytest.approx(out["mean_exit_time"].value)
    assert out["implied_constant"] < 1.0    # the comparison holds with C < 1


def test_lemma24_constant_stable_as_w_recedes():
    # for far-away self-similar targets W = (c - c/3, c + c/3) the implied
    # constant approaches 1/(2 pi) from below with O(1/c) corrections;
    # check it stays bounded and within 25% of the limit at the far end
    model = IsotropicStable(1.0, 1)
    U = Ball([0.0], 1.0)
    phi = ScaleFunction.power(1.0)
    consts = []
    for c, w in [(6.0, 2.0), (12.0, 4.0), (24.0, 8.0)]:
        out = lemma24_bounds(model, U, Ball([c], w), [0.0], 60_000,
                             RngStream(int(c)), phi=phi, rho=0.7)
        consts.append(out["implied_constant"])
    limit = 1.0 / (2.0 * np.pi)
    assert consts == sorted(consts)          # monotone approach
    assert all(co < limit * 1.05 for co in consts)
    assert consts[-1] > limit * 0.75


def test_lemma24_rejects_touching_sets():
    model = IsotropicStable(1.0, 1)
    with pytest.raises(DomainError):
        lemma24_bounds(model, Ball([0.0], 1.0), Ball([1.5], 1.0), [0.0],
                       100, RngStream(0), phi=ScaleFunction.power(1.0))


def test_set_distance_uses_anchors_for_composites():
    U = Intersection([Ball([0.0, 0.0], 1.0),
                      HalfSpace([0.0, 1.0], -2.0)])
    W = Ball([5.0, 0.0], 1.0)
    d = set_distance(U, W)
    assert d > 0


# ------------------------------------------------------------------ #
# stall policy and escalation
# ------------------------------------------------------------------ #

def test_gather_exits_stall_policy_fails_hard():
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    with pytest.raises(EstimationError):
        # one step almost never exits with a tiny ball factor
        gather_exits(model, D, [[0.0]], [200], [RngStream(1)], rho=0.001,
                     max_steps=1)


def test_gather_exits_clean_batch_has_no_stalls():
    model = IsotropicStable(1.0, 1)
    batch, counts, warnings = gather_exits(model, Ball([0.0], 1.0), [[0.0]],
                                           [500], [RngStream(2)])
    assert not batch.stalled.any()
    assert batch.n == 500 and counts == [500] and warnings == [[]]


def test_escalate_reaches_target():
    # two functionals over common exits: the mean exit time of (-1, 1)
    # from 0 (exactly 1) and the probability of exiting to the right
    model = IsotropicStable(1.0, 1)
    ests, = escalate(model, Ball([0.0], 1.0), [[0.0]],
                     [lambda b: b.w, lambda b: b.y[:, 0] > 0.0],
                     [RngStream(9)], n0=128, target=0.02)
    met, right = ests
    assert met.n == right.n
    rounds = met.n // 128
    assert met.n % 128 == 0 and rounds & (rounds - 1) == 0   # doubling
    for e in ests:
        assert e.rel_stderr < 0.02
        assert not e.underpowered and e.warnings == []
    assert abs(met.value - 1.0) < 4.0 * met.stderr


def test_escalate_marks_underpowered_at_cap():
    # P(|Y| > 100) is about 0.6%: hopeless at 2% precision with 256 paths
    model = IsotropicStable(1.0, 1)
    (est,), = escalate(model, Ball([0.0], 1.0), [[0.0]],
                       [lambda b: np.abs(b.y[:, 0]) > 100.0], [RngStream(1)],
                       n0=64, cap=256, target=0.02)
    assert est.underpowered
    assert est.n == 256          # rounds of 64, 64 and 128 paths


def test_escalate_fixed_n_with_stalls_is_one_round(monkeypatch):
    # a stub drops k paths of every batch larger than k as if they had
    # stalled: a fixed-n call (cap = n0 = n) draws once and keeps n - k
    gather = exitstats.gather_exits
    calls = []

    def stalling_gather(model, D, points, ns, *args, **kwargs):
        calls.append(list(ns))
        batch, counts, warnings = gather(model, D, points, ns, *args,
                                         **kwargs)
        n, = ns
        if n <= k:
            return batch, counts, warnings
        keep = slice(0, n - k)
        return (BatchExit(y=batch.y[keep], w=batch.w[keep],
                          steps=batch.steps[keep],
                          stalled=batch.stalled[keep]),
                [n - k], [warnings[0] + [f"stall rate {k / n:.3%} (stub)"]])

    monkeypatch.setattr(exitstats, "gather_exits", stalling_gather)
    n, k = 400, 3
    model = IsotropicStable(1.0, 1)
    (met, right), = escalate(model, Ball([0.0], 1.0), [[0.0]],
                             [lambda b: b.w, lambda b: b.y[:, 0] > 0.0],
                             [RngStream(3)], n0=n, cap=n)
    assert calls == [[n]]
    assert met.n == right.n == n - k
    assert met.warnings == right.warnings == ["stall rate 0.750% (stub)"]
    assert right.method == met.method
    assert 0.0 <= right.value <= 1.0


def test_gather_exits_equals_separate_part_walks():
    # part i of point j walks on rngs[j].substream(i), exactly as a
    # sample_exits call of its own; stalled paths are dropped per point
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    points, ns = [[0.5], [-0.2], [0.0]], [301, 20, 150]
    rngs = [RngStream(8).substream(j) for j in range(len(points))]
    batch, counts, warnings = gather_exits(model, D, points, ns, rngs,
                                           workers=2, max_steps=20)
    parts = [sample_exits(model, D, x, size, rng.substream(i), max_steps=20)
             for x, n, rng in zip(points, ns, rngs)
             for i, size in enumerate(split_n(n, 2))]
    full = BatchExit.concat(parts)
    ref = full.take(~full.stalled)
    for f in ("y", "w", "steps"):
        assert np.array_equal(getattr(batch, f), getattr(ref, f)), f
    ends = np.cumsum(ns)
    assert counts == [int((~full.stalled[e - n:e]).sum())
                      for n, e in zip(ns, ends)]
    assert sum(counts) < sum(ns)
    assert all(len(w) == 1 for w in warnings)   # every point stalled a path


def _escalate_points(points, rngs, workers=2):
    model = IsotropicStable(1.0, 1)
    return escalate(model, Ball([0.0], 1.0), points,
                    [lambda b: b.w, lambda b: b.y[:, 0] > 0.0], rngs,
                    n0=64, cap=4096, target=0.04, workers=workers)


def test_escalate_many_points_equals_one_point_calls():
    # the nearer a start is to -1, the rarer a right exit and the more
    # rounds it takes: points stop at different rounds, yet each equals
    # its own one-point call
    points = [[0.6], [0.0], [-0.6], [-0.9]]
    rngs = [RngStream(5).substream(j) for j in range(len(points))]
    got = _escalate_points(points, rngs)
    assert len({ests[0].n for ests in got}) >= 3
    for p, r, ests in zip(points, rngs, got):
        assert ests == _escalate_points([p], [r])[0]


def test_escalate_ignores_the_lockstep_budget(monkeypatch):
    points = [[0.6], [0.0], [-0.6], [-0.9]]
    rngs = [RngStream(6).substream(j) for j in range(len(points))]
    ref = _escalate_points(points, rngs)
    for budget in (1, 100, 10 ** 9):
        monkeypatch.setattr(exitstats, "LOCKSTEP_PATHS", budget)
        assert _escalate_points(points, rngs) == ref


def test_fixed_n_estimators_flag_imprecise_estimates():
    # fixed-n estimates report whether they reach the 2% target
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    rare = harmonic_measure(model, D, [0.0], lambda y: y[:, 0] > 100.0,
                            500, RngStream(2))
    met = mean_exit_time(model, D, [0.0], 20_000, RngStream(2))
    assert rare.underpowered and rare.n == 500
    assert met.rel_stderr < 0.02 and not met.underpowered
