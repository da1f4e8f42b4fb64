import math
import os
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import ball_exit_prob_interval

from bhplab import exitstats, sampler
from bhplab.cli import encode
from bhplab.domains import Ball, HalfSpace, SegmentComplement
from bhplab.errors import DomainError, EstimationError
from bhplab.exitstats import (Estimate, escalate, gather_exits,
                              harmonic_measure, mean_exit_time, split_n)
from bhplab.rng import RngStream
from bhplab.sampler import IsotropicStable, sample_exits


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


# t_{df}(0.975) to 20 significant digits, from mpmath 1.3.0 (betainc
# solved for the upper tail 0.025 at 50 digits)
T_QUANTILE_975 = {
    1: "12.706204736174704646", 2: "4.3026527297494638523",
    3: "3.1824463052837095927", 4: "2.7764451051977943578",
    5: "2.5705818356363155147", 7: "2.3646242515927853417",
    10: "2.2281388519862747484", 30: "2.0422724563012383100",
    100: "1.9839715185235522866", 1000: "1.9623390808264084850",
    2047: "1.9611235598633852350", 4095: "1.9605434621072307572",
    8191: "1.9602536458578112345", 14999: "1.9601221590464066282",
    10 ** 5: "1.9599877075346096386", 10 ** 7: "1.9599642217672054904",
    3 * 10 ** 7: "1.9599640636157650483",
}


@pytest.mark.parametrize("df", sorted(T_QUANTILE_975))
def test_t_quantile_within_4_ulp_of_exact(df):
    # every branch: closed forms (1, 2), tail series (3-19), tail
    # expansion (20-4999) and A&S 26.7.5 (from 5000); scipy's stdtrit is
    # up to 6 ulp off at these df
    t = exitstats.t_quantile_975(df)
    err = abs(Decimal(t) - Decimal(T_QUANTILE_975[df]))
    assert err <= 4 * Decimal(math.ulp(t)), (df, err / Decimal(math.ulp(t)))


def test_t_quantile_matches_scipy_stdtrit():
    log_grid = np.unique(np.geomspace(5000, 3e7, 1000).astype(int))
    dfs = np.array([*range(1, 5001), *log_grid.tolist()])
    ours = np.array([exitstats.t_quantile_975(int(df)) for df in dfs])
    np.testing.assert_allclose(ours, special.stdtrit(dfs, 0.975),
                               rtol=1e-14, atol=0)


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
# RNG parts and determinism
# ------------------------------------------------------------------ #

def test_split_n_partitions_exactly():
    assert sum(split_n(10, 3)) == 10
    assert split_n(10, 3) == [4, 3, 3]
    assert split_n(2, 5) == [1, 1]
    with pytest.raises(DomainError):
        split_n(10, 0)


def test_estimates_independent_of_part_size_up_to_noise(monkeypatch):
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    A = lambda y: np.abs(y[:, 0]) > 2.0
    e1 = harmonic_measure(model, D, [0.0], A, 20_000, RngStream(1))
    monkeypatch.setattr(exitstats, "PART_PATHS", 1000)
    e20 = harmonic_measure(model, D, [0.0], A, 20_000, RngStream(1))
    joint = np.hypot(e1.stderr, e20.stderr)
    assert abs(e1.value - e20.value) < 3.5 * joint


def test_estimates_reproducible_bitwise(monkeypatch):
    monkeypatch.setattr(exitstats, "PART_PATHS", 2000)   # three parts
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    a = mean_exit_time(model, D, [0.0], 5000, RngStream(4, 2))
    b = mean_exit_time(model, D, [0.0], 5000, RngStream(4, 2))
    assert a.value == b.value and a.stderr == b.stderr


def test_walks_hold_three_parts_of_exits_but_move_one_of_walkers(
        monkeypatch):
    # n is split into parts of at most PART_PATHS paths; one walk holds
    # the exits of up to 3 * PART_PATHS paths, but no ball-exit draw moves
    # more than PART_PATHS walkers, however large n is
    walks, draws = [], []
    ball_exits = sampler.ball_exit_centered

    def counting_sample_exits(model, D, x, n, rng, **kwargs):
        walks.append(int(np.sum(n)))
        return sample_exits(model, D, x, n, rng, **kwargs)

    def counting_ball_exits(alpha, d, n, g):
        draws.append(sum(n))
        return ball_exits(alpha, d, n, g)

    monkeypatch.setattr(exitstats, "sample_exits", counting_sample_exits)
    monkeypatch.setattr(sampler, "ball_exit_centered", counting_ball_exits)
    n = 3 * 2 ** 14 + 5
    est = mean_exit_time(IsotropicStable(1.0, 1), Ball([0.0], 1.0), [0.3], n,
                         RngStream(9))
    assert est.n == sum(walks) == n
    assert walks == [12290 + 2 * 12289, 12289]      # parts of split_n(n, 4)
    assert max(walks) <= 3 * exitstats.PART_PATHS
    assert max(draws) <= exitstats.PART_PATHS


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB "
                    "on Linux only")
def test_mean_exit_time_memory_is_flat_in_n(tmp_path):
    # each walk's exits are summed as it returns, so a 64x larger round
    # holds no more paths at once; so too for exit-stats, whose mean exit
    # time and two targets walk as points of one call; each run is a
    # fresh interpreter
    met = ("mean_exit_time(IsotropicStable(1.0, 1), Ball([0.0], 1.0), "
           "[0.3], n, RngStream(1))")
    cfg = {"model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 1},
           "domain": {"type": "ball", "center": [0.0], "radius": 1.0},
           "x": [0.3], "seed": 1,
           "targets": [{"name": "left", "kind": "coordinate-lt", "axis": 0,
                        "value": 0.0},
                       {"name": "far", "kind": "norm-gt", "value": 2.0}]}
    stats = (f"c = {cfg!r}; c['n'] = n; p = {str(tmp_path)!r}; "
             "json.dump(c, open(p + '/c.json', 'w')); "
             "assert main(['exit-stats', '--config', p + '/c.json', "
             "'--out', p]) == 0")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for call in (met, stats):
        run = ("import json, resource, sys; from bhplab import *; "
               "from bhplab.cli import main; n = int(sys.argv[1]); "
               f"{call}; "
               "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        kb = [int(subprocess.run([sys.executable, "-c", run, str(n)],
                                 env=env, capture_output=True, text=True,
                                 check=True, timeout=300).stdout.split()[-1])
              for n in (2 ** 14, 2 ** 20)]
        assert kb[1] - kb[0] < 16 * 1024, call


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
    # (x, target (lo, hi), stream, ball factor); the second target is
    # bounded: (2, 3) seen from the center of (-1, 1)
    for x, (lo, hi), rng, rho in [
            (0.3, (2.0, np.inf), RngStream(12), 1.0),
            (0.0, (2.0, 3.0), RngStream(6).substream(0), 0.7)]:
        est = harmonic_measure(model, D, [x],
                               lambda y: (y[:, 0] > lo) & (y[:, 0] < hi),
                               40_000, rng, rho=rho)
        p = ball_exit_prob_interval(1.0, x, lo, hi)
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


def _exit_before_subdomain(model, D, xi, r, x, n, rng):
    """P_x(tau_D > tau_{B_D(xi, r)}): exits of D & B(xi, r) still in D."""
    (est,), = escalate(model, D.truncate(xi, r), [x],
                       [lambda b: D.contains(b.y)], [rng], n, n)
    return est


def test_exit_before_subdomain_monotone_in_radius():
    # a larger truncating ball is harder to leave before D
    model = IsotropicStable(1.0, 2)
    D = HalfSpace([0.0, 1.0], 0.0)
    xi = [0.0, 0.0]
    x = [0.0, 0.05]
    small = _exit_before_subdomain(model, D, xi, 0.2, x, 8000, RngStream(5))
    large = _exit_before_subdomain(model, D, xi, 2.0, x, 8000, RngStream(5))
    assert 0.0 <= large.value <= small.value <= 1.0


def test_exit_before_subdomain_validates_start():
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 4.0)
    with pytest.raises(DomainError):
        _exit_before_subdomain(model, D, [0.0], 0.5, [1.0], 100,
                               RngStream(0))


# ------------------------------------------------------------------ #
# stall policy and escalation
# ------------------------------------------------------------------ #

def test_gather_exits_stall_policy_fails_hard(monkeypatch):
    monkeypatch.setattr(sampler, "MAX_STEPS", 1)
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    with pytest.raises(EstimationError):
        # one step almost never exits with a tiny ball factor
        gather_exits(model, D, [[0.0]], [200], [RngStream(1)],
                     [[lambda b: b.w]], rho=0.001)


def test_escape_to_infinity_counts_as_a_stall():
    # from beside one segment of the plane the alpha = 1.5 walk escapes to
    # infinity about half the time; those paths have no exit point
    D = SegmentComplement((((0.0, 0.0), (1.0, 0.0)),))
    with pytest.raises(EstimationError, match="escaped to infinity"):
        mean_exit_time(IsotropicStable(1.5, 2), D, [0.5, 0.5], 2000,
                       RngStream(1))


def test_gather_exits_clean_batch_has_no_stalls():
    model = IsotropicStable(1.0, 1)
    tally, warnings = gather_exits(model, Ball([0.0], 1.0), [[0.0]], [500],
                                   [RngStream(2)], [[lambda b: b.stalled]])
    assert np.array_equal(tally.sums, [[0.0]]) and tally.binary == [[True]]
    assert tally.n == 500 and tally.counts == [500] and warnings == [[]]


def test_escalate_reaches_target():
    # two functionals over common exits: the mean exit time of (-1, 1)
    # from 0 (exactly 1) and the probability of exiting to the right
    model = IsotropicStable(1.0, 1)
    ests, = escalate(model, Ball([0.0], 1.0), [[0.0]],
                     [lambda b: b.w, lambda b: b.y[:, 0] > 0.0],
                     [RngStream(9)], n0=128)
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
                       n0=64, cap=256)
    assert est.underpowered
    assert est.n == 256          # rounds of 64, 64 and 128 paths


def test_escalate_fixed_n_with_stalls_is_one_round(monkeypatch):
    # a stub walks only n - k of every n > k paths, as if k had stalled:
    # a fixed-n call (cap = n0 = n) draws once and keeps n - k
    gather = exitstats.gather_exits
    calls = []

    def stalling_gather(model, D, points, ns, *args, **kwargs):
        calls.append(list(ns))
        n, = ns
        if n <= k:
            return gather(model, D, points, ns, *args, **kwargs)
        tally, warnings = gather(model, D, points, [n - k], *args, **kwargs)
        return tally, [warnings[0] + [f"stall rate {k / n:.3%} (stub)"]]

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


def test_gather_exits_equals_separate_part_walks(monkeypatch):
    # part i of point j walks on rngs[j].substream(i), exactly as a
    # sample_exits call of its own; each part's non-stalled exits are
    # summed into its point's row in part order
    monkeypatch.setattr(exitstats, "PART_PATHS", 100)
    monkeypatch.setattr(sampler, "MAX_STEPS", 20)
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    points, ns = [[0.5], [-0.2], [0.0]], [301, 20, 150]
    fs = [lambda b: b.w, lambda b: b.y[:, 0] > 0.0, lambda b: b.steps]
    # a seed at which each point stalls a path or two in 20 steps of
    # half-clearance balls
    rngs = [RngStream(13).substream(j) for j in range(len(points))]
    tally, warnings = gather_exits(model, D, points, ns, rngs, [fs] * 3,
                                   rho=0.5)
    sums, sumsq, counts = np.zeros((3, 3)), np.zeros((3, 3)), [0, 0, 0]
    for j, (x, n, rng) in enumerate(zip(points, ns, rngs)):
        for i, size in enumerate(split_n(n, -(-n // 100))):
            part = sample_exits(model, D, x, size, rng.substream(i), rho=0.5)
            kept = part.take(~part.stalled)
            counts[j] += kept.n
            v = np.array([f(kept) for f in fs], dtype=float)
            sums[j] += v.sum(axis=1)
            sumsq[j] += (v * v).sum(axis=1)
    assert np.array_equal(tally.sums, sums)
    assert np.array_equal(tally.sumsq, sumsq)
    assert tally.counts == counts and tally.n == sum(counts) < sum(ns)
    assert tally.binary == [[False, True, False]] * 3
    assert all(len(w) == 1 for w in warnings)   # every point stalled a path


def _escalate_points(points, rngs):
    model = IsotropicStable(1.0, 1)
    return escalate(model, Ball([0.0], 1.0), points,
                    [lambda b: b.w, lambda b: b.y[:, 0] > 0.0], rngs,
                    n0=64, cap=4096)


def test_escalate_many_points_equals_one_point_calls(monkeypatch):
    # the nearer a start is to -1, the rarer a right exit and the more
    # rounds it takes: points stop at different rounds, yet each equals
    # its own one-point call; later rounds walk in several parts
    monkeypatch.setattr(exitstats, "PART_PATHS", 100)
    monkeypatch.setattr(exitstats, "TARGET_REL_STDERR", 0.04)
    points = [[0.6], [0.0], [-0.6], [-0.9]]
    rngs = [RngStream(5).substream(j) for j in range(len(points))]
    got = _escalate_points(points, rngs)
    assert len({ests[0].n for ests in got}) >= 3
    for p, r, ests in zip(points, rngs, got):
        assert ests == _escalate_points([p], [r])[0]
    # so too with functionals and a method of each point's own
    model = IsotropicStable(1.0, 1)
    fs = [[lambda b: b.w], [lambda b: b.y[:, 0] > 0.0],
          [lambda b: b.y[:, 0] > 0.0, lambda b: b.w], [lambda b: b.steps]]
    methods = ["m0", "m1", "m2", "m3"]
    got = escalate(model, Ball([0.0], 1.0), points, fs, rngs, n0=64,
                   cap=4096, method=methods)
    for p, f, method, r, ests in zip(points, fs, methods, rngs, got):
        assert [e.method for e in ests] == [method] * len(f)
        assert ests == escalate(model, Ball([0.0], 1.0), [p], f, [r], n0=64,
                                cap=4096, method=method)[0]


def test_fixed_n_estimators_flag_imprecise_estimates():
    # fixed-n estimates report whether they reach the 2% target
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    rare = harmonic_measure(model, D, [0.0], lambda y: y[:, 0] > 100.0,
                            500, RngStream(2))
    met = mean_exit_time(model, D, [0.0], 20_000, RngStream(2))
    assert rare.underpowered and rare.n == 500
    assert met.rel_stderr < 0.02 and not met.underpowered
