"""End-to-end acceptance suite: oracle equivalence and stability checks.

Each test exercises one headline capability at desk scale with frozen
quadrature oracles and explicit statistical tolerances.
"""

import json

import numpy as np
import pytest
from scipy import stats

from conftest import cauchy_interval_exit_probs, four_bin_tv

from bhplab.bhp import (bhp_scan_series, chain_decay, factorization_check,
                        far_field_indicator)
from bhplab.cli import EXIT_OK, main as cli_main
from bhplab.domains import Ball, HalfSpace, SlitPlane
from bhplab.exitstats import escalate, mean_exit_time
from bhplab.kernel import (check_jt, check_phi, isotropic_stable_kernel,
                           tail_mass, tempered_stable_kernel)
from bhplab.rng import RngStream
from bhplab.sampler import (IsotropicStable, SdeStable, StableLikeChain,
                            sample_exits, survival_prob_ball)
from bhplab.scale import ScaleFunction


SEED = 20260823


# ------------------------------------------------------------------ #
# 1. exact exit law of the unit interval (Cauchy case)
# ------------------------------------------------------------------ #

def test_exact_cauchy_exit_law_two_targets():
    oracle = cauchy_interval_exit_probs()
    p_far = 2.0 * oracle["(2,inf)"]       # P(|Y| > 2)
    p_right = oracle["(1,2]"] + oracle["(2,inf)"]
    # frozen closed forms: 1/3 and 1/2
    assert p_far == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert p_right == pytest.approx(1.0 / 2.0, abs=1e-9)

    n = 1_000_000
    batch = sample_exits(IsotropicStable(1.0, 1), Ball([0.0], 1.0), [0.0],
                         n, RngStream(SEED, 1), rho=1.0)
    y = batch.y[:, 0]
    se_far = np.sqrt(p_far * (1 - p_far) / n)
    se_right = np.sqrt(p_right * (1 - p_right) / n)
    assert abs((np.abs(y) > 2.0).mean() - 1.0 / 3.0) < 3.0 * se_far
    assert abs((y > 1.0).mean() - 1.0 / 2.0) < 3.0 * se_right


# ------------------------------------------------------------------ #
# 2. mean exit time closed form and its scaling fit
# ------------------------------------------------------------------ #

def test_mean_exit_time_closed_form_and_power_fit():
    model = IsotropicStable(1.0, 1)
    est = mean_exit_time(model, Ball([0.0], 1.0), [0.0], 300_000,
                         RngStream(SEED, 2), rho=0.7)
    assert abs(est.value - 1.0) < 0.01

    radii = [0.5, 1.0, 2.0]
    values = [mean_exit_time(model, Ball([0.0], r), [0.0], 100_000,
                             RngStream(SEED, 3 + i), rho=0.7).value
              for i, r in enumerate(radii)]
    # fit c * r^alpha with alpha = 1 known: c is the mean slope
    c = float(np.mean([v / r for v, r in zip(values, radii)]))
    residuals = [abs(v - c * r) / (c * r) for v, r in zip(values, radii)]
    assert max(residuals) < 0.03


# ------------------------------------------------------------------ #
# 3. tail-mass identity for the power kernel
# ------------------------------------------------------------------ #

def test_tail_mass_identity_four_decades():
    J = isotropic_stable_kernel(1, 1.0)
    for r in np.logspace(-2, 2, 17):
        tm = tail_mass(J, [0.0], float(r))
        assert abs(tm * float(r) - 2.0) < 1e-5


# ------------------------------------------------------------------ #
# 4. exit-probability upper bound and scaling collapse
# ------------------------------------------------------------------ #

def test_exit_probability_bound_and_scaling_collapse():
    alpha = 1.0
    model = SdeStable(alpha, 1)
    phi = ScaleFunction.power(alpha)
    n = 20_000
    c_hats = []
    k = 0
    for r in (0.25, 1.0, 4.0):
        for f in (1e-3, 1e-2, 1e-1):
            t = f * float(phi(r))
            est = survival_prob_ball(model, [0.0], r, t, n,
                                     RngStream(SEED, 100 + k), n_steps=64)
            k += 1
            c_hats.append(est.value * float(phi(r)) / t)
    # bounded above by one constant across the whole (r, t) table
    assert max(c_hats) < 5.0
    assert min(c_hats) > 0.0

    # scaling collapse: (r=2, t=2) and (r=1, t=1) see identical laws
    e1 = survival_prob_ball(model, [0.0], 1.0, 1.0, 30_000,
                            RngStream(SEED, 150), n_steps=64)
    e2 = survival_prob_ball(model, [0.0], 2.0, 2.0, 30_000,
                            RngStream(SEED, 151), n_steps=64)
    joint = float(np.hypot(e1.stderr, e2.stderr))
    assert abs(e1.value - e2.value) < 3.0 * joint


# ------------------------------------------------------------------ #
# 5. lattice chain agrees with the exact law on the 4-bin partition
# ------------------------------------------------------------------ #

def test_chain_matches_exact_exit_law_in_total_variation():
    chain = StableLikeChain(isotropic_stable_kernel(1, 1.0), h=2.0 ** -8,
                            r_cut=8.0, lattice_offset=0.5)
    n = 100_000
    batch = sample_exits(chain, Ball([0.0], 1.0), [0.0], n,
                         RngStream(SEED, 5))
    tv = four_bin_tv(batch.y[:, 0], cauchy_interval_exit_probs())
    assert tv < 0.02


# ------------------------------------------------------------------ #
# 6. walk-on-balls exit law does not depend on the ball factor
# ------------------------------------------------------------------ #

def test_walk_exit_law_invariant_under_ball_factor():
    model = IsotropicStable(1.0, 1)
    D = Ball([0.0], 1.0)
    n = 100_000
    a = sample_exits(model, D, [0.0], n, RngStream(SEED, 6), rho=1.0)
    b = sample_exits(model, D, [0.0], n, RngStream(SEED, 7), rho=0.5)
    ks = stats.ks_2samp(a.y[:, 0], b.y[:, 0])
    assert ks.pvalue > 0.01


# ------------------------------------------------------------------ #
# 7. boundary-ratio stability on the slit plane and the half-space
# ------------------------------------------------------------------ #

def _split_pair(xi, r, axis):
    g1 = far_field_indicator(xi, 2.0 * r, lambda y: y[:, axis] > xi[axis])
    g2 = far_field_indicator(xi, 2.0 * r, lambda y: y[:, axis] < xi[axis])
    return g1, g2


def test_bhp_ratio_series_slit_plane():
    model = IsotropicStable(1.5, 2)
    xi = np.array([0.0, 0.0])      # the slit tip
    series = bhp_scan_series(
        model, SlitPlane(), xi, [0.4, 0.2, 0.1, 0.05], 1.0,
        lambda r: _split_pair(xi, r, 1), grid_size=12, n=4096,
        rng=RngStream(SEED, 8), cap=400_000)
    for rep in series["reports"]:
        assert int(rep.powered.sum()) >= 12
    assert series["series_spread"] < 2.0


def test_bhp_ratio_series_half_space_cross_check():
    model = IsotropicStable(1.5, 2)
    xi = np.array([0.0, 0.0])
    D = HalfSpace([0.0, 1.0], 0.0)
    series = bhp_scan_series(
        model, D, xi, [0.4, 0.2], 1.0,
        lambda r: _split_pair(xi, r, 0), grid_size=8, n=4096,
        rng=RngStream(SEED, 9), cap=400_000)
    # the half-space is dilation-invariant about xi: with congruent grids
    # the series collapses up to Monte Carlo noise
    assert series["series_spread"] < 2.0
    for rep in series["reports"]:
        assert rep.c_hat >= 1.0


# ------------------------------------------------------------------ #
# 8. approximate factorization band
# ------------------------------------------------------------------ #

def test_factorization_band_half_space():
    model = IsotropicStable(1.5, 2)
    xi = np.array([0.0, 0.0])
    D = HalfSpace([0.0, 1.0], 0.0)
    bands = []
    for k, r in enumerate((0.25, 0.5)):
        g = far_field_indicator(xi, 2.0 * r, lambda y: y[:, 0] > 0.0)
        rep = factorization_check(model, D, xi, r, c1=0.5, c2=1.5,
                                  c3=2.0 / 3.0, g=g, grid_size=6, n=4096,
                                  rng=RngStream(SEED, 10 + k), cap=200_000)
        assert rep["band_ratio"] < 10.0
        bands.append(rep["band_ratio"])
    assert abs(bands[1] / bands[0] - 1.0) < 0.5


# ------------------------------------------------------------------ #
# 9. exit-probability/exit-time ratio band on the half-space
# ------------------------------------------------------------------ #

def test_exit_ratio_band_half_space():
    alpha = 1.5
    model = IsotropicStable(alpha, 2)
    phi = ScaleFunction.power(alpha)
    D = HalfSpace([1.0, 0.0], 0.0)     # {x1 > 0}, interior normal e1
    xi = np.array([0.0, 0.0])
    ratios = []
    for k, r in enumerate((0.4, 0.2, 0.1, 0.05)):
        x = xi + np.array([r / 2.0, 0.0])
        # P_x(tau_D > tau_{B_D(xi, r)}): exits of D & B(xi, r) still in D
        (p,), = escalate(model, D.truncate(xi, r), [x],
                         [lambda b: D.contains(b.y)], [RngStream(SEED, 20 + k)],
                         40_000, 40_000)
        met = mean_exit_time(model, D.truncate(xi, r), x, 40_000,
                             RngStream(SEED, 40 + k))
        ratios.append(p.value * float(phi(r)) / met.value)
    assert max(ratios) / min(ratios) < 2.0


# ------------------------------------------------------------------ #
# 10. geometric decay of the iterated-ball chain on the slit plane
# ------------------------------------------------------------------ #

def test_chain_decay_rate_below_one_slit_plane():
    model = IsotropicStable(1.0, 2)
    out = chain_decay(model, SlitPlane(), [0.0, 0.0], 0.5, [0.0, 0.25],
                      20_000, RngStream(SEED, 30), m_max=8)
    assert len(out["survival"]) == 8
    assert out["fit"] is not None
    assert out["fit"]["rate_upper95"] < 1.0


# ------------------------------------------------------------------ #
# 11. byte-identical reports for a fixed (config, seed) pair
# ------------------------------------------------------------------ #

def test_reports_are_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"type": "isotropic-stable", "alpha": 1.0, "dim": 1},
        "domain": {"type": "ball", "center": [0.0], "radius": 1.0},
        "n": 10_000, "seed": SEED, "rho": 0.7,
        "targets": [{"name": "far", "kind": "norm-gt", "center": [0.0],
                     "value": 2.0}],
    }))
    assert cli_main(["exit-stats", "--config", str(cfg_path),
                     "--out", str(tmp_path / "a")]) == EXIT_OK
    assert cli_main(["exit-stats", "--config", str(cfg_path),
                     "--out", str(tmp_path / "b")]) == EXIT_OK
    a = (tmp_path / "a" / "exit-stats.json").read_bytes()
    b = (tmp_path / "b" / "exit-stats.json").read_bytes()
    assert a == b


# ------------------------------------------------------------------ #
# 12. condition checkers are sensitive to known failures
# ------------------------------------------------------------------ #

def test_condition_checkers_flag_known_cases():
    rng = RngStream(SEED, 12)
    tempered = tempered_stable_kernel(1, 1.0, lam=1.0, beta_t=1.0)
    small = check_jt(tempered, np.logspace(-3, 0, 13),
                     rng=rng.substream(0))
    assert small.verdict == "holds-numerically"
    big = check_jt(tempered, np.logspace(-3, 3, 25),
                   rng=rng.substream(1))
    assert big.verdict == "violated"

    geo = check_phi(ScaleFunction.geometric_stable(1.0),
                    np.logspace(-12, 2, 57))
    assert geo.verdict == "violated"
    assert geo.witness["ratio"] < 1.05
