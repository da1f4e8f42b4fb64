import numpy as np
import pytest

from bhplab.bhp import (SHELL_EPS, BhpReport, BoundaryData, bhp_scan,
                        bhp_scan_series, box_diagnostics, chain_decay,
                        eval_harmonic, factorization_check,
                        far_field_indicator, interior_grid)
from bhplab.domains import Ball, HalfSpace, SlitPlane
from bhplab.errors import ConfigError, DomainError
from bhplab import exitstats
from bhplab.cli import encode
from bhplab.exitstats import escalate, harmonic_measure
from bhplab.rng import RngStream
from bhplab.sampler import IsotropicStable, StableLikeChain, sample_exits
from bhplab.kernel import tempered_stable_kernel


HALF = HalfSpace([0.0, 1.0], 0.0)
XI = np.array([0.0, 0.0])


def _pair(r, split=0.0):
    """Far-field data split by the first coordinate at `split`."""
    g1 = far_field_indicator(XI, 2.0 * r, lambda y: y[:, 0] > split)
    g2 = far_field_indicator(XI, 2.0 * r, lambda y: y[:, 0] <= split)
    return g1, g2


# ------------------------------------------------------------------ #
# boundary data
# ------------------------------------------------------------------ #

def test_boundary_data_validation():
    g = far_field_indicator(XI, 1.0)
    g.validate(0.5)
    with pytest.raises(ConfigError):
        g.validate(0.6)    # support must start at >= 2r
    with pytest.raises(ConfigError):
        BoundaryData(fn=lambda y: np.ones(len(y)), support_radius=-1.0, xi=XI)


def test_boundary_data_rejects_support_violation():
    bad = BoundaryData(fn=lambda y: np.ones(len(y)), support_radius=1.0,
                       xi=XI)
    with pytest.raises(ConfigError):
        bad.validate(0.5)   # does not vanish near xi


# ------------------------------------------------------------------ #
# harmonic evaluation
# ------------------------------------------------------------------ #

def test_eval_harmonic_matches_harmonic_measure():
    model = IsotropicStable(1.0, 2)
    r = 0.5
    g = far_field_indicator(XI, 2.0 * r)
    x = [0.0, 0.25]
    (est,), = eval_harmonic(model, HALF, XI, r, (g,), [x], [RngStream(3)],
                            20_000, 20_000)
    # with indicator data, h(x) is the harmonic measure of the far field,
    # over the same walk: the truncation with its stopping shell at D
    U = HALF.truncate(XI, 2.0 * r, shell=SHELL_EPS * r)
    hm = harmonic_measure(model, U, x,
                          lambda y: np.linalg.norm(y - XI, axis=1) > 2.0 * r,
                          20_000, RngStream(3))
    assert est.value == pytest.approx(hm.value, abs=1e-12)


def test_eval_harmonic_is_linear_in_the_data():
    model = IsotropicStable(1.0, 2)
    r = 0.5
    g = far_field_indicator(XI, 2.0 * r)
    g10 = BoundaryData(fn=lambda y: 10.0 * g.fn(y), support_radius=2.0 * r,
                       xi=XI)
    (a, b), = eval_harmonic(model, HALF, XI, r, (g, g10), [[0.0, 0.25]],
                            [RngStream(7)], 5000, 5000)
    assert b.value == pytest.approx(10.0 * a.value, rel=1e-12)


def test_eval_harmonic_validates_the_point():
    model = IsotropicStable(1.0, 2)
    g = far_field_indicator(XI, 1.0)
    with pytest.raises(DomainError):
        eval_harmonic(model, HALF, XI, 0.5, (g,), [[0.0, -0.5]],
                      [RngStream(0)], 100, 100)
    with pytest.raises(DomainError):
        eval_harmonic(model, HALF, XI, 0.5, (g,), [[5.0, 0.25]],
                      [RngStream(0)], 100, 100)
    with pytest.raises(ConfigError):   # the data must vanish on B(xi, 2r)
        eval_harmonic(model, HALF, XI, 0.6, (g,), [[0.0, 0.25]],
                      [RngStream(0)], 100, 100)


# ------------------------------------------------------------------ #
# interior grids
# ------------------------------------------------------------------ #

def test_interior_grid_respects_floor_and_ball():
    D = SlitPlane()
    r = 0.4
    grid = interior_grid(D, XI, r, 32, r / 64.0, RngStream(5))
    assert grid.shape == (32, 2)
    assert np.all(np.linalg.norm(grid - XI, axis=1) <= r)
    assert np.all(D.dist_lb(grid) >= r / 64.0)


def test_interior_grid_fails_when_infeasible():
    D = Ball([0.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        # clearance floor larger than the ball radius
        interior_grid(D, [0.0, 0.0], 0.5, 8, 2.0, RngStream(1),
                      max_tries=10_000)
    with pytest.raises(ConfigError):
        interior_grid(D, [0.0, 0.0], 0.5, 0, 0.1, RngStream(1))


# ------------------------------------------------------------------ #
# ratio scans
# ------------------------------------------------------------------ #

def test_bhp_scan_identical_data_gives_unit_ratios():
    model = IsotropicStable(1.0, 2)
    r = 0.5
    g = far_field_indicator(XI, 2.0 * r)
    rep = bhp_scan(model, HALF, XI, r, 1.0, g, g, grid_size=4, n=2000,
                   rng=RngStream(11), cap=50_000)
    # CRN: both estimates per point share the same samples, so the ratio
    # matrix is exactly 1 on powered pairs
    assert rep.c_hat == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rep.ratio, 1.0)


def test_bhp_scan_ratio_matrix_antisymmetry():
    model = IsotropicStable(1.0, 2)
    r = 0.5
    g1, g2 = _pair(r)
    rep = bhp_scan(model, HALF, XI, r, 1.0, g1, g2, grid_size=4, n=4000,
                   rng=RngStream(13), cap=200_000)
    assert np.allclose(rep.ratio * rep.ratio.T, 1.0, rtol=1e-9)
    assert rep.c_hat >= 1.0 - 1e-12


def test_bhp_scan_swap_inverts_c_hat_lower_bound():
    model = IsotropicStable(1.0, 2)
    r = 0.5
    g1, g2 = _pair(r, split=0.3)
    a = bhp_scan(model, HALF, XI, r, 1.0, g1, g2, grid_size=4, n=4000,
                 rng=RngStream(17), cap=200_000)
    b = bhp_scan(model, HALF, XI, r, 1.0, g2, g1, grid_size=4, n=4000,
                 rng=RngStream(17), cap=200_000)
    # swapping the data transposes the ratio matrix: same maximum
    assert a.c_hat == pytest.approx(b.c_hat, rel=1e-9)


def test_bhp_scan_scaling_invariance_of_data():
    model = IsotropicStable(1.0, 2)
    r = 0.5
    g1, g2 = _pair(r)
    s1 = BoundaryData(fn=lambda y: 7.0 * g1.fn(y), support_radius=2.0 * r,
                      xi=XI)
    a = bhp_scan(model, HALF, XI, r, 1.0, g1, g2, grid_size=3, n=4000,
                 rng=RngStream(19), cap=200_000)
    b = bhp_scan(model, HALF, XI, r, 1.0, s1, g2, grid_size=3, n=4000,
                 rng=RngStream(19), cap=200_000)
    assert a.c_hat == pytest.approx(b.c_hat, rel=1e-12)


def test_bhp_scan_validates_inputs():
    model = IsotropicStable(1.0, 2)
    g1, g2 = _pair(0.5)
    with pytest.raises(ConfigError):
        bhp_scan(model, HALF, XI, 0.5, 2.5, g1, g2, 4, 100, RngStream(0))
    with pytest.raises(DomainError):
        bhp_scan(model, HALF, XI, 0.5, 1.0, g1, g2, 4, 100, RngStream(0),
                 grid=np.array([[0.0, -1.0]]))


def test_bhp_scan_tempered_radius_limit():
    ks = tempered_stable_kernel(1, 1.0, lam=1.0, beta_t=1.0)
    model = StableLikeChain(ks, 2.0 ** -4, 8.0)
    g = far_field_indicator([0.0], 4.0)
    with pytest.raises(ConfigError):
        bhp_scan(model, Ball([0.0], 10.0), [0.0], 2.0, 1.0, g, g, 4, 100,
                 RngStream(0))


def test_bhp_scan_series_congruent_grids():
    model = IsotropicStable(1.0, 2)
    out = bhp_scan_series(model, HALF, XI, [0.4, 0.2], 1.0,
                          lambda r: _pair(r), grid_size=3, n=2000,
                          rng=RngStream(23), cap=100_000)
    assert len(out["reports"]) == 2
    g0 = out["reports"][0].grid
    g1 = out["reports"][1].grid
    assert np.allclose(g1, 0.5 * g0, rtol=1e-12)
    assert out["series_spread"] >= 1.0


# ------------------------------------------------------------------ #
# factorization
# ------------------------------------------------------------------ #

def test_factorization_homogeneous_in_the_data():
    model = IsotropicStable(1.0, 2)
    r = 0.5
    g = far_field_indicator(XI, 2.0 * r)
    g10 = BoundaryData(fn=lambda y: 10.0 * g.fn(y), support_radius=2.0 * r,
                       xi=XI)
    a = factorization_check(model, HALF, XI, r, 0.5, 1.5, 2.0 / 3.0, g,
                            grid_size=3, n=2000, rng=RngStream(29),
                            cap=100_000)
    b = factorization_check(model, HALF, XI, r, 0.5, 1.5, 2.0 / 3.0, g10,
                            grid_size=3, n=2000, rng=RngStream(29),
                            cap=100_000)
    # h and the integral both scale by 10: rho is unchanged
    assert np.allclose(a["rho"], b["rho"], rtol=1e-9)
    assert a["band_ratio"] >= 1.0
    assert np.all(a["rho"][a["powered"]] > 0)


def test_factorization_reports_quadrature_warnings():
    # the datum's level sets miss xi, so its angular mean is a step
    # function of the radius and quad hits its subdivision limit on the
    # boundary integral from c2 r = 0.075; the report must say so
    r = 0.05

    def fn(y):
        far = np.linalg.norm(y, axis=1) > 2.0 * r
        return (far & (y[:, 1] > 0.05)) / (1.0 + 0.1 * np.abs(y[:, 0]))

    g = BoundaryData(fn=fn, support_radius=2.0 * r, xi=XI)
    rep = factorization_check(IsotropicStable(1.5, 2), HALF, XI, r, 0.5, 1.5,
                              2.0 / 3.0, g, grid_size=1, n=2000,
                              rng=RngStream(3), cap=20_000)
    assert rep["powered"].all()
    quad, = rep["warnings"]
    assert quad.startswith("boundary integral: The maximum number of "
                           "subdivisions (200)")


def test_factorization_validates_fractions():
    model = IsotropicStable(1.0, 2)
    g = far_field_indicator(XI, 1.0)
    with pytest.raises(ConfigError):
        factorization_check(model, HALF, XI, 0.5, 1.0, 1.2, 0.5, g, 3, 100,
                            RngStream(0))


# ------------------------------------------------------------------ #
# box diagnostics
# ------------------------------------------------------------------ #

def test_box_diagnostics_layers():
    model = IsotropicStable(1.0, 2)
    diag = box_diagnostics(model, HALF, XI, 1.0, j_max=3, grid_size=24,
                           n=2000, rng=RngStream(31))
    assert len(diag.layers) == 3
    v_sizes = [len(lay["V"]) for lay in diag.layers]
    assert v_sizes == sorted(v_sizes)          # cumulative layers grow
    radii = [lay["radius"] for lay in diag.layers]
    assert radii == sorted(radii, reverse=True)
    assert radii[0] < 0.75
    for lay in diag.layers:
        assert lay["lambda_j"] > 0
    payload = encode(diag)
    assert len(payload["layers"]) == 3


def test_box_diagnostics_walks_once_per_grid_point(monkeypatch):
    # P and E at a grid point come from the same exits: each point walks
    # once, all of them in one lockstep gather
    gather = exitstats.gather_exits
    calls = []

    def counting_gather(*args, **kwargs):
        calls.append(list(args[3]))
        return gather(*args, **kwargs)

    monkeypatch.setattr(exitstats, "gather_exits", counting_gather)
    model = IsotropicStable(1.0, 2)
    diag = box_diagnostics(model, HALF, XI, 1.0, j_max=2, grid_size=5,
                           n=300, rng=RngStream(31))
    assert calls == [[300] * 5]
    for p, e in zip(diag.p, diag.e):
        assert p.n == e.n == 300
        assert 0.0 <= p.value <= 1.0 and e.value > 0.0


def test_box_diagnostics_trivial_domain_has_infinite_lambda():
    # D a small ball far inside B(xi, r): every exit of D & B(xi, r) is
    # an exit of D, so P = 0 at all grid points and all layers are empty
    model = IsotropicStable(1.0, 2)
    D = Ball([0.0, 0.0], 0.05)
    diag = box_diagnostics(model, D, [0.0, 0.0], 1.0, j_max=2, grid_size=8,
                           n=500, rng=RngStream(37))
    for lay in diag.layers:
        assert lay["lambda_j"] == np.inf


# ------------------------------------------------------------------ #
# chain decay
# ------------------------------------------------------------------ #

def test_chain_decay_survival_is_nonincreasing():
    model = IsotropicStable(1.0, 2)
    out = chain_decay(model, HALF, XI, 0.5, [0.0, 0.25], 4000,
                      RngStream(41), m_max=5)
    s = out["survival"]
    assert len(s) == 5
    assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))
    assert 0.0 <= s[0] <= 1.0
    if out["fit"] is not None:
        assert out["fit"]["rate"] <= 1.0 + 1e-9


def test_chain_decay_first_step_matches_direct_mc():
    # m = 1 survival is P(exit of D & B(x, gamma(|x - xi|)) lands in D
    # and within 3r/2 of xi or 2 gamma of x)
    model = IsotropicStable(1.0, 2)
    xi = XI
    r = 0.5
    x = np.array([0.0, 0.25])
    out = chain_decay(model, HALF, xi, r, x, 20_000, RngStream(43), m_max=1)

    s = float(np.linalg.norm(x - xi))
    gamma = 0.125 * (2.0 - s / r) ** 2 * r
    U = HALF.truncate(x, gamma)
    batch = sample_exits(model, U, x, 20_000, RngStream(99))
    ok = (np.asarray(HALF.contains(batch.y))
          & ((np.linalg.norm(batch.y - xi, axis=1) < 1.5 * r)
             | (np.linalg.norm(batch.y - x, axis=1) < 2.0 * gamma)))
    p = float(ok.mean())
    se = np.sqrt(p * (1 - p) / 20_000)
    assert abs(out["survival"][0] - p) < 4.0 * np.hypot(se, se)


def test_chain_decay_validates_start():
    model = IsotropicStable(1.0, 2)
    with pytest.raises(DomainError):
        chain_decay(model, HALF, XI, 0.5, [0.0, 0.8], 100, RngStream(0))
    with pytest.raises(ConfigError):
        chain_decay(StableLikeChain(tempered_stable_kernel(2, 1.0, 1.0, 1.0),
                                    0.25, 4.0),
                    HALF, XI, 0.5, [0.0, 0.25], 100, RngStream(0))


def test_bhp_scan_keeps_stall_warnings(monkeypatch):
    gather = exitstats.gather_exits

    def stalling_gather(*args, **kwargs):
        batch, counts, warnings = gather(*args, **kwargs)
        return batch, counts, [w + ["stall rate 0.2% (stub)"]
                               for w in warnings]

    monkeypatch.setattr(exitstats, "gather_exits", stalling_gather)
    model = IsotropicStable(1.0, 2)
    g1, g2 = _pair(0.5)
    rep = bhp_scan(model, HALF, XI, 0.5, 1.0, g1, g2, grid_size=2, n=1000,
                   rng=RngStream(47), cap=4000)
    for e1, e2 in zip(rep.h1, rep.h2):
        rounds = len(e1.warnings)
        assert rounds >= 1 and e1.warnings == e2.warnings
        assert e1.warnings == ["stall rate 0.2% (stub)"] * rounds
        assert encode(rep)["h1"][0]["warnings"]
    assert rep.warnings == ["stall rate 0.2% (stub)"]


def test_bhp_report_counts_shell_stops_without_targeting_them():
    model = IsotropicStable(1.5, 2)
    r, n, cap = 0.5, 2000, 64_000
    g1, g2 = _pair(r)
    rep = bhp_scan(model, HALF, XI, r, 1.0, g1, g2, grid_size=3, n=n,
                   rng=RngStream(47), cap=cap)
    assert rep.shell_eps == SHELL_EPS
    assert rep.shell_decay == pytest.approx(SHELL_EPS ** 0.75)
    assert 0 < rep.shell_stops < 0.05 * rep.n_total
    # a shell-stop fraction near 1% is far from the 2% precision target,
    # yet points stop escalating before the cap
    assert min(e.n for e in rep.h1) < cap
    # the count is that of the shelled paths behind the estimates: the
    # same rounds, up to the paths each point drew
    U = HALF.truncate(XI, 2.0 * r, shell=SHELL_EPS * r)
    rngs = [RngStream(47).substream(1 + i) for i in range(len(rep.grid))]
    shelled = [escalate(model, U, [x], [lambda b: b.shelled], [s], n,
                        e.n)[0][0] for x, s, e in zip(rep.grid, rngs, rep.h1)]
    assert rep.shell_stops == sum(round(e.value * e.n) for e in shelled)


def test_bhp_report_serialization():
    model = IsotropicStable(1.0, 2)
    g = far_field_indicator(XI, 1.0)
    rep = bhp_scan(model, HALF, XI, 0.5, 1.0, g, g, grid_size=2, n=1000,
                   rng=RngStream(47), cap=20_000)
    d = encode(rep)
    assert isinstance(d["ratio"], list)
    assert d["r"] == 0.5
