import numpy as np
import pytest
from scipy import integrate

from bhplab import kernel
from bhplab.errors import ConfigError, DivergenceError, DomainError
from bhplab.kernel import (QUAD_REL_TOL, JumpKernelSpec, angular_nodes,
                           ball_mass, boundary_integral,
                           check_jc1, check_jc2, check_jt, check_phi,
                           geometric_stable_kernel, isotropic_stable_kernel,
                           sphere_area, tail_mass, tempered_stable_kernel)
from bhplab.rng import RngStream
from bhplab.scale import ScaleFunction


# ------------------------------------------------------------------ #
# tail masses
# ------------------------------------------------------------------ #

def test_tail_mass_power_kernel_1d():
    # j(z) = |z|^{-2}: tail mass from r is exactly 2/r
    J = isotropic_stable_kernel(1, 1.0)
    for r in np.logspace(-2, 2, 9):
        tm = tail_mass(J, [0.0], float(r))
        assert tm * r == pytest.approx(2.0, abs=1e-5)
    assert QUAD_REL_TOL <= 1e-6


def test_tail_mass_power_kernel_general():
    # closed form: omega_{d-1} r^{-alpha} / alpha
    for d, alpha in [(1, 0.5), (2, 1.5), (3, 1.0)]:
        J = isotropic_stable_kernel(d, alpha)
        expect = sphere_area(d) / alpha
        tm = tail_mass(J, np.zeros(d), 1.0)
        assert tm == pytest.approx(expect, rel=1e-6)


def test_angular_nodes_above_three_dimensions_are_fixed_unit_vectors():
    for d in (4, 6):
        nodes = angular_nodes(d)
        assert nodes.shape == (64, d)
        assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, rtol=1e-14)
        assert np.array_equal(nodes, angular_nodes(d))


def test_tail_mass_geometric_stable_matches_scale():
    # the logarithmic scale is built to satisfy tail * phi == 2 exactly
    J = geometric_stable_kernel(1, 1.0)
    for r in (1e-8, 1e-3, 1.0, 1e3):
        tm = tail_mass(J, [0.0], r)
        assert tm * float(J.scale(r)) == pytest.approx(2.0, rel=1e-5)


def test_tail_mass_requires_positive_radius():
    J = isotropic_stable_kernel(1, 1.0)
    with pytest.raises(DomainError):
        tail_mass(J, [0.0], 0.0)


def _slowly_growing_scale_kernel():
    # slowly growing tabulated scale: the radial integrand decays so
    # slowly that the table ends before the tail integral converges
    r = np.logspace(-6, 10, 60)
    vals = r ** 0.5
    vals[r > 1.0] = (1.0 + np.log(r[r > 1.0])) ** 0.5
    phi = ScaleFunction.tabulated(r, vals)
    J = isotropic_stable_kernel(1, 1.0)
    return type(J)(dim=1, scale=phi)


def test_tail_mass_divergence_detected():
    J = _slowly_growing_scale_kernel()
    with pytest.raises(DivergenceError):
        tail_mass(J, [0.0], 1.0)


def test_tail_mass_direction_dependent_kappa():
    # kappa(x, z) = 1 + z_1 / (2 |z|) averages to 1 over every sphere, so
    # the tail mass is the kappa == 1 closed form omega / alpha at r = 1
    def kappa(x, z):
        return 1.0 + 0.5 * z[..., 0] / np.linalg.norm(z, axis=-1)

    J = JumpKernelSpec(dim=2, scale=ScaleFunction.power(1.5), kappa=kappa,
                       kappa_lo=0.5, kappa_hi=1.5)
    tm = tail_mass(J, [0.3, -0.1], 1.0)
    assert tm == pytest.approx(sphere_area(2) / 1.5, rel=1e-6)


# ------------------------------------------------------------------ #
# ball masses and (Jc.2)
# ------------------------------------------------------------------ #

def test_ball_mass_1d_quadrature():
    J = isotropic_stable_kernel(1, 1.0)
    # J(0, B(10, 1)) = int_9^11 t^-2 dt = 1/9 - 1/11
    got = ball_mass(J, [0.0], [10.0], 1.0)
    assert got == pytest.approx(1.0 / 9.0 - 1.0 / 11.0, rel=1e-6)


def test_ball_mass_2d_matches_quadrature(rng, monkeypatch):
    monkeypatch.setattr(kernel, "BALL_MASS_POINTS", 400_000)
    J = isotropic_stable_kernel(2, 1.0)
    got = ball_mass(J, [0.0, 0.0], [5.0, 0.0], 1.0, rng=rng)

    # |y|^-3 over the unit disc about (5, 0), in polar coordinates about
    # its center: a smooth integrand, so the quadrature converges
    def f(theta, s):
        return s * (25.0 + 10.0 * s * np.cos(theta) + s * s) ** -1.5

    exact, _ = integrate.dblquad(f, 0.0, 1.0, 0.0, 2.0 * np.pi, epsabs=1e-10)
    assert got == pytest.approx(exact, rel=0.02)


def test_ball_mass_rejects_overlapping_point():
    J = isotropic_stable_kernel(1, 1.0)
    with pytest.raises(DomainError):
        ball_mass(J, [0.0], [0.5], 1.0)


def test_check_jc2_stable_kernel(rng):
    J = isotropic_stable_kernel(1, 1.0)
    rep = check_jc2(J, [(1.0, 1.0, [0.0], [10.0]),
                        (0.5, 0.25, [0.0], [4.0])], c3=2.0, rng=rng)
    assert rep.verdict == "holds-numerically"
    assert rep.constants["C2"] == pytest.approx((1 / 9 - 1 / 11) / 2.0,
                                                rel=1e-4)


def test_check_jc2_separation_precondition(rng):
    J = isotropic_stable_kernel(1, 1.0)
    with pytest.raises(DomainError):
        check_jc2(J, [(1.0, 1.0, [0.0], [2.0])], c3=2.0, rng=rng)


# ------------------------------------------------------------------ #
# (Jc.1) comparability
# ------------------------------------------------------------------ #

def test_check_jc1_isotropic_stable(rng):
    J = isotropic_stable_kernel(1, 1.0)
    rep = check_jc1(J, n_triples=20_000, rng=rng)
    assert rep.verdict == "holds-numerically"
    # for translation-invariant power kernels the exponent is d + alpha
    assert rep.constants["theta"] <= 2.0 + 0.25
    assert rep.constants["C1"] <= 2.0 ** rep.constants["theta"] * (1 + 1e-6)


def test_check_jc1_witness_reproducible(rng):
    J = isotropic_stable_kernel(2, 1.5)
    rep = check_jc1(J, n_triples=5_000, rng=rng)
    w = rep.witness
    jx = float(J.density(np.asarray(w["x"]), np.asarray(w["z"]) - w["x"]))
    jy = float(J.density(np.asarray(w["y"]), np.asarray(w["z"]) - w["y"]))
    assert jx == pytest.approx(w["jx"], rel=1e-12)
    assert jy == pytest.approx(w["jy"], rel=1e-12)


def test_check_jc1_variable_coefficients(rng):
    phi = ScaleFunction.power(1.0)

    def kappa(x, z):
        x = np.atleast_2d(x)
        return 1.0 + 0.5 * np.sin(x[..., 0])

    J = JumpKernelSpec(dim=1, scale=phi, kappa=kappa, kappa_lo=0.5,
                       kappa_hi=1.5)
    rep = check_jc1(J, n_triples=20_000, rng=rng)
    assert rep.verdict == "holds-numerically"


def _variable_kappa_kernel():
    def kappa(x, z):
        x = np.atleast_2d(x)
        return 1.0 + 0.5 * np.sin(x[..., 0])

    return JumpKernelSpec(dim=1, scale=ScaleFunction.power(1.0), kappa=kappa,
                          kappa_lo=0.5, kappa_hi=1.5)


def test_check_jc1_exponent_is_the_grid_scan_minimum(rng):
    # the solved exponent is the least that satisfies every triple: the
    # worst triple's constraint is tight there, and the smallest theta of
    # a 0.01 grid that satisfies them all lies within one step above it
    kernels = [isotropic_stable_kernel(1, 1.0),
               isotropic_stable_kernel(2, 1.5),
               geometric_stable_kernel(2, 1.5), _variable_kappa_kernel()]
    for k, J in enumerate(kernels):
        sub = rng.substream(k)
        rep = check_jc1(J, n_triples=5_000, rng=sub)
        x, y, z = kernel._sample_triples(J, 5_000, np.inf, sub)
        lr = np.log(J.density(x, z - x)) - np.log(J.density(y, z - y))
        lt = np.log(1.0 + np.linalg.norm(y - z, axis=1)
                    / np.linalg.norm(x - z, axis=1))
        slack = np.log(J.kappa_hi / J.kappa_lo) + 1e-9
        grid_theta = next(th for th in np.arange(0.0, 16.0 + 1e-9, 0.01)
                          if np.max(lr - th * lt) <= th * np.log(2.0) + slack)
        theta = rep.constants["theta"]
        assert grid_theta - 0.01 <= theta <= grid_theta + 1e-12, J
        assert np.max(lr - theta * (lt + np.log(2.0))) - slack \
            == pytest.approx(0.0, abs=1e-9)
        assert rep.constants["C1"] == pytest.approx(
            np.exp(np.max(lr - theta * lt)), rel=1e-12)


def test_check_jc1_memory_does_not_grow_with_a_theta_grid():
    # 10^4 triples hold a few arrays of 10^4 floats; a (1601, n) matrix
    # of exponents by triples would take 128 MB
    import tracemalloc

    J = geometric_stable_kernel(2, 1.5)
    tracemalloc.start()
    try:
        rep = check_jc1(J, n_triples=10_000, rng=RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "holds-numerically"
    assert peak < 16e6


# ------------------------------------------------------------------ #
# (Jt)
# ------------------------------------------------------------------ #

def test_check_jt_power_kernel(rng):
    J = isotropic_stable_kernel(1, 1.0)
    rep = check_jt(J, np.logspace(-2, 1, 13), rng=rng)
    assert rep.verdict == "holds-numerically"
    assert rep.constants["C4"] == pytest.approx(2.0, abs=1e-5)
    assert rep.constants["C5"] == pytest.approx(2.0, abs=1e-5)


def test_check_jt_tempered_kernel_bounded_vs_unbounded(rng):
    J = tempered_stable_kernel(1, 1.0, lam=1.0, beta_t=1.0)
    small = check_jt(J, np.logspace(-3, 0, 13), rng=rng)
    assert small.verdict == "holds-numerically"
    big = check_jt(J, np.logspace(-3, 3, 25), rng=rng)
    assert big.verdict == "violated"
    assert big.witness is not None
    assert big.witness["r"] > 1.0


def test_check_jt_variable_kappa_probes_five_base_points(rng):
    # kappa depends on x only, so the tail mass at x is kappa(x) * 2 / r
    # and m(r) = 2 kappa(x) at every r
    def kappa(x, z):
        return 1.0 + 0.5 * np.sin(np.atleast_2d(x)[..., 0])

    J = JumpKernelSpec(dim=1, scale=ScaleFunction.power(1.0), kappa=kappa,
                       kappa_lo=0.5, kappa_hi=1.5)
    rep = check_jt(J, np.logspace(-2, 1, 7), rng=rng)
    xs = rep.test_points["x_samples"]
    assert xs.shape == (5, 1) and np.all(np.abs(xs) <= 1.0)
    m = 2.0 * (1.0 + 0.5 * np.sin(xs[:, 0]))
    assert rep.constants["C4"] == pytest.approx(m.min(), rel=1e-5)
    assert rep.constants["C5"] == pytest.approx(m.max(), rel=1e-5)
    assert rep.verdict == "holds-numerically"


def test_check_jt_grid_span_precondition(rng):
    J = isotropic_stable_kernel(1, 1.0)
    with pytest.raises(DomainError):
        check_jt(J, np.logspace(-1, 1, 5), rng=rng)


# ------------------------------------------------------------------ #
# scale-function doubling
# ------------------------------------------------------------------ #

def test_check_phi_power():
    rep = check_phi(ScaleFunction.power(1.5), np.logspace(-3, 2, 26))
    assert rep.verdict == "holds-numerically"
    assert rep.constants["beta"] == pytest.approx(1.5, rel=1e-9)
    assert rep.constants["c"] == pytest.approx(1.0, rel=1e-6)
    assert rep.constants["rd_c2"] == pytest.approx(2.0 ** 1.5, rel=1e-9)


def test_check_phi_geometric_stable_not_reverse_doubling():
    phi = ScaleFunction.geometric_stable(1.0)
    rep = check_phi(phi, np.logspace(-12, 2, 57))
    assert rep.verdict == "violated"
    assert rep.witness is not None
    assert rep.witness["ratio"] < 1.05
    # the witness is reproducible
    got = float(phi(2.0 * rep.witness["r"])) / rep.witness["phi_r"]
    assert got == pytest.approx(rep.witness["ratio"], rel=1e-9)


def test_check_phi_staircase_tabulated():
    r = np.logspace(-3, 2, 40)
    phi = ScaleFunction.tabulated(r, r ** 0.5 * (1 + 0.05 * np.sin(np.log(r))))
    rep = check_phi(phi, np.logspace(-3, 1.6, 30), check_reverse=False)
    assert abs(rep.constants["beta"] - 0.5) < 0.05 * 0.5 + 0.05


def test_check_phi_needs_four_decades():
    with pytest.raises(DomainError):
        check_phi(ScaleFunction.power(1.0), np.logspace(-1, 1, 10))


# ------------------------------------------------------------------ #
# boundary integral
# ------------------------------------------------------------------ #

def test_boundary_integral_halfplane_indicator():
    # int over {|z| > R, z2 > 0} of |z|^{-3.5} dz = pi R^{-1.5} / 1.5
    J = isotropic_stable_kernel(2, 1.5)
    g = lambda y: (y[:, 1] > 0).astype(float)
    for R in (0.5, 2.0):
        got = boundary_integral(J, [0.0, 0.0], g, r_min=R)
        assert got == pytest.approx(np.pi * R ** -1.5 / 1.5, rel=1e-5)


def test_boundary_integral_annulus_with_rmax():
    # the datum 1{|y| < 4} from r_min = 1 cuts the annulus 1 <= |y| < 4
    J = isotropic_stable_kernel(1, 1.0)
    got = boundary_integral(J, [0.0], lambda y: (np.abs(y[:, 0]) < 4.0)
                            .astype(float), r_min=1.0)
    assert got == pytest.approx(2.0 * (1.0 - 0.25), rel=1e-6)


def test_boundary_integral_datum_vanishing_on_first_decade():
    # g = 1{|y| > 20} from r_min = 1: the decade [1, 10] adds exactly 0,
    # which must not stop the quadrature; int_{|y|>20} y^-2 dy = 2/20
    J = isotropic_stable_kernel(1, 1.0)
    got = boundary_integral(J, [0.0], lambda y: (np.abs(y[:, 0]) > 20.0)
                            .astype(float), r_min=1.0)
    assert got == pytest.approx(2.0 / 20.0, rel=1e-6)


def test_boundary_integral_divergence_detected():
    J = _slowly_growing_scale_kernel()
    with pytest.raises(DivergenceError):
        boundary_integral(J, [0.0], lambda y: np.ones(len(y)), r_min=1.0)


def test_report_serialization_roundtrip(rng):
    import json
    J = isotropic_stable_kernel(1, 1.0)
    rep = check_jt(J, np.logspace(-2, 1, 13), rng=rng)
    from bhplab.cli import encode
    payload = json.dumps(encode(rep))
    assert "holds-numerically" in payload


def test_kernel_spec_validation():
    with pytest.raises(ConfigError):
        JumpKernelSpec(dim=0, scale=ScaleFunction.power(1.0))
    with pytest.raises(ConfigError):
        JumpKernelSpec(dim=1, scale=ScaleFunction.power(1.0),
                       kappa_lo=2.0, kappa_hi=1.0)
    with pytest.raises(ConfigError):
        JumpKernelSpec(dim=1, scale=ScaleFunction.power(1.0),
                       temper=(-1.0, 1.0))
