"""Shared fixtures and independent quadrature oracles for the test suite."""

import math

import numpy as np
import pytest
from scipy import integrate

from bhplab.rng import RngStream


@pytest.fixture
def rng():
    return RngStream(20260823)


def poisson_kernel_constant(d: int, alpha: float) -> float:
    """Normalizing constant of the unit-ball exit density.

    The exit density from x (|x| < 1) is
    C(d, a) * ((1 - |x|^2) / (|y|^2 - 1))^{a/2} * |y - x|^{-d} on |y| > 1.
    """
    return math.gamma(d / 2.0) * math.sin(math.pi * alpha / 2.0) \
        / math.pi ** (d / 2.0 + 1.0)


def ball_exit_tail_prob(alpha: float, d: int, R: float) -> float:
    """P_0(|Y| > R) for the exit position Y of the unit ball, by quadrature.

    Radial density of |Y| from the center: the surface integral of the
    exit density C (s^2-1)^{-a/2} s^{-d} over the sphere of radius s.
    """
    C = poisson_kernel_constant(d, alpha)
    omega = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)

    def f(s):
        return omega * C * (s * s - 1.0) ** (-alpha / 2.0) / s

    val, _ = integrate.quad(f, R, np.inf, epsrel=1e-10)
    return val


def cauchy_interval_exit_probs() -> dict:
    """Exit-bin probabilities of (-1, 1) from 0 for the d=1, alpha=1 case."""
    C = poisson_kernel_constant(1, 1.0)

    def f(y):
        return C * (y * y - 1.0) ** -0.5 / abs(y)

    p_1_2, _ = integrate.quad(f, 1.0, 2.0, epsrel=1e-10)
    p_2_inf, _ = integrate.quad(f, 2.0, np.inf, epsrel=1e-10)
    return {"(1,2]": p_1_2, "(2,inf)": p_2_inf,
            "[-2,-1)": p_1_2, "(-inf,-2)": p_2_inf}


def ball_exit_prob_interval(alpha: float, x: float, a: float,
                            b: float) -> float:
    """P_x(Y in (a,b)) for the unit-interval exit in d=1, by quadrature."""
    C = poisson_kernel_constant(1, alpha)

    def f(y):
        return C * ((1.0 - x * x) / (y * y - 1.0)) ** (alpha / 2.0) \
            / abs(y - x)

    val, _ = integrate.quad(f, a, b, epsrel=1e-10)
    return val


def halfspace_far_prob(x, R: float, alpha: float) -> float:
    """P_x(|Y| > R) for the exit of the half-space {y1 > 0} in d=2.

    Uses the classical half-space exit density
    C (x1 / (-y1))^{a/2} |x - y|^{-2} on {y1 < 0}, integrated in polar
    coordinates over the far region.
    """
    C = poisson_kernel_constant(2, alpha)
    x = np.asarray(x, dtype=float)

    def integrand(theta, s):
        y = np.array([s * math.cos(theta), s * math.sin(theta)])
        if y[0] >= 0:
            return 0.0
        return s * C * (x[0] / (-y[0])) ** (alpha / 2.0) \
            / float(np.sum((x - y) ** 2))

    def inner(s):
        val, _ = integrate.quad(integrand, math.pi / 2.0, 3.0 * math.pi / 2.0,
                                args=(s,), epsrel=1e-8, limit=200)
        return val

    val, _ = integrate.quad(inner, R, np.inf, epsrel=1e-7, limit=200)
    return val


def four_bin_tv(y: np.ndarray, exact: dict) -> float:
    """Total variation on the 4-bin far/near partition of the exit line.

    Adds a catch-all cell for empirical mass the exact law does not put
    in any bin (e.g. lattice atoms on the interval endpoints).
    """
    y = np.asarray(y, dtype=float)
    emp = {
        "(1,2]": float(((y > 1) & (y <= 2)).mean()),
        "(2,inf)": float((y > 2).mean()),
        "[-2,-1)": float(((y >= -2) & (y < -1)).mean()),
        "(-inf,-2)": float((y < -2).mean()),
    }
    rest = 1.0 - sum(emp.values())
    return 0.5 * (sum(abs(emp[k] - exact[k]) for k in emp) + abs(rest))
