"""Scale functions: the increasing space-time scaling of a jump kernel.

All scale functions here are normalized so that phi(0) = 0 and phi(1) = 1.
`kernel.check_phi` fits and certifies their doubling constants
phi(R)/phi(r) <= c (R/r)^beta and reverse-doubling constants
phi(c1 r) >= c2 phi(r) numerically on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ScaleFunction:
    """Strictly increasing scale function phi with phi(0)=0, phi(1)=1."""

    form: str
    params: dict = field(default_factory=dict)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise DomainError("scale function evaluated at negative radius")
        if self.form == "power":
            return r ** self.params["alpha"]
        if self.form == "geostable":
            # 1/(1 - log r) for r < 1, r^alpha for r >= 1: matches the
            # tail mass of the density r^-d min(1, r^-alpha) on both sides
            # and is doubling but not reverse doubling.
            alpha = self.params["alpha"]
            small = 1.0 / (1.0 - np.log(np.clip(r, 1e-300, 1.0)))
            out = np.where(r < 1.0, small, r ** alpha)
            return np.where(r == 0.0, 0.0, out)
        if self.form == "tabulated":
            return self._interp(r)
        raise DomainError(f"unknown scale function form {self.form!r}")

    def _interp(self, r):
        log_r = self.params["_log_r"]
        log_phi = self.params["_log_phi"]
        lr = np.log(np.where(r > 0, r, np.nan))
        if np.any((lr < log_r[0] - 1e-12) | (lr > log_r[-1] + 1e-12)):
            raise DomainError("tabulated scale function: extrapolation is forbidden")
        out = np.exp(np.interp(lr, log_r, log_phi))
        return np.where(np.asarray(r) == 0.0, 0.0, out)

    @property
    def r_max(self):
        """Largest radius this phi may be evaluated at (inf unless tabulated)."""
        if self.form == "tabulated":
            return float(np.exp(self.params["_log_r"][-1]))
        return np.inf

    # ------------------------------------------------------------------ #
    @staticmethod
    def power(alpha: float) -> "ScaleFunction":
        if not alpha > 0:
            raise DomainError("power scale needs alpha > 0")
        return ScaleFunction("power", {"alpha": alpha})

    @staticmethod
    def geometric_stable(alpha: float) -> "ScaleFunction":
        if not 0 < alpha <= 2:
            raise DomainError("geometric stable scale needs alpha in (0, 2]")
        return ScaleFunction("geostable", {"alpha": alpha})

    @staticmethod
    def tabulated(r, phi) -> "ScaleFunction":
        """Monotone piecewise-linear interpolation in (log r, log phi).

        The table is renormalized so phi(1) = 1; the grid must bracket r = 1.
        """
        r = np.asarray(r, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if r.ndim != 1 or r.shape != phi.shape or len(r) < 2:
            raise DomainError("tabulated scale needs matching 1-d grids")
        if np.any(r <= 0) or np.any(phi <= 0):
            raise DomainError("tabulated scale needs positive entries")
        if np.any(np.diff(r) <= 0) or np.any(np.diff(phi) <= 0):
            raise DomainError("tabulated scale function must be strictly increasing")
        if not (r[0] <= 1.0 <= r[-1]):
            raise DomainError("tabulated grid must bracket r = 1 for normalization")
        log_r = np.log(r)
        log_phi = np.log(phi)
        log_phi = log_phi - np.interp(0.0, log_r, log_phi)  # phi(1) = 1
        return ScaleFunction("tabulated", {"_log_r": log_r, "_log_phi": log_phi})
