"""Numerical condition checks for jump kernels and scale functions.

Runs the tail-comparison check on a power kernel, shows how tempering
restricts it to bounded radii, and flags the logarithmic scale function
as doubling but not reverse doubling.
"""

import numpy as np

from bhplab import (RngStream, ScaleFunction, check_jt, check_phi,
                    isotropic_stable_kernel, tail_mass,
                    tempered_stable_kernel)

rng = RngStream(2)

J = isotropic_stable_kernel(1, 1.0)
rep = check_jt(J, np.logspace(-2, 1, 13), rng=rng.substream(0))
print(f"power kernel tail check:    {rep.verdict}  "
      f"C4={rep.constants['C4']:.6f}  C5={rep.constants['C5']:.6f}")
print(f"tail_mass(r=1) * 1 =        {tail_mass(J, [0.0], 1.0):.6f}"
      "  (exact 2)")

T = tempered_stable_kernel(1, 1.0, lam=1.0, beta_t=1.0)
small = check_jt(T, np.logspace(-3, 0, 13), rng=rng.substream(1))
big = check_jt(T, np.logspace(-3, 3, 25), rng=rng.substream(2))
print(f"tempered kernel, r <= 1:    {small.verdict}")
print(f"tempered kernel, r <= 1e3:  {big.verdict}  "
      f"(witness r = {big.witness['r']:.3g})")

geo = check_phi(ScaleFunction.geometric_stable(1.0), np.logspace(-12, 2, 57))
print(f"logarithmic scale:          {geo.verdict}  "
      f"(phi(2r)/phi(r) = {geo.witness['ratio']:.4f} at "
      f"r = {geo.witness['r']:.2g})")
