"""Monte Carlo toolkit for exit laws, harmonic functions, and boundary
Harnack ratios of purely discontinuous jump Markov processes."""

from .domains import (Ball, Cone, Domain, HalfSpace, Intersection,
                      Polyhedron, SegmentComplement, SlitPlane, Union,
                      box_minus_comb)
from .errors import (BhpLabError, CapabilityError, ConfigError,
                     DivergenceError, DomainError, EstimationError,
                     SamplerStallError, UnderpoweredError)
from .exitstats import Estimate, harmonic_measure, mean_exit_time
from .kernel import (ConditionReport, JumpKernelSpec, check_jc1, check_jc2,
                     check_jt, check_phi, geometric_stable_kernel,
                     isotropic_stable_kernel, tail_mass,
                     tempered_stable_kernel)
from .rng import RngStream
from .sampler import (BatchExit, GeometricStable, IsotropicStable,
                      SdeStable, StableLikeChain, sample_exits,
                      survival_prob_ball)
from .scale import ScaleFunction
from .bhp import (BhpReport, BoundaryData, bhp_scan, bhp_scan_series,
                  box_diagnostics, chain_decay, eval_harmonic,
                  factorization_check, far_field_indicator)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
