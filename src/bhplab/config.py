"""JSON configuration parsing for models, kernels, and domains.

A configuration is a plain dict (usually loaded from a JSON file) with
up to three sections: "model", "domain", and experiment-specific
parameters.  Builders validate eagerly and raise ConfigError with a
pointer to the offending field; the resolved config embedded in reports
round-trips through JSON unchanged.
"""

from __future__ import annotations

import json

import numpy as np

from . import domains
from .errors import ConfigError
from .kernel import JumpKernelSpec
from .sampler import (GeometricStable, IsotropicStable, SdeStable,
                      StableLikeChain)
from .scale import ScaleFunction


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def build_scale(spec: dict) -> ScaleFunction:
    if not isinstance(spec, dict) or "form" not in spec:
        raise ConfigError("scale spec must be a dict with a 'form' key")
    form = spec["form"].replace("_", "-")
    try:
        if form == "power":
            return ScaleFunction.power(spec["alpha"])
        if form in ("geostable", "geometric-stable"):
            return ScaleFunction.geometric_stable(spec["alpha"])
        if form == "tempered-power":
            return ScaleFunction.tempered_power(spec["alpha"], spec["lam"],
                                                spec.get("beta_t", 1.0))
        if form == "tabulated":
            return ScaleFunction.tabulated(np.asarray(spec["r"]),
                                           np.asarray(spec["phi"]))
    except KeyError as exc:
        raise ConfigError(f"scale spec missing field {exc}") from exc
    raise ConfigError(f"unknown scale form {spec['form']!r}")


def build_kernel(spec: dict) -> JumpKernelSpec:
    if not isinstance(spec, dict):
        raise ConfigError("kernel spec must be a dict")
    try:
        dim = int(spec["dim"])
        scale = build_scale(spec["scale"])
    except KeyError as exc:
        raise ConfigError(f"kernel spec missing field {exc}") from exc
    kappa = spec.get("kappa", 1.0)
    if not isinstance(kappa, (int, float)):
        raise ConfigError("JSON kernel specs support constant kappa only")
    temper = None
    if "temper" in spec:
        temper = (spec["temper"]["lam"], spec["temper"].get("beta_t", 1.0))
    elif scale.form == "tempered-power":
        temper = (scale.params["lam"], scale.params["beta_t"])
    return JumpKernelSpec(dim=dim, scale=scale, kappa=float(kappa),
                          kappa_lo=float(kappa), kappa_hi=float(kappa),
                          temper=temper,
                          symmetric_in_z=spec.get("symmetric_in_z", True))


def build_model(spec: dict):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("model spec must be a dict with a 'type' key")
    t = spec["type"].replace("_", "-").lower()
    try:
        if t == "isotropic-stable":
            return IsotropicStable(alpha=spec["alpha"], dim=spec["dim"])
        if t in ("stable-like-chain", "chain", "tempered-chain"):
            return StableLikeChain(kernel_spec=build_kernel(spec["kernel"]),
                                   h=spec["h"], r_cut=spec["r_cut"],
                                   lattice_offset=spec.get("lattice_offset",
                                                           0.0))
        if t == "sde-stable":
            scale = spec.get("sigma_scale", 1.0)
            sigma = None
            bounds = (1.0, 1.0)
            if scale != 1.0:
                dim = spec["dim"]
                sigma = (lambda s, d: (lambda x: np.broadcast_to(
                    s * np.eye(d), (len(x), d, d))))(scale, dim)
                bounds = (scale, scale)
            return SdeStable(alpha=spec["alpha"], dim=spec["dim"],
                             sigma=sigma,
                             sigma_bounds=spec.get("sigma_bounds", bounds))
        if t == "geometric-stable":
            return GeometricStable(alpha=spec["alpha"], dim=spec["dim"])
    except KeyError as exc:
        raise ConfigError(f"model spec missing field {exc}") from exc
    raise ConfigError(f"unknown model type {spec['type']!r}")


def build_domain(spec: dict) -> domains.Domain:
    return domains.from_descriptor(spec)


def resolve(config: dict, overrides: dict | None = None) -> dict:
    """Deep-copy the config through JSON and apply CLI overrides."""
    resolved = json.loads(json.dumps(config))
    for key, val in (overrides or {}).items():
        if val is not None:
            resolved[key] = val
    return resolved
