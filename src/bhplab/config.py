"""JSON configurations: the one place where JSON becomes values.

A configuration is a JSON object with a "model" (or "kernel") section, a
"domain" section and experiment-specific keys.  Each value is read by
the reader for its type, and the builders accept one spelling of each
`type` or `form`.  A malformed or missing value raises ConfigError
naming its key; keys no one reads are ignored.  The config embedded in
reports, command-line overrides included, round-trips through JSON.
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

_REQUIRED = object()


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


# ===================================================================== #
# readers
# ===================================================================== #

def _get(spec, key: str, default):
    if not isinstance(spec, dict):
        raise ConfigError(f"{key!r} must sit in a JSON object, got {spec!r}")
    if key in spec:
        return spec[key]
    if default is _REQUIRED:
        raise ConfigError(f"missing key {key!r} in {spec!r}")
    return default


def count(spec, key: str, default=_REQUIRED, least: int = 1) -> int:
    v = _get(spec, key, default)
    try:
        n = int(v)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or (isinstance(v, float) and n != v):
        raise ConfigError(f"{key} must be a whole number, got {v!r}")
    if n < least:
        raise ConfigError(f"{key} must be at least {least}, got {n}")
    return n


def real(spec, key: str, default=_REQUIRED) -> float:
    v = _get(spec, key, default)
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {v!r}") from None


def text(spec, key: str, default=_REQUIRED) -> str:
    v = _get(spec, key, default)
    if not isinstance(v, str):
        raise ConfigError(f"{key} must be a string, got {v!r}")
    return v


def _floats(values, key: str, size: int | None = None,
            positive: bool = False) -> list:
    out = None
    if isinstance(values, (list, tuple)):
        try:
            out = [float(v) for v in values]
        except (TypeError, ValueError, OverflowError):
            pass
    if (not out or (size is not None and len(out) != size)
            or (positive and not all(v > 0 for v in out))):
        raise ConfigError(f"{key} must be a list of {size or 'one or more'} "
                          f"{'positive ' * positive}numbers, got {values!r}")
    return out


def reals(spec, key: str, default=_REQUIRED, size: int | None = None,
          positive: bool = False) -> list:
    """A non-empty list of numbers; `size`, when given, is its length, and
    `positive` asks every entry to be > 0."""
    return _floats(_get(spec, key, default), key, size, positive)


def pairs(spec, key: str, default=_REQUIRED, positive: bool = False) -> list:
    """A list of [[a1, a2], [b1, b2]] entries, as (a, b) pairs of lists."""
    values = _get(spec, key, default)
    try:
        return [(_floats(a, key, 2, positive), _floats(b, key, 2, positive))
                for a, b in values]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a list of [[a1, a2], [b1, b2]] "
                          f"pairs, got {values!r}") from None


def flag(spec, key: str, default: bool) -> bool:
    v = _get(spec, key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{key} must be true or false, got {v!r}")
    return v


def objects(spec, key: str, default=_REQUIRED) -> list:
    items = _get(spec, key, default)
    if isinstance(items, list) and all(isinstance(i, dict) for i in items):
        return items
    raise ConfigError(f"{key} must be a list of JSON objects, got {items!r}")


# ===================================================================== #
# builders
# ===================================================================== #

def build_scale(spec) -> ScaleFunction:
    if not isinstance(spec, dict) or "form" not in spec:
        raise ConfigError("scale spec must be a dict with a 'form' key")
    form = spec["form"]
    if form == "power":
        return ScaleFunction.power(real(spec, "alpha"))
    if form == "geometric-stable":
        return ScaleFunction.geometric_stable(real(spec, "alpha"))
    if form == "tabulated":
        return ScaleFunction.tabulated(reals(spec, "r"), reals(spec, "phi"))
    raise ConfigError(f"unknown scale form {form!r}")


def build_kernel(spec) -> JumpKernelSpec:
    if not isinstance(spec, dict):
        raise ConfigError("kernel spec must be a dict")
    kappa = real(spec, "kappa", 1.0)
    t = spec.get("temper")
    temper = None if t is None else (real(t, "lam"), real(t, "beta_t", 1.0))
    return JumpKernelSpec(dim=count(spec, "dim"),
                          scale=build_scale(spec.get("scale")),
                          kappa=kappa, kappa_lo=kappa, kappa_hi=kappa,
                          temper=temper)


def build_model(spec):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("model spec must be a dict with a 'type' key")
    t = spec["type"]
    if t == "isotropic-stable":
        return IsotropicStable(alpha=real(spec, "alpha"),
                               dim=count(spec, "dim"))
    if t == "stable-like-chain":
        return StableLikeChain(kernel_spec=build_kernel(spec.get("kernel")),
                               h=real(spec, "h"), r_cut=real(spec, "r_cut"),
                               lattice_offset=real(spec, "lattice_offset",
                                                   0.0))
    if t == "sde-stable":
        dim = count(spec, "dim")
        scale = real(spec, "sigma_scale", 1.0)
        sigma = None if scale == 1.0 else (lambda x: np.broadcast_to(
            scale * np.eye(dim), (len(x), dim, dim)))
        return SdeStable(alpha=real(spec, "alpha"), dim=dim, sigma=sigma,
                         sigma_bounds=(scale, scale))
    if t == "geometric-stable":
        return GeometricStable(alpha=real(spec, "alpha"),
                               dim=count(spec, "dim"))
    raise ConfigError(f"unknown model type {t!r}")


def build_domain(spec) -> domains.Domain:
    """A domain from its JSON section {"type": ..., params}."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("domain spec must be a dict with a 'type' key")
    t = spec["type"]
    if t == "ball":
        return domains.Ball(reals(spec, "center", [0.0]),
                            real(spec, "radius", 1.0))
    if t == "half-space":
        return domains.HalfSpace(reals(spec, "normal"),
                                 real(spec, "offset", 0.0))
    if t == "slit-plane":
        return domains.SlitPlane()
    if t == "cone":
        return domains.Cone(reals(spec, "vertex"), reals(spec, "axis"),
                            real(spec, "half_angle"))
    if t == "box-minus-comb":
        return domains.box_minus_comb(count(spec, "teeth", 4),
                                      real(spec, "gap", 0.25))
    if t == "segment-complement":
        return domains.SegmentComplement(tuple(pairs(spec, "segments")))
    if t in ("intersection", "union"):
        parts = [build_domain(d) for d in objects(spec, "components")]
        return (domains.Intersection(parts) if t == "intersection"
                else domains.Union(parts))
    raise ConfigError(f"unknown domain type {t!r}")
