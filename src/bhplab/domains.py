"""Open subsets of R^d with the geometric oracle the samplers need.

Every domain is an immutable value object exposing

* ``clearance(x)`` -- the signed clearance, vectorized over points: the
  distance to the complement for inside points (zero or negative
  outside).  This is the one geometry oracle; the walk on balls consumes
  nothing else, except that a shelled truncation also tells it which
  walkers lie in its shell (``Truncation.shelled_clearance``).
* ``contains(x)``  -- open-set membership, ``clearance(x) > SURFACE_TOL``,
* ``dist_lb(x)``   -- ``clearance(x)`` inside, raising outside; unused in
  the package, it stays only because ``bench/tracer.py`` patches it,
* ``truncate(xi, r)``  -- the intersection D & B(xi, r), optionally with
  a stopping shell at D's own boundary for the walk on balls.

Membership is resolved conservatively for openness: any point within
1e-12 of the boundary is classified as *outside*.  Clearances
are exact for the primitive shapes and conservative (a min or max over
components) for composites -- the samplers only ever need a positive
lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

SURFACE_TOL = 1e-12


def _as_points(x, dim):
    """Return (pts of shape (n, dim), scalar_input flag)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        if a.shape[0] != dim:
            raise DomainError(f"point has dimension {a.shape[0]}, domain has {dim}")
        return a[None, :], True
    if a.ndim == 2 and a.shape[1] == dim:
        return a, False
    raise DomainError(f"expected points of shape (n, {dim}) or ({dim},)")


def _row_dot(pts, v):
    """pts @ v for (m, d) points, summing the column products in order.

    A BLAS matrix-vector product rounds a row differently depending on
    where it sits in the batch; here each row's value depends on that row
    alone, so a walker's clearance does not depend on who walks with it.
    """
    s = pts[:, 0] * v[0]
    for k in range(1, len(v)):
        s += pts[:, k] * v[k]
    return s


def _row_norm(v):
    """Euclidean norms of the rows of an (m, d) array.

    Sums the squared columns in order, then takes one square root: for
    d <= 7 this is bitwise equal to np.linalg.norm(v, axis=1), without
    numpy's slow reduction over a short last axis.
    """
    s = v[:, 0] * v[:, 0]
    for k in range(1, v.shape[1]):
        s += v[:, k] * v[:, k]
    return np.sqrt(s)


def _segment_distance(pts, a, b):
    """Distances from pts (n,2+) to the closed segment [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return _row_norm(pts - a)
    t = np.clip(_row_dot(pts - a, ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return _row_norm(pts - proj)


class Domain:
    """Base class: open subset of R^d."""

    dim: int

    # subclasses implement the raw signed clearance: distance to the
    # complement for inside points (may be negative/zero outside)
    def _clearance(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def clearance(self, x):
        """Signed clearance: distance to the complement, <= 0 outside."""
        pts, scalar = _as_points(x, self.dim)
        c = self._clearance(pts)
        return float(c[0]) if scalar else c

    def contains(self, x):
        return self.clearance(x) > SURFACE_TOL

    def dist_lb(self, x):
        c = self.clearance(x)
        outside = np.atleast_1d(c <= SURFACE_TOL)
        if outside.any():
            k = int(np.argmax(outside))
            pt = np.atleast_2d(np.asarray(x, dtype=float))[k]
            raise DomainError(f"dist_lb called at a point outside the domain: "
                              f"{pt.tolist()}")
        return c

    def truncate(self, xi, r: float, shell: float = 0.0) -> "Truncation":
        """D intersected with the open ball B(xi, r).

        A positive `shell` puts a stopping shell of that width at D's own
        boundary (see `Truncation`); the sphere gets none.
        """
        if not r > 0:
            raise DomainError("truncate needs r > 0")
        if not shell >= 0:
            raise DomainError("truncate needs shell >= 0")
        return Truncation(self, np.asarray(xi, dtype=float), r, shell)


# ===================================================================== #
# primitive shapes
# ===================================================================== #

@dataclass(frozen=True)
class Ball(Domain):
    """Open ball B(center, radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center",
                           np.atleast_1d(np.asarray(self.center, dtype=float)))
        if not self.radius > 0:
            raise ConfigError("ball radius must be positive")

    @property
    def dim(self):
        return self.center.shape[0]

    def _clearance(self, pts):
        return self.radius - _row_norm(pts - self.center)


@dataclass(frozen=True)
class HalfSpace(Domain):
    """Open half-space {x : normal . x > offset} (normal is normalized)."""

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        n = np.atleast_1d(np.asarray(self.normal, dtype=float))
        norm = np.linalg.norm(n)
        if norm == 0:
            raise ConfigError("half-space normal must be nonzero")
        object.__setattr__(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)

    @property
    def dim(self):
        return self.normal.shape[0]

    def _clearance(self, pts):
        return _row_dot(pts, self.normal) - self.offset


@dataclass(frozen=True)
class SlitPlane(Domain):
    """R^2 minus the closed ray {(t, 0) : t >= 0}."""

    dim: int = 2

    def __post_init__(self):
        if self.dim != 2:
            raise ConfigError("the slit plane is two-dimensional")

    def _clearance(self, pts):
        # distance to the slit: |x2| when x1 >= 0, else distance to the tip
        return np.where(pts[:, 0] >= 0.0,
                        np.abs(pts[:, 1]),
                        _row_norm(pts))


@dataclass(frozen=True)
class Cone(Domain):
    """Open circular cone {x : angle(x - vertex, axis) < half_angle}."""

    vertex: np.ndarray
    axis: np.ndarray
    half_angle: float

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.vertex, dtype=float))
        a = np.atleast_1d(np.asarray(self.axis, dtype=float))
        if v.shape != a.shape:
            raise ConfigError("cone vertex and axis must share a dimension")
        norm = np.linalg.norm(a)
        if norm == 0:
            raise ConfigError("cone axis must be nonzero")
        if not 0 < self.half_angle < np.pi:
            raise ConfigError("cone half-angle must lie in (0, pi)")
        object.__setattr__(self, "vertex", v)
        object.__setattr__(self, "axis", a / norm)

    @property
    def dim(self):
        return self.vertex.shape[0]

    def _clearance(self, pts):
        rel = pts - self.vertex
        s = _row_norm(rel)
        with np.errstate(invalid="ignore", divide="ignore"):
            cos_psi = np.where(
                s > 0, _row_dot(rel, self.axis) / np.where(s > 0, s, 1.0), 1.0)
        psi = np.arccos(np.clip(cos_psi, -1.0, 1.0))
        gap = self.half_angle - psi
        # nearest boundary point is the lateral surface unless the angular
        # gap exceeds a right angle, in which case it is the vertex
        d = np.where(gap >= np.pi / 2.0, s, s * np.sin(np.maximum(gap, -1.0)))
        return np.where(s == 0.0, 0.0, d)


@dataclass(frozen=True)
class SegmentComplement(Domain):
    """R^2 minus a finite union of closed segments."""

    segments: tuple   # of (a, b) pairs, each a 2-vector
    dim: int = 2

    def __post_init__(self):
        segs = tuple((np.asarray(a, dtype=float), np.asarray(b, dtype=float))
                     for a, b in self.segments)
        if not segs:
            raise ConfigError("need at least one segment")
        for a, b in segs:
            if a.shape != (2,) or b.shape != (2,):
                raise ConfigError("segments must join 2-d points")
        object.__setattr__(self, "segments", segs)

    def _clearance(self, pts):
        d = np.full(pts.shape[0], np.inf)
        for a, b in self.segments:
            d = np.minimum(d, _segment_distance(pts, a, b))
        return d


def box_minus_comb(teeth: int = 4, gap: float = 0.25) -> Domain:
    """The open unit square minus a comb of vertical teeth.

    Teeth hang from the bottom edge at x = k/(teeth+1) and reach up to
    height 1 - gap, leaving a corridor of width `gap` along the top.
    A stress-test geometry: the boundary is highly non-smooth, yet every
    boundary point still admits the boundary Harnack machinery.
    """
    if teeth < 1:
        raise ConfigError("comb needs at least one tooth")
    if not 0 < gap < 1:
        raise ConfigError("comb gap must lie in (0, 1)")
    box = Intersection([
        HalfSpace(np.array([1.0, 0.0]), 0.0),
        HalfSpace(np.array([-1.0, 0.0]), -1.0),
        HalfSpace(np.array([0.0, 1.0]), 0.0),
        HalfSpace(np.array([0.0, -1.0]), -1.0),
    ])
    segs = []
    for k in range(1, teeth + 1):
        xk = k / (teeth + 1)
        segs.append((np.array([xk, 0.0]), np.array([xk, 1.0 - gap])))
    return Intersection([box, SegmentComplement(tuple(segs))])


# ===================================================================== #
# composites
# ===================================================================== #

class _Composite(Domain):
    """Domains combined by `_reduce`, which folds the components'
    clearances; `_word` names the combination in errors."""

    def __init__(self, domains):
        domains = list(domains)
        if not domains:
            raise ConfigError(f"{self._word} of nothing")
        dims = {d.dim for d in domains}
        if len(dims) != 1:
            raise ConfigError("all components must share a dimension")
        self.components = domains
        self.dim = domains[0].dim

    def _clearance(self, pts):
        c = self.components[0]._clearance(pts)
        for d in self.components[1:]:
            c = self._reduce(c, d._clearance(pts))
        return c


class Intersection(_Composite):
    """Intersection of domains; clearance is the min over components.

    The min is the exact distance to the complement of the intersection,
    so dist_lb stays tight here.
    """

    _word = "intersection"
    _reduce = staticmethod(np.minimum)


class Truncation(Intersection):
    """D & B(xi, r), as built by `Domain.truncate`.

    Its clearance is that of any intersection.  It also keeps its two
    components apart for the walk on balls: `shell` is the width of a
    stopping shell at D's own boundary, and a walk over this set stops a
    walker where it stands once its clearance to D falls to `shell` or
    below (`sampler.walk_exit_batch_indexed`).  The truncating sphere
    carries no shell.  With `shell` = 0 the set walks as any intersection.
    """

    def __init__(self, D: Domain, xi: np.ndarray, r: float,
                 shell: float = 0.0):
        super().__init__([D, Ball(xi, r)])
        self.shell = float(shell)

    def shelled_clearance(self, pts):
        """(clearance, in_shell) of (m, d) points: the clearance of the
        set, and whether the clearance to D is at most `shell`."""
        pts, _ = _as_points(pts, self.dim)
        own = self.components[0]._clearance(pts)
        return np.minimum(own, self.components[1]._clearance(pts)), \
            own <= self.shell


class Union(_Composite):
    """Union of domains; clearance is the max over components.

    The max of the component clearances is a valid (possibly
    conservative) lower bound on the distance to the union's complement.
    """

    _word = "union"
    _reduce = staticmethod(np.maximum)
