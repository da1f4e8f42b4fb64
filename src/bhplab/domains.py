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

A shape's ``_clearance(pts)`` must compute each row's value from that
row alone, with elementwise operations, so that a walker's clearance does
not depend on who walks with it; and it must accept (m, d) points in any
memory order, giving the same bits for each.  The walk on balls passes a
column-major view, so the shapes here sum over coordinates a column at a
time (``_row_dot``, ``_row_norm``), never along a row.

The flat shapes, a ``Polyhedron``'s half-space rows (a ``HalfSpace`` is
its one-row case) and a ``SegmentComplement``'s segments, lay their pieces
out as (pieces x walkers) arrays: each piece's constants are an (r, 1)
column, each numpy operation acts on an (r, m) array for all m walkers at
once, and ``np.minimum.reduce`` folds the rows.  A clearance call thus
makes a fixed number of numpy calls per pass, not per piece.  A pass takes
at most ``_PASS_ROWS`` = 8 pieces, and every pass reuses the same two
(r, m) work arrays in place, so a call holds O(8 m) floats (2 MiB at
``sampler.LOCKSTEP_WALKERS`` = 2^14 walkers) whatever the piece count.
Each element goes through the operations of the one-piece formula in
their order, so the bits are those of evaluating one piece at a time (a
segment complement takes one square root of its min squared distance,
which is the min of the roots bit for bit, as sqrt is monotone).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

SURFACE_TOL = 1e-12
# pieces of a flat shape (half-space rows, segments) that one array pass
# evaluates; its work arrays hold at most 2 * _PASS_ROWS floats per walker
_PASS_ROWS = 8


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


def _finite(name: str, value) -> np.ndarray:
    """`value` as a 1-d float array; ConfigError naming `name` unless
    every entry is finite."""
    a = np.atleast_1d(np.asarray(value, dtype=float))
    if not np.isfinite(a).all():
        raise ConfigError(f"{name} must be finite, got {a.tolist()}")
    return a


def _unit(name: str, value) -> tuple:
    """(value / |value|, |value|) for a finite vector; ConfigError naming
    `name` unless its squared norm neither underflows to 0 nor overflows."""
    v = _finite(name, value)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not 0 < norm < np.inf:
        raise ConfigError(f"{name} must have a squared norm that is a "
                          f"nonzero finite float, got {v.tolist()}")
    return v / norm, norm


def _passes(columns) -> tuple:
    """Per-piece constants, equal-length (k,) columns, cut into passes of
    at most _PASS_ROWS pieces, each column an (r, 1) array that broadcasts
    against the m walkers of a coordinate column."""
    return tuple(tuple(col[lo:lo + _PASS_ROWS, None] for col in columns)
                 for lo in range(0, len(columns[0]), _PASS_ROWS))


def _work_arrays(passes, m: int) -> np.ndarray:
    """Two empty (r, m) work arrays, r the row count of the first (largest)
    pass, which every pass of a clearance call reuses.  They are made as
    one (2, r, m) block: with glibc's malloc, two separate blocks of a few
    hundred kB, freed together, were handed back to the system after each
    call and faulted in again on the next, which made a comb clearance
    call at 15,000 walkers about 40% slower than one piece at a time."""
    return np.empty((2, len(passes[0][0]), m))


def _fold_min(c, w):
    """The running min c (None before the first pass) folded with the
    (r, m) clearances w of one pass, a row at a time in piece order."""
    low = np.minimum.reduce(w)
    return low if c is None else np.minimum(c, low, out=c)


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
        object.__setattr__(self, "center", _finite("ball center", self.center))
        if not 0 < self.radius < np.inf:
            raise ConfigError(f"ball radius must be positive and finite, got "
                              f"{self.radius!r}")

    @property
    def dim(self):
        return self.center.shape[0]

    def _clearance(self, pts):
        return self.radius - _row_norm(pts - self.center)


class Polyhedron(Domain):
    """Open convex polyhedron: the intersection of the open half-spaces
    {x : n_i . x > o_i}, one row (n_i, o_i) each, normals normalized.

    Its clearance min_i (n_i . x - o_i) is exact: each row is the signed
    distance to one face.  The rows are evaluated a pass at a time as
    (rows, m) arrays (see the module docstring).
    """

    def __init__(self, normals, offsets):
        rows = []
        for n, o in zip(normals, offsets, strict=True):
            n, norm = _unit("half-space normal", n)
            with np.errstate(over="ignore"):
                unit_offset = float(o) / norm
            if not np.isfinite(unit_offset):
                raise ConfigError(f"half-space offset {o!r} divided by "
                                  f"|normal| = {norm:g} must be finite")
            rows.append((n, unit_offset))
        if not rows:
            raise ConfigError("a polyhedron needs at least one half-space")
        if len({len(n) for n, _ in rows}) != 1:
            raise ConfigError("all half-spaces must share a dimension")
        self.normals = np.array([n for n, _ in rows])
        self.offsets = np.array([o for _, o in rows])
        self.dim = self.normals.shape[1]
        self._passes = _passes([*self.normals.T, self.offsets])

    def _clearance(self, pts):
        # each row's n . x summed a coordinate column at a time, as
        # _row_dot sums it, in place on two (r, m) work arrays w and t
        w, t = _work_arrays(self._passes, len(pts))
        c = None
        for *n, off in self._passes:
            wr, tr = w[:len(off)], t[:len(off)]
            np.multiply(n[0], pts[:, 0], out=wr)
            for k in range(1, self.dim):
                wr += np.multiply(n[k], pts[:, k], out=tr)
            wr -= off
            c = _fold_min(c, wr)
        return c


class HalfSpace(Polyhedron):
    """Open half-space {x : normal . x > offset} (normal is normalized):
    the one-row polyhedron."""

    def __init__(self, normal, offset: float = 0.0):
        super().__init__([normal], [offset])


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
        v = _finite("cone vertex", self.vertex)
        a = np.atleast_1d(np.asarray(self.axis, dtype=float))
        if v.shape != a.shape:
            raise ConfigError("cone vertex and axis must share a dimension")
        a, _ = _unit("cone axis", a)
        if not 0 < self.half_angle < np.pi:
            raise ConfigError("cone half-angle must lie in (0, pi)")
        object.__setattr__(self, "vertex", v)
        object.__setattr__(self, "axis", a)

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
        segs = tuple((_finite("segment endpoint", a),
                      _finite("segment endpoint", b))
                     for a, b in self.segments)
        if not segs:
            raise ConfigError("need at least one segment")
        for a, b in segs:
            if a.shape != (2,) or b.shape != (2,):
                raise ConfigError("segments must join 2-d points")
        object.__setattr__(self, "segments", segs)
        # each segment as a, b - a and |b - a|^2 by coordinates, fixed for
        # every walk step
        with np.errstate(over="ignore"):
            ax, ay, abx, aby, den = np.array(
                [(*a, *(b - a), (b - a) @ (b - a)) for a, b in segs]).T
        if not np.isfinite(den).all():
            a, b = segs[int(np.argmin(np.isfinite(den)))]
            raise ConfigError(f"segment endpoints {a.tolist()} and "
                              f"{b.tolist()} lie too far apart: |b - a|^2 "
                              f"overflows")
        # a zero-length segment is its point a: its t is set to 0, and its
        # |b - a|^2 to 1 so that no division by zero is made
        zero = den == 0.0
        object.__setattr__(self, "_passes", tuple(
            (*p[:-1], np.flatnonzero(p[-1])) for p in
            _passes([ax, ay, abx, aby, np.where(zero, 1.0, den), zero])))

    def _clearance(self, pts):
        # the squared distance to each segment's nearest point a + t (b - a),
        # with the operations of _row_dot and _row_norm in their order, in
        # place on two (r, m) work arrays t and e; then one square root of
        # the min, which is the min of the square roots bit for bit, since
        # a correctly rounded sqrt is monotone
        x, y = pts[:, 0], pts[:, 1]
        t_work, e_work = _work_arrays(self._passes, len(x))
        c = None
        for ax, ay, abx, aby, den, zero in self._passes:
            t, e = t_work[:len(ax)], e_work[:len(ax)]
            np.subtract(x, ax, out=t)
            t *= abx
            np.subtract(y, ay, out=e)
            e *= aby
            t += e
            t /= den
            np.maximum(t, 0.0, out=t)
            np.minimum(t, 1.0, out=t)
            if len(zero):
                t[zero] = 0.0
            # e = y - (ay + t * aby), then t = x - (ax + t * abx)
            np.multiply(t, aby, out=e)
            e += ay
            np.subtract(y, e, out=e)
            t *= abx
            t += ax
            np.subtract(x, t, out=t)
            t *= t
            e *= e
            t += e
            c = _fold_min(c, t)
        return np.sqrt(c, out=c)


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
    box = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                     [0.0, -1.0, 0.0, -1.0])
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
    so the clearance stays tight here.
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
