import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhplab.config import build_domain
from bhplab.domains import (SURFACE_TOL, Ball, Cone, HalfSpace, Intersection,
                            Polyhedron, SegmentComplement, SlitPlane,
                            Truncation, Union, _row_dot, _row_norm,
                            box_minus_comb)
from bhplab.errors import ConfigError, DomainError


# ------------------------------------------------------------------ #
# exact clearances on primitives
# ------------------------------------------------------------------ #

def test_ball_center_distance():
    D = Ball([0.0, 0.0], 1.0)
    assert D.dist_lb([0.0, 0.0]) == pytest.approx(1.0)
    assert D.dist_lb([0.5, 0.0]) == pytest.approx(0.5)
    assert D.contains([0.9, 0.0])
    assert not D.contains([1.0, 0.0])
    assert not D.contains([1.5, 0.0])


def test_halfspace_distance_is_signed_projection():
    D = HalfSpace([2.0, 0.0], 1.0)       # {x1 > 0.5} after normalization
    assert D.dist_lb([0.8, 3.0]) == pytest.approx(0.3)
    assert not D.contains([0.5, 0.0])


def test_slitplane_clearance_examples():
    D = SlitPlane()
    assert D.dist_lb([1.0, 0.5]) == pytest.approx(0.5)
    assert D.dist_lb([-3.0, 4.0]) == pytest.approx(5.0)  # tip distance
    assert not D.contains([2.0, 0.0])    # on the slit
    assert not D.contains([0.0, 0.0])    # the tip
    assert D.contains([-1.0, 0.0])       # the negative axis is open


def test_slitplane_matches_brute_force_segment_distance():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(200, 2)) * 2.0
    # brute force: min distance to a dense polyline on {(t,0): t>=0}
    t = np.concatenate([np.linspace(0, 10, 20_001), [1e9]])
    slit = np.column_stack([t, np.zeros_like(t)])
    brute = np.min(np.linalg.norm(pts[:, None, :] - slit[None, :, :], axis=2),
                   axis=1)
    D = SlitPlane()
    ok = brute > 1e-6
    assert np.allclose(D._clearance(pts)[ok], brute[ok], atol=1e-3)


def test_cone_clearance():
    D = Cone([0.0, 0.0], [1.0, 0.0], np.pi / 4.0)
    # on the axis, distance to the lateral surface is s*sin(pi/4)
    assert D.dist_lb([1.0, 0.0]) == pytest.approx(np.sin(np.pi / 4.0))
    assert not D.contains([0.0, 0.0])            # the vertex
    assert not D.contains([-1.0, 0.0])           # behind the vertex
    assert D.contains([1.0, 0.9])
    assert not D.contains([1.0, 1.1])


def test_wide_cone_uses_vertex_distance():
    # half-angle 3pi/4: points deep inside are nearer the vertex than
    # the lateral surface
    D = Cone([0.0, 0.0], [1.0, 0.0], 3.0 * np.pi / 4.0)
    assert D.dist_lb([2.0, 0.0]) == pytest.approx(2.0)


def test_segment_complement():
    D = SegmentComplement((([0.0, 0.0], [1.0, 0.0]),))
    assert D.dist_lb([0.5, 0.25]) == pytest.approx(0.25)
    assert D.dist_lb([2.0, 0.0]) == pytest.approx(1.0)
    assert not D.contains([0.5, 0.0])


# ------------------------------------------------------------------ #
# openness and the surface tolerance
# ------------------------------------------------------------------ #

def test_points_within_surface_tolerance_are_outside():
    D = Ball([0.0], 1.0)
    assert not D.contains([1.0 - 1e-13])
    with pytest.raises(DomainError):
        D.dist_lb([1.0 - 1e-13])


def test_dist_lb_raises_outside():
    D = HalfSpace([1.0, 0.0], 0.0)
    with pytest.raises(DomainError):
        D.dist_lb([-0.5, 0.0])
    with pytest.raises(DomainError):
        D.dist_lb(np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_dimension_mismatch_rejected():
    D = Ball([0.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        D.contains([0.0])
    with pytest.raises(DomainError):
        D.contains(np.zeros((5, 3)))


# ------------------------------------------------------------------ #
# the lower-bound contract: B(x, dist_lb(x)) stays inside the domain
# ------------------------------------------------------------------ #

DOMAINS = [
    Ball([0.3, -0.2], 1.7),
    HalfSpace([1.0, 1.0], 0.5),
    SlitPlane(),
    Cone([0.0, 0.0], [0.0, 1.0], 1.0),
    box_minus_comb(3, 0.3),
    Union([Ball([0.0, 0.0], 1.0), Ball([1.5, 0.0], 1.0)]),
    Intersection([Ball([0.0, 0.0], 2.0), HalfSpace([0.0, 1.0], -1.0)]),
    SegmentComplement((([-1.0, 0.0], [1.0, 0.0]), ([0.0, 0.5], [0.5, 1.5]))),
    # as eval_harmonic truncates at r = 1: B(xi, 2r), a shell of 1e-6 r
    SlitPlane().truncate([0.0, 0.0], 2.0, shell=1e-6),
]


@pytest.mark.parametrize("D", DOMAINS, ids=lambda d: type(d).__name__)
def test_dist_lb_is_a_valid_lower_bound(D):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, size=(3000, 2))
    # the one oracle: membership and the bound both derive from clearance
    c = D.clearance(pts)
    if isinstance(D, Truncation):
        # the walk steps by the shelled clearance
        assert np.array_equal(D.shelled_clearance(pts)[0], c)
    inside = D.contains(pts)
    assert np.array_equal(inside, c > SURFACE_TOL)
    assert D.contains(pts[0]) == (D.clearance(pts[0]) > SURFACE_TOL)
    pts = pts[inside]
    assert len(pts) > 50
    delta = D.dist_lb(pts)
    assert np.array_equal(delta, c[inside])
    assert np.all(delta > 0)
    # probe each ball B(x, 0.999 delta): every probe must stay inside
    theta = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    probe_dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    for frac in (0.5, 0.999):
        probes = (pts[:, None, :]
                  + frac * delta[:, None, None] * probe_dirs[None, :, :])
        flat = probes.reshape(-1, 2)
        # allow the open-set tolerance at the very surface
        bad = ~D.contains(flat)
        if np.any(bad):
            worst = D._clearance(flat[bad])
            assert np.all(worst > -1e-9), (
                f"{type(D).__name__}: probe at {frac} of dist_lb left the "
                f"domain by {float(-worst.min()):g}")


@given(st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=300, deadline=None)
def test_slitplane_lower_bound_hypothesis(x1, x2):
    D = SlitPlane()
    p = np.array([x1, x2])
    if not D.contains(p):
        return
    delta = D.dist_lb(p)
    # the nearest slit point is at distance >= delta
    t = np.linspace(0, 10, 4001)
    slit = np.column_stack([t, np.zeros_like(t)])
    assert np.min(np.linalg.norm(slit - p, axis=1)) >= delta - 1e-9


# ------------------------------------------------------------------ #
# truncation
# ------------------------------------------------------------------ #

def test_truncate_membership():
    D = HalfSpace([0.0, 1.0], 0.0)
    xi = np.array([0.0, 0.0])
    T = D.truncate(xi, 1.0)
    assert T.contains([0.0, 0.5])
    assert not T.contains([0.0, 1.5])     # outside the ball
    assert not T.contains([0.0, -0.5])    # outside the half-space
    assert T.dist_lb([0.0, 0.5]) == pytest.approx(0.5)


def test_truncate_requires_positive_radius():
    with pytest.raises(DomainError):
        Ball([0.0], 1.0).truncate([0.0], 0.0)


def test_truncated_slit_tip_geometry():
    T = SlitPlane().truncate([0.25, 0.0], 0.1)
    assert T.contains([0.25, 1e-6])
    assert not T.contains([0.25, 0.0])
    assert not T.contains([0.25, 0.2])


# ------------------------------------------------------------------ #
# composites
# ------------------------------------------------------------------ #

def test_union_clearance_is_max():
    U = Union([Ball([0.0], 1.0), Ball([1.5], 1.0)])
    # clearance from each ball: 1 - |0.9| = 0.1 and 1 - |0.9 - 1.5| = 0.4
    assert U.dist_lb([0.9]) == pytest.approx(max(1.0 - 0.9, 1.0 - 0.6))


def test_empty_composites_rejected():
    with pytest.raises(ConfigError):
        Intersection([])
    with pytest.raises(ConfigError):
        Union([])
    with pytest.raises(ConfigError):
        Intersection([Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0)])


def test_comb_validation():
    with pytest.raises(ConfigError):
        box_minus_comb(0, 0.25)
    with pytest.raises(ConfigError):
        box_minus_comb(4, 1.5)


# ------------------------------------------------------------------ #
# the JSON catalog
# ------------------------------------------------------------------ #

def test_build_domain_roundtrip():
    D = build_domain({"type": "ball", "center": [1.0, 0.0], "radius": 2.0})
    assert isinstance(D, Ball)
    assert D.dist_lb([1.0, 0.0]) == pytest.approx(2.0)

    D = build_domain({"type": "half-space", "normal": [0.0, 1.0]})
    assert isinstance(D, HalfSpace)

    D = build_domain({"type": "slit-plane"})
    assert isinstance(D, SlitPlane)

    D = build_domain({"type": "intersection", "components": [
        {"type": "ball", "center": [0.0], "radius": 1.0},
        {"type": "half-space", "normal": [1.0], "offset": 0.0},
    ]})
    assert D.contains([0.5]) and not D.contains([-0.5])


def test_build_domain_errors():
    with pytest.raises(ConfigError):
        build_domain({"radius": 1.0})
    with pytest.raises(ConfigError):
        build_domain({"type": "moebius-strip"})
    with pytest.raises(ConfigError):
        build_domain({"type": "cone", "vertex": [0.0, 0.0]})
    with pytest.raises(ConfigError):
        build_domain({"type": "comb"})          # a retired alias


def test_row_norm_is_bitwise_linalg_norm():
    g = np.random.default_rng(11)
    for d in range(1, 8):
        for mag in 10.0 ** np.arange(-12, 4):
            v = mag * g.standard_normal((257, d))
            assert np.array_equal(_row_norm(v), np.linalg.norm(v, axis=1))


# ------------------------------------------------------------------ #
# memory order: the walk passes column-major views of its positions
# ------------------------------------------------------------------ #

ORDER_DOMAINS = DOMAINS + [
    Ball([0.3, -0.2, 0.1], 1.0),
    HalfSpace([1.0, -2.0, 0.5], 0.3),
    Cone([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 2.5),
    # a zero-length segment is a point
    SegmentComplement((([0.2, 0.2], [0.2, 0.2]), ([-1.0, 0.0], [1.0, 0.0]),
                       ([-0.3, 0.7], [0.9, 1.6]))),
    Truncation(box_minus_comb(3, 0.3), [0.5, 0.5], 0.4, shell=1e-3),
]


def _probe_points(dim):
    g = np.random.default_rng(5)
    pts = 2.0 * g.standard_normal((300, dim))
    pts[0] = 0.0
    pts[1, :2] = [0.2, 0.2]
    pts[2, :2] = [0.5, 0.0]
    pts[3, :2] = [1.0 / 3.0, 0.5]
    return pts


@pytest.mark.parametrize("D", ORDER_DOMAINS, ids=lambda d: type(d).__name__)
def test_clearance_bits_do_not_depend_on_memory_order(D):
    pts = _probe_points(D.dim)
    fortran = np.asfortranarray(pts)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    assert np.array_equal(D.clearance(pts), D.clearance(fortran))
    if isinstance(D, Truncation):
        for a, b in zip(D.shelled_clearance(pts),
                        D.shelled_clearance(fortran)):
            assert np.array_equal(a, b)


def test_segment_clearance_bits_match_the_row_formula():
    # the column-wise clearance performs, per element, the operations of
    # the (m, 2) row formula it replaced, in the same order
    D = ORDER_DOMAINS[-2]
    pts = _probe_points(2)
    ref = np.full(len(pts), np.inf)
    for a, b in D.segments:
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            ref = np.minimum(ref, np.linalg.norm(pts - a, axis=1))
            continue
        rel = pts - a
        t = np.clip((rel[:, 0] * ab[0] + rel[:, 1] * ab[1]) / denom, 0.0, 1.0)
        ref = np.minimum(ref, np.linalg.norm(pts - (a + t[:, None] * ab),
                                             axis=1))
    for order in (pts, np.asfortranarray(pts)):
        assert np.array_equal(D.clearance(order), ref)


# ------------------------------------------------------------------ #
# flat pieces as (pieces x walkers) arrays
# ------------------------------------------------------------------ #

def _per_segment_clearance(D, pts):
    # one segment at a time, as SegmentComplement evaluated it before its
    # segments became rows of one array pass; a zero-length segment takes
    # the point distance
    x, y = pts[:, 0], pts[:, 1]
    d = np.full(len(x), np.inf)
    for a, b in D.segments:
        (ax, ay), (abx, aby) = a, b - a
        denom = float((b - a) @ (b - a))
        if denom == 0.0:
            ex, ey = x - ax, y - ay
        else:
            s = (x - ax) * abx
            s += (y - ay) * aby
            t = np.minimum(np.maximum(s / denom, 0.0), 1.0)
            ex, ey = x - (ax + t * abx), y - (ay + t * aby)
        d = np.minimum(d, np.sqrt(ex * ex + ey * ey))
    return d


def _per_row_clearance(normals, offsets, pts):
    # one normalized half-space at a time, folded by a running min
    c = None
    for n, o in zip(normals, offsets):
        norm = np.linalg.norm(n)
        row = _row_dot(pts, np.asarray(n, dtype=float) / norm) - o / norm
        c = row if c is None else np.minimum(c, row)
    return c


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _points_with_non_finite_rows(dim, m=400):
    pts = _probe_points(dim)[:m].copy()
    specials = [np.inf, -np.inf, np.nan, 0.5]
    rows = [[u, v] for u in specials for v in specials][:-1]
    pts[4:4 + len(rows), :2] = rows
    return np.asfortranarray(pts)


# eleven segments: two passes, with a zero-length segment in each
MANY_SEGMENTS = SegmentComplement(tuple(
    [([0.2, 0.2], [0.2, 0.2])]
    + [([-1.0 + 0.2 * k, -0.5], [-0.8 + 0.2 * k, 0.4 * k]) for k in range(9)]
    + [([1.5, -1.5], [1.5, -1.5])]))


@pytest.mark.parametrize("D", [MANY_SEGMENTS, ORDER_DOMAINS[-2]],
                         ids=["two-passes", "one-pass"])
def test_segment_pass_bits_match_per_segment_at_non_finite_points(D):
    # an escaped walker sits at +-inf or NaN; the walk evaluates it with
    # overflow and invalid-value warnings off, and no other warning (a
    # division by a zero-length segment's |b - a|^2) may be raised
    pts = _points_with_non_finite_rows(2)
    with np.errstate(over="ignore", invalid="ignore"):
        got = D.clearance(pts)
        ref = _per_segment_clearance(D, pts)
    assert np.array_equal(_bits(got), _bits(ref))
    assert np.isnan(got).any() and np.isinf(got).any()
    # at finite points, no floating-point state is needed at all
    finite = _probe_points(2)
    assert np.array_equal(_bits(D.clearance(finite)),
                          _bits(_per_segment_clearance(D, finite)))


@pytest.mark.parametrize("dim,k", [(1, 3), (2, 4), (2, 12), (3, 17)])
def test_polyhedron_equals_the_intersection_of_its_rows(dim, k):
    g = np.random.default_rng(dim * 100 + k)
    normals = g.standard_normal((k, dim)) * 10.0 ** g.uniform(-3, 3, (k, 1))
    offsets = g.standard_normal(k)
    P = Polyhedron(normals, offsets)
    both = Intersection([HalfSpace(n, o) for n, o in zip(normals, offsets)])
    pts = (_points_with_non_finite_rows(dim) if dim > 1 else
           np.array([[np.inf], [-np.inf], [np.nan], [0.0], [-0.3], [2.0]]))
    with np.errstate(over="ignore", invalid="ignore"):
        got = P.clearance(pts)
        assert np.array_equal(_bits(got), _bits(both.clearance(pts)))
        assert np.array_equal(
            _bits(got), _bits(_per_row_clearance(normals, offsets, pts)))


def test_comb_box_is_one_polyhedron():
    box, teeth = box_minus_comb(4, 0.25).components
    assert isinstance(box, Polyhedron) and len(box.offsets) == 4
    assert isinstance(teeth, SegmentComplement) and len(teeth.segments) == 4


@pytest.mark.parametrize("D", [box_minus_comb(), MANY_SEGMENTS,
                               Polyhedron(np.eye(2).tolist() * 5,
                                          np.linspace(-1.0, 0.0, 10))],
                         ids=["comb", "segments", "polyhedron"])
def test_clearance_alone_equals_clearance_in_a_batch(D):
    g = np.random.default_rng(3)
    pts = np.asfortranarray(g.uniform(-0.5, 1.5, (2 ** 14, 2)))
    batch = D.clearance(pts)
    for i in g.choice(len(pts), 40, replace=False):
        assert _bits(D.clearance(pts[i])) == _bits(batch[i])
        assert _bits(D.clearance(pts[i:i + 1])) == _bits(batch[i])


def test_segment_clearance_memory_is_bounded_by_the_pass_size():
    # 1000 segments at 2^14 walkers: (pieces x walkers) at once would hold
    # 131 MB per array; a pass holds 8 rows of the walkers
    g = np.random.default_rng(8)
    a = g.uniform(-1.0, 1.0, (1000, 2))
    D = SegmentComplement(tuple(zip(a, a + g.uniform(-0.1, 0.1, (1000, 2)))))
    m = 2 ** 14
    pts = np.asfortranarray(g.uniform(-2.0, 2.0, (m, 2)))
    D.clearance(pts[:8])
    tracemalloc.start()
    try:
        c = D.clearance(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.shape == (m,)
    # two work arrays of 8 rows are 2 MiB, the running min and one pass's
    # row min 128 kiB each
    assert peak < 2.5 * 2 ** 20


def test_domains_refuse_non_finite_or_overflowing_geometry():
    cases = [
        (lambda: HalfSpace([1e308, 1e308]), "half-space normal"),
        (lambda: HalfSpace([np.inf, 0.0]), "half-space normal"),
        (lambda: HalfSpace([0.0, 0.0]), "half-space normal"),
        # its squared norm underflows to 0
        (lambda: HalfSpace([1e-200, 0.0]), "half-space normal"),
        (lambda: HalfSpace([0.0, 1.0], np.nan), "half-space offset"),
        (lambda: HalfSpace([0.0, 1e-150], 1e300), "half-space offset"),
        (lambda: Ball([np.nan, 0.0], 1.0), "ball center"),
        (lambda: Ball([0.0, 0.0], np.inf), "ball radius"),
        (lambda: Ball([0.0, 0.0], np.nan), "ball radius"),
        (lambda: Cone([0.0, np.inf], [0.0, 1.0], 1.0), "cone vertex"),
        (lambda: Cone([0.0, 0.0], [1e308, 1e308], 1.0), "cone axis"),
        (lambda: Cone([0.0, 0.0], [0.0, 1.0], np.nan), "half-angle"),
        (lambda: SegmentComplement((([0.0, 0.0], [np.nan, 1.0]),)),
         "segment endpoint"),
        (lambda: SegmentComplement((([0.0, 0.0], [1e400, 0.0]),)),
         "segment endpoint"),
        (lambda: SegmentComplement((([-1e200, 0.0], [1e200, 0.0]),)),
         "segment endpoints"),
    ]
    for build, name in cases:
        with pytest.raises(ConfigError, match=name):
            build()
    # a finite normal keeps the bits of its normalization
    D = HalfSpace([0.3, 1.0], -0.5)
    n = np.array([0.3, 1.0])
    assert np.array_equal(D.normals[0], n / np.linalg.norm(n))
    assert D.offsets[0] == -0.5 / np.linalg.norm(n)
