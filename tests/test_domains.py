import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhplab.domains import (SURFACE_TOL, Ball, Cone, HalfSpace,
                            Intersection, SegmentComplement, SlitPlane, Union,
                            _row_norm, box_minus_comb, from_descriptor)
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
]


@pytest.mark.parametrize("D", DOMAINS, ids=lambda d: type(d).__name__)
def test_dist_lb_is_a_valid_lower_bound(D):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, size=(3000, 2))
    # the one oracle: membership and the bound both derive from clearance
    c = D.clearance(pts)
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


def test_truncate_keeps_anchor_point():
    T = SlitPlane().truncate([0.25, 0.0], 0.1)
    anchors = T.boundary_anchors
    assert len(anchors) == 1
    assert np.allclose(anchors[0], [0.25, 0.0])


def test_truncated_slit_tip_geometry():
    T = SlitPlane().truncate([0.25, 0.0], 0.1)
    assert T.contains([0.25, 1e-6])
    assert not T.contains([0.25, 0.0])
    assert not T.contains([0.25, 0.2])


# ------------------------------------------------------------------ #
# composites and anchors
# ------------------------------------------------------------------ #

def test_intersection_anchor_filtering():
    # the box keeps only anchors interior to the other components
    comb = box_minus_comb(4, 0.25)
    for a in comb.boundary_anchors:
        # every anchor is a boundary point: not inside, but arbitrarily
        # close to inside points
        assert not comb.contains(a)
        near = a + np.array([1e-6, 1e-6])
        near2 = a - np.array([1e-6, -1e-6])
        assert comb.contains(near) or comb.contains(near2)


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
# descriptor catalog
# ------------------------------------------------------------------ #

def test_from_descriptor_roundtrip():
    D = from_descriptor({"type": "ball", "center": [1.0, 0.0], "radius": 2.0})
    assert isinstance(D, Ball)
    assert D.dist_lb([1.0, 0.0]) == pytest.approx(2.0)

    D = from_descriptor({"type": "half-space", "normal": [0.0, 1.0]})
    assert isinstance(D, HalfSpace)

    D = from_descriptor({"type": "slit-plane"})
    assert isinstance(D, SlitPlane)

    D = from_descriptor({"type": "intersection", "components": [
        {"type": "ball", "center": [0.0], "radius": 1.0},
        {"type": "half-space", "normal": [1.0], "offset": 0.0},
    ]})
    assert D.contains([0.5]) and not D.contains([-0.5])


def test_from_descriptor_errors():
    with pytest.raises(ConfigError):
        from_descriptor({"radius": 1.0})
    with pytest.raises(ConfigError):
        from_descriptor({"type": "moebius-strip"})
    with pytest.raises(ConfigError):
        from_descriptor({"type": "cone", "vertex": [0.0, 0.0]})


def test_row_norm_is_bitwise_linalg_norm():
    g = np.random.default_rng(11)
    for d in range(1, 8):
        for mag in 10.0 ** np.arange(-12, 4):
            v = mag * g.standard_normal((257, d))
            assert np.array_equal(_row_norm(v), np.linalg.norm(v, axis=1))
