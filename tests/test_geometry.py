import math

import numpy as np
import pytest

from beamsim import geometry
from beamsim.errors import GeometryError, ValidationError
from beamsim.geometry import (
    BEAM_CENTER_SECTOR,
    NormalizedPolar,
    SectorGrid,
    normalized_polar_from_xy,
    ray_boundary_distance,
    sectorise,
    to_normalized_polar,
)

from conftest import beam_from_xy, regular_polygon_xy

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# edge radius: distance from the beam center to the boundary along an azimuth
# ---------------------------------------------------------------------------

def edge_radius(beam, phi):
    return ray_boundary_distance(beam.boundary_xy, phi)


def test_edge_radius_circle_is_constant(circle_beam):
    for phi in np.linspace(0.0, TAU, 17, endpoint=False):
        assert edge_radius(circle_beam, phi) == pytest.approx(250.0, rel=2e-4)


def test_edge_radius_hexagon_vertex_vs_midpoint(hexagon_beam):
    # vertices sit at phi = 0, 60, ... degrees; edge midpoints at 30, 90, ...
    r_vertex = edge_radius(hexagon_beam, 0.0)
    r_mid = edge_radius(hexagon_beam, math.pi / 6.0)
    assert r_vertex > r_mid
    assert r_vertex / r_mid == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-9)


def test_edge_radius_square_toward_corner(square_beam):
    a = 100.0
    assert edge_radius(square_beam, math.pi / 4.0) == pytest.approx(a * math.sqrt(2.0), rel=1e-9)
    assert edge_radius(square_beam, 0.0) == pytest.approx(a, rel=1e-9)


def test_edge_radius_missing_boundary_raises():
    # polygon translated away from the origin: the +x ray never meets it
    poly = regular_polygon_xy(6, 10.0) + np.array([-100.0, 0.0])
    with pytest.raises(GeometryError):
        ray_boundary_distance(poly, 0.0)


def test_non_star_shaped_polygon_warns_and_takes_nearest():
    # a pocket hanging from the top edge dips across the +x axis, so the ray
    # from the origin crosses the boundary at x = 8, 10, and 15
    poly = np.array([
        (-5.0, -5.0), (15.0, -5.0), (15.0, 5.0), (10.0, 5.0),
        (10.0, -2.0), (8.0, -2.0), (8.0, 5.0), (-5.0, 5.0),
    ])
    assert bool(geometry.point_in_polygon(poly, 0.0, 0.0))
    with pytest.warns(UserWarning, match="not star-shaped"):
        d = geometry.ray_boundary_distance(poly, 0.0)
    assert d == pytest.approx(8.0, rel=1e-9)


# ---------------------------------------------------------------------------
# to_normalized_polar
# ---------------------------------------------------------------------------

def test_center_maps_to_origin(hexagon_beam):
    p = to_normalized_polar(hexagon_beam, hexagon_beam.center_lat, hexagon_beam.center_lon)
    assert p.radius == 0.0
    assert p.phi == 0.0


def test_boundary_maps_to_unit_radius(hexagon_beam):
    # vertices and edge midpoints both lie exactly on the boundary
    for lat, lon in hexagon_beam.boundary:
        p = to_normalized_polar(hexagon_beam, lat, lon)
        assert p.radius >= 1.0 - 1e-9
    mids = geometry.edge_midpoints_xy(hexagon_beam.boundary_xy)
    lat, lon = geometry.unproject_tangent(
        hexagon_beam.center_lat, hexagon_beam.center_lon, mids[:, 0], mids[:, 1]
    )
    for la, lo in zip(lat, lon):
        p = to_normalized_polar(hexagon_beam, la, lo)
        assert p.radius >= 1.0 - 1e-9


def test_halfway_point_in_circle_beam(circle_beam):
    lat, lon = geometry.unproject_tangent(
        circle_beam.center_lat, circle_beam.center_lon, 125.0, 0.0
    )
    p = to_normalized_polar(circle_beam, float(lat), float(lon))
    assert p.radius == pytest.approx(0.5, rel=2e-4)
    assert p.phi == pytest.approx(0.0, abs=1e-9) or p.phi == pytest.approx(TAU, abs=1e-9)


def test_outside_point_raises(hexagon_beam):
    lat, lon = geometry.unproject_tangent(
        hexagon_beam.center_lat, hexagon_beam.center_lon, 400.0, 0.0
    )
    with pytest.raises(ValidationError):
        to_normalized_polar(hexagon_beam, float(lat), float(lon))


def test_scale_invariance(hexagon_beam):
    rng = np.random.default_rng(7)
    base_xy = regular_polygon_xy(6, 250.0)
    for scale in (0.5, 2.0, 7.0):
        scaled_beam = beam_from_xy(base_xy * scale)
        for _ in range(50):
            phi = rng.uniform(0.0, TAU)
            r = rng.uniform(0.0, 0.99)
            x = r * 216.0 * math.cos(phi)   # inside the inradius for any angle
            y = r * 216.0 * math.sin(phi)
            p0 = normalized_polar_from_xy(hexagon_beam.boundary_xy, x, y)
            p1 = normalized_polar_from_xy(scaled_beam.boundary_xy, x * scale, y * scale)
            assert p1.phi == pytest.approx(p0.phi, abs=1e-9)
            assert p1.radius == pytest.approx(p0.radius, abs=1e-9)


# ---------------------------------------------------------------------------
# sector grid
# ---------------------------------------------------------------------------

def table_grid():
    # three rings x three wedges (the table setup with angles pi/2, pi, 2pi)
    return SectorGrid((0.2, 0.6, 0.8, 1.0), (math.pi / 2.0, math.pi, TAU))


def test_sector_counts():
    grid = table_grid()
    assert grid.n_rings == 3 and grid.n_wedges == 3
    assert grid.n_sectors == 10
    quad = SectorGrid((0.2, 0.6, 0.8, 1.0), (math.pi / 2, math.pi, 3 * math.pi / 2, TAU))
    assert quad.n_sectors == 13


@pytest.mark.parametrize(
    "radii,angles",
    [
        ((0.1, 1.0), (TAU,)),
        ((0.2, 0.5, 1.0), (1.0, 2.0, TAU)),
        ((0.3, 0.4, 0.9, 1.0), (0.5, 1.5, 2.5, 4.0, TAU)),
    ],
)
def test_sector_count_formula(radii, angles):
    grid = SectorGrid(radii, angles)
    assert grid.n_sectors == grid.n_rings * grid.n_wedges + 1


def test_assign_beam_center():
    grid = table_grid()
    assert grid.assign(NormalizedPolar(1.0, 0.1)) == BEAM_CENTER_SECTOR
    # closed upper bound: exactly r_BC still belongs to the center disc
    assert grid.assign(NormalizedPolar(2.0, 0.2)) == BEAM_CENTER_SECTOR


def test_assign_ring_wedge_against_hand_enumeration():
    grid = table_grid()
    # hand enumeration of the cell bounds: r = 0.7 lies in (0.6, 0.8] -> ring 2;
    # phi = 3pi/4 lies in (pi/2, pi] -> wedge 2; sector index = (2-1)*3 + 2 = 5
    q = grid.assign(NormalizedPolar(3.0 * math.pi / 4.0, 0.7))
    assert grid.ring_wedge(q) == (2, 2)
    assert q == 5


def test_assign_phi_zero_wraps_to_last_wedge():
    grid = table_grid()
    q = grid.assign(NormalizedPolar(0.0, 0.9))
    ring, wedge = grid.ring_wedge(q)
    assert ring == 3 and wedge == 3  # phi = 0 read as 2pi -> last wedge


def test_partition_totality_and_counts(hexagon_beam):
    grid = table_grid()
    rng = np.random.default_rng(11)
    n = 10_000
    counts = np.zeros(grid.n_sectors, dtype=int)
    accepted = 0
    lo = hexagon_beam.boundary_xy.min(axis=0)
    hi = hexagon_beam.boundary_xy.max(axis=0)
    while accepted < n:
        cand = rng.uniform(lo, hi, size=(2 * (n - accepted), 2))
        ok = geometry.point_in_polygon(hexagon_beam.boundary_xy, cand[:, 0], cand[:, 1])
        for x, y in cand[ok][: n - accepted]:
            p = normalized_polar_from_xy(hexagon_beam.boundary_xy, x, y)
            q = grid.assign(p)
            assert 0 <= q < grid.n_sectors
            counts[q] += 1
            accepted += 1
    assert counts.sum() == n
    assert (counts > 0).all()  # every sector is hit at this sample size


def test_sectorise_groups_members():
    grid = table_grid()
    polars = [
        NormalizedPolar(1.0, 0.05),                 # BC
        NormalizedPolar(3 * math.pi / 4, 0.7),      # sector 5
        NormalizedPolar(3 * math.pi / 4, 0.65),     # sector 5
        NormalizedPolar(0.1, 0.95),                 # ring 3, wedge 1 -> 7
    ]
    s = sectorise(grid, beam_id=1, polars=polars)
    assert list(s.members[BEAM_CENTER_SECTOR]) == [0]
    assert list(s.members[5]) == [1, 2]
    assert list(s.members[7]) == [3]
    assert sum(len(m) for m in s.members) == 4
    assert s.grid.assign(polars[1]) == 5
    assert grid.assign(polars[0]) == BEAM_CENTER_SECTOR


def test_neighbor_order_prefers_close_rings_then_wedges():
    grid = table_grid()
    # sector 5 = (ring 2, wedge 2): same-ring wedge neighbours 4 and 6 first
    order = grid.neighbor_order(5)
    assert set(order) == set(range(grid.n_sectors)) - {5}
    assert set(order[:2]) == {4, 6}
    # beam-center: nearest are the ring-1 sectors 1..3
    assert set(grid.neighbor_order(BEAM_CENTER_SECTOR)[:3]) == {1, 2, 3}


@pytest.mark.parametrize(
    "radii,angles",
    [
        ((0.2, 0.6), (TAU,)),             # radii do not end at 1.0
        ((0.2, 0.2, 1.0), (TAU,)),        # not strictly ascending
        ((-0.1, 1.0), (TAU,)),            # non-positive radius
        ((0.2, 1.0), (math.pi,)),         # angles do not end at 2pi
        ((0.2, 1.0), (3.0, 2.0, TAU)),    # angles not ascending
    ],
)
def test_bad_grid_rejected(radii, angles):
    with pytest.raises(ValidationError):
        SectorGrid(radii, angles)
