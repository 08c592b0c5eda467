import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamsim import geometry
from beamsim.errors import GeometryError, ValidationError
from beamsim.geometry import (
    BEAM_CENTER_SECTOR,
    SectorGrid,
    normalized_polar_from_xy,
    point_in_polygon,
    ray_boundary_distance,
)

from conftest import beam_from_xy, regular_polygon_xy

TAU = 2.0 * math.pi


# ---------------------------------------------------------------------------
# edge radius: distance from the beam center to the boundary along an azimuth
# ---------------------------------------------------------------------------

def edge_radius(beam, phi):
    return ray_boundary_distance(beam.boundary_xy, phi)


def test_edge_radius_circle_is_constant(circle_beam):
    phi = np.linspace(0.0, TAU, 17, endpoint=False)
    assert edge_radius(circle_beam, phi) == pytest.approx(np.full(17, 250.0), rel=2e-4)


def test_edge_radius_hexagon_vertex_vs_midpoint(hexagon_beam):
    # vertices sit at phi = 0, 60, ... degrees; edge midpoints at 30, 90, ...
    r_vertex, r_mid = edge_radius(hexagon_beam, [0.0, math.pi / 6.0])
    assert r_vertex > r_mid
    assert r_vertex / r_mid == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-9)


def test_edge_radius_square_toward_corner(square_beam):
    a = 100.0
    assert edge_radius(square_beam, [math.pi / 4.0, 0.0]) == pytest.approx(
        [a * math.sqrt(2.0), a], rel=1e-9
    )


def test_edge_radius_missing_boundary_raises():
    # polygon translated away from the origin: the -x ray meets it, the +x ray never does
    poly = regular_polygon_xy(6, 10.0) + np.array([-100.0, 0.0])
    with pytest.raises(GeometryError, match=r"phi=0\.000000 rad"):
        ray_boundary_distance(poly, [math.pi, 0.0])


def test_non_star_shaped_polygon_warns_and_takes_nearest():
    # a pocket hanging from the top edge dips across the +x axis, so the rays
    # from the origin near phi = 0 cross the boundary at x = 8, 10 and 15; the
    # others, including the ray through the vertex (-5, 5), cross once
    poly = np.array([
        (-5.0, -5.0), (15.0, -5.0), (15.0, 5.0), (10.0, 5.0),
        (10.0, -2.0), (8.0, -2.0), (8.0, 5.0), (-5.0, 5.0),
    ])
    assert bool(geometry.point_in_polygon(poly, 0.0, 0.0))
    pocket = np.array([0.0, 0.1, -0.1, 0.2])
    once = np.array([math.pi / 2.0, math.pi, 1.5 * math.pi, 0.75 * math.pi])
    with pytest.warns(UserWarning, match="not star-shaped: 4 of 8 rays") as record:
        d = geometry.ray_boundary_distance(poly, np.concatenate([pocket, once]))
    assert len(record) == 1
    assert d[:4] * np.cos(pocket) == pytest.approx(np.full(4, 8.0), rel=1e-9)
    assert d[4:] == pytest.approx([5.0, 5.0, 5.0, 5.0 * math.sqrt(2.0)], rel=1e-9)


# ---------------------------------------------------------------------------
# normalized polar coordinates
# ---------------------------------------------------------------------------

def polar(beam, lat, lon):
    x, y = geometry.project_tangent(beam.center_lat, beam.center_lon, lat, lon)
    return normalized_polar_from_xy(beam.boundary_xy, x, y)


def test_center_maps_to_origin(hexagon_beam):
    phi, radius = polar(hexagon_beam, [hexagon_beam.center_lat], [hexagon_beam.center_lon])
    assert radius[0] == 0.0
    assert phi[0] == 0.0


def test_boundary_maps_to_unit_radius(hexagon_beam):
    # vertices and edge midpoints both lie exactly on the boundary
    _, radius = polar(hexagon_beam, *hexagon_beam.boundary.T)
    assert (radius >= 1.0 - 1e-9).all()
    mids = geometry.edge_midpoints_xy(hexagon_beam.boundary_xy)
    lat, lon = geometry.unproject_tangent(
        hexagon_beam.center_lat, hexagon_beam.center_lon, mids[:, 0], mids[:, 1]
    )
    _, radius = polar(hexagon_beam, lat, lon)
    assert (radius >= 1.0 - 1e-9).all()


def test_halfway_point_in_circle_beam(circle_beam):
    lat, lon = geometry.unproject_tangent(
        circle_beam.center_lat, circle_beam.center_lon, [125.0], [0.0]
    )
    phi, radius = polar(circle_beam, lat, lon)
    assert radius[0] == pytest.approx(0.5, rel=2e-4)
    assert phi[0] == pytest.approx(0.0, abs=1e-9) or phi[0] == pytest.approx(TAU, abs=1e-9)


def test_outside_point_clamps_to_unit_radius(hexagon_beam):
    lat, lon = geometry.unproject_tangent(
        hexagon_beam.center_lat, hexagon_beam.center_lon, [100.0, 400.0], [0.0, 0.0]
    )
    _, radius = polar(hexagon_beam, lat, lon)
    assert radius[0] == pytest.approx(0.4, rel=1e-3)
    assert radius[1] == 1.0


def test_scale_invariance(hexagon_beam):
    rng = np.random.default_rng(7)
    base_xy = regular_polygon_xy(6, 250.0)
    for scale in (0.5, 2.0, 7.0):
        scaled_beam = beam_from_xy(base_xy * scale)
        phi = rng.uniform(0.0, TAU, 50)
        r = rng.uniform(0.0, 0.99, 50)
        x = r * 216.0 * np.cos(phi)   # inside the inradius for any angle
        y = r * 216.0 * np.sin(phi)
        phi0, r0 = normalized_polar_from_xy(hexagon_beam.boundary_xy, x, y)
        phi1, r1 = normalized_polar_from_xy(scaled_beam.boundary_xy, x * scale, y * scale)
        assert phi1 == pytest.approx(phi0, abs=1e-9)
        assert r1 == pytest.approx(r0, abs=1e-9)


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


@pytest.mark.parametrize("radii,angles", [
    ((0.2, 0.6, 1.0 - 5e-13), (math.pi, TAU)),
    ((0.2, 0.6, 1.0 + 5e-10), (math.pi, TAU)),
    ((0.2, 0.6, 1.0), (math.pi, TAU - 5e-10)),
    ((0.2, 0.6, 1.0), (math.pi, TAU + 5e-10)),
])
def test_grid_ends_within_tolerance_snap_to_exact_bounds(radii, angles):
    # a last radius or angle just inside its bound used to label points on the
    # boundary past the last sector, which the GSA scheduler then never served
    grid = SectorGrid(radii, angles)
    assert (grid.radii[-1], grid.angles[-1]) == (1.0, TAU)
    exact = SectorGrid((0.2, 0.6, 1.0), (math.pi, TAU))
    phi = np.array([0.0, 0.5, math.pi, TAU - 1e-10, TAU])
    phi, radius = np.meshgrid(phi, [0.1, 0.6, 0.8, 1.0 - 1e-12, 1.0])
    labels = grid.assign(phi, radius)
    assert np.array_equal(labels, exact.assign(phi, radius))
    assert labels.max() == grid.n_sectors - 1 == 4


def test_assign_beam_center():
    grid = table_grid()
    # closed upper bound: exactly r_BC still belongs to the center disc
    assert grid.assign([1.0, 2.0], [0.1, 0.2]).tolist() == [BEAM_CENTER_SECTOR] * 2


def test_assign_ring_wedge_against_hand_enumeration():
    grid = table_grid()
    # hand enumeration of the cell bounds: r = 0.7 lies in (0.6, 0.8] -> ring 2;
    # phi = 3pi/4 lies in (pi/2, pi] -> wedge 2; sector index = (2-1)*3 + 2 = 5
    (q,) = grid.assign([3.0 * math.pi / 4.0], [0.7])
    assert grid.ring_wedge(q) == (2, 2)
    assert q == 5


def test_assign_phi_zero_wraps_to_last_wedge():
    grid = table_grid()
    for q in grid.assign([0.0, TAU], [0.9, 0.9]):
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
        x, y = cand[ok][: n - accepted].T
        phi, radius = normalized_polar_from_xy(hexagon_beam.boundary_xy, x, y)
        q = grid.assign(phi, radius)
        assert ((0 <= q) & (q < grid.n_sectors)).all()
        counts += np.bincount(q, minlength=grid.n_sectors)
        accepted += len(q)
    assert counts.sum() == n
    assert (counts > 0).all()  # every sector is hit at this sample size


@st.composite
def star_shaped_polygons(draw):
    """Vertices at ascending angles, every gap below pi, radii in [0.5R, R]."""
    n = draw(st.integers(3, 16))
    gaps = np.array(draw(st.lists(st.floats(1.0, 1.9), min_size=n, max_size=n)))
    angles = draw(st.floats(0.0, TAU)) + np.cumsum(gaps) * TAU / gaps.sum()
    scale = draw(st.floats(1.0, 1000.0))
    radii = scale * np.array(draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n)))
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


@settings(max_examples=200, deadline=None)
@given(
    poly=star_shaped_polygons(),
    azimuths=st.lists(st.floats(0.0, TAU, exclude_max=True), min_size=1, max_size=32),
    samples=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=64),
)
# a horizontal edge and a subnormal azimuth: cross(p, edge) / cross(u, edge) overflows
@example(poly=regular_polygon_xy(6, 608.5, math.pi / 3),
         azimuths=[1.1125369292536007e-308], samples=[(0.0, 0.0)])
def test_array_path_on_random_star_shaped_beams(poly, azimuths, samples):
    grid = table_grid()
    phi = np.array(azimuths)
    unit = np.column_stack([np.cos(phi), np.sin(phi)])
    d = ray_boundary_distance(poly, phi)[:, None]
    assert point_in_polygon(poly, *(0.999 * d * unit).T).all()
    assert not point_in_polygon(poly, *(1.001 * d * unit).T).any()

    lo, hi = poly.min(axis=0), poly.max(axis=0)
    pts = lo + np.array(samples) * (hi - lo)
    x, y = pts[point_in_polygon(poly, *pts.T)].T
    phi, radius = normalized_polar_from_xy(poly, x, y)
    assert ((radius >= 0.0) & (radius <= 1.0)).all()
    sectors = grid.assign(phi, radius)
    assert ((sectors >= 0) & (sectors < grid.n_sectors)).all()


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
        ((0.2, 1.0 - 2e-9), (TAU,)),      # last radius beyond the 1e-9 snap
        ((0.2, 1.0), (math.pi, TAU - 2e-9)),  # last angle beyond the 1e-9 snap
    ],
)
def test_bad_grid_rejected(radii, angles):
    with pytest.raises(ValidationError):
        SectorGrid(radii, angles)


@pytest.mark.parametrize(
    "radii,angles,field",
    [
        ((0.2, math.nan, 1.0), (TAU,), "sector_radii"),
        ((0.2, 1.0), (math.pi, math.nan, TAU), "sector_angles"),
        ((0.2, 1.0), (math.nan,), "sector_angles"),
    ],
)
def test_non_finite_grid_rejected_by_name(radii, angles, field):
    # NaN compares false, so it used to pass the ascending checks
    with pytest.raises(ValidationError, match=field):
        SectorGrid(radii, angles)


@pytest.mark.parametrize("radii", [(1.0,), ()])
def test_grid_without_a_ring_rejected_by_its_rule(radii):
    # a lone radius used to be refused as not strictly ascending, which it is
    with pytest.raises(ValidationError, match=r"^sector_radii must hold the beam-center radius "
                                              r"and at least one ring, ending at 1\.0$"):
        SectorGrid(radii, (TAU,))
