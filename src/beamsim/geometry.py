"""Beam-local geometry and scheduling sectors.

All in-beam computations live in a local tangent plane obtained from an
azimuthal-equidistant projection about the beam center (radial distances
exact, tangential distortion ~(d/R_E)^2/6, negligible for beams a few
hundred km wide).  Axes: x = local east, y = local north.  The angular
coordinate phi is measured counterclockwise from local east in [0, 2pi);
the beam center itself has phi = 0 by convention.

A point's normalized radius is its tangent-plane distance from the beam
center divided by the distance to the beam boundary along the same
azimuth, so the boundary maps to 1 regardless of the beam's shape.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import EARTH_RADIUS_KM, GEO_ALTITUDE_KM
from .errors import GeometryError, ValidationError

TAU = 2.0 * math.pi

BEAM_CENTER_SECTOR = 0  # sector index reserved for the beam-center disc


# ---------------------------------------------------------------------------
# Spherical-earth geodesy
# ---------------------------------------------------------------------------

def project_tangent(center_lat, center_lon, lat, lon):
    """Project lat/lon (degrees) to (x_east, y_north) km about a center point."""
    p1 = math.radians(center_lat)
    l1 = math.radians(center_lon)
    p2 = np.radians(np.asarray(lat, dtype=float))
    l2 = np.radians(np.asarray(lon, dtype=float))
    dl = l2 - l1
    a = np.sin((p2 - p1) / 2.0) ** 2 + math.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    c = 2.0 * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))
    # initial bearing from north, clockwise
    theta = np.arctan2(
        np.sin(dl) * np.cos(p2),
        math.cos(p1) * np.sin(p2) - math.sin(p1) * np.cos(p2) * np.cos(dl),
    )
    d = EARTH_RADIUS_KM * c
    return d * np.sin(theta), d * np.cos(theta)


def unproject_tangent(center_lat, center_lon, x, y):
    """Inverse of :func:`project_tangent`; returns (lat, lon) degrees."""
    p1 = math.radians(center_lat)
    l1 = math.radians(center_lon)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.hypot(x, y)
    c = d / EARTH_RADIUS_KM
    theta = np.arctan2(x, y)  # bearing from north
    p2 = np.arcsin(
        np.clip(math.sin(p1) * np.cos(c) + math.cos(p1) * np.sin(c) * np.cos(theta), -1.0, 1.0)
    )
    l2 = l1 + np.arctan2(
        np.sin(theta) * np.sin(c) * math.cos(p1),
        np.cos(c) - math.sin(p1) * np.sin(p2),
    )
    return np.degrees(p2), np.degrees(l2)


def geodetic_to_ecef_km(lat, lon, altitude_km=0.0):
    """Spherical-earth ECEF coordinates in km; shape (..., 3)."""
    p = np.radians(np.asarray(lat, dtype=float))
    l = np.radians(np.asarray(lon, dtype=float))
    r = EARTH_RADIUS_KM + altitude_km
    return np.stack(
        [r * np.cos(p) * np.cos(l), r * np.cos(p) * np.sin(l), r * np.sin(p)], axis=-1
    )


def satellite_ecef_km(longitude_deg):
    """ECEF position of the GEO satellite at the given longitude, zero latitude."""
    return geodetic_to_ecef_km(0.0, longitude_deg, GEO_ALTITUDE_KM)


def polygon_area_km2(lats, lons):
    """Geodesic area of a closed lat/lon ring on the spherical earth.

    Uses the classic spherical shoelace sum over edges, which is exact
    enough for beam-sized polygons.
    """
    lat = np.radians(np.asarray(lats, dtype=float))
    lon = np.radians(np.asarray(lons, dtype=float))
    lat2 = np.roll(lat, -1)
    lon2 = np.roll(lon, -1)
    total = np.sum((lon2 - lon) * (2.0 + np.sin(lat) + np.sin(lat2)))
    return abs(total) * EARTH_RADIUS_KM**2 / 2.0


# ---------------------------------------------------------------------------
# Planar polygon machinery (tangent-plane coordinates, km)
# ---------------------------------------------------------------------------

def point_in_polygon(boundary_xy, x, y):
    """Even-odd crossing test, vectorized over points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    v = np.asarray(boundary_xy, dtype=float)
    n = len(v)
    for i in range(n):
        x1, y1 = v[i]
        x2, y2 = v[(i + 1) % n]
        crosses = (y1 <= y) != (y2 <= y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1 + (y - y1) / (y2 - y1) * (x2 - x1)
        inside ^= crosses & (x < xi)
    return inside


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_cross(p, q, r, s):
    """True if segment pq properly intersects rs (shared endpoints excluded)."""
    d1 = _orient(*r, *s, *p)
    d2 = _orient(*r, *s, *q)
    d3 = _orient(*p, *q, *r)
    d4 = _orient(*p, *q, *s)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


def polygon_is_simple(boundary_xy):
    """Check that no two non-adjacent edges intersect."""
    v = np.asarray(boundary_xy, dtype=float)
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                return False
    return True


def ray_boundary_distance(boundary_xy, phi):
    """Distance from the origin to the polygon boundary along each azimuth in phi.

    Every ray is intersected with every boundary segment in one broadcast.
    Where a ray crosses the boundary more than once (non-star-shaped polygon)
    the nearest crossing is returned, and one warning per call counts such
    rays.
    """
    v = np.asarray(boundary_xy, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    phi = np.asarray(phi, dtype=float)
    ux = np.cos(phi)[..., None]
    uy = np.sin(phi)[..., None]
    denom = ux * e[:, 1] - uy * e[:, 0]          # cross(u, edge), shape (..., n_edges)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (v[:, 0] * e[:, 1] - v[:, 1] * e[:, 0]) / denom   # cross(p, edge)/cross(u, edge)
        s = (v[:, 0] * uy - v[:, 1] * ux) / denom             # cross(p, u)/cross(u, edge)
    eps = 1e-12
    ok = (np.abs(denom) > eps) & (s >= -1e-9) & (s <= 1.0 + 1e-9) & (t > eps)
    hits = np.sort(np.where(ok, t, np.nan), axis=-1)   # misses sort last
    nearest = hits[..., 0]
    missed = np.isnan(nearest)
    if missed.any():
        raise GeometryError(
            f"ray at phi={phi[missed][0]:.6f} rad does not meet the beam boundary"
        )
    # crossings closer than 1e-9 of the farthest one (a ray through a vertex
    # meets both of its edges) count as one
    farthest = np.nanmax(hits, axis=-1, keepdims=True)
    distinct = np.diff(hits, axis=-1) > 1e-9 * farthest
    n_multi = np.count_nonzero(distinct.any(axis=-1))
    if n_multi:
        warnings.warn(
            f"beam boundary is not star-shaped: {n_multi} of {nearest.size} rays cross "
            f"it more than once; using the nearest crossing",
            stacklevel=2,
        )
    return nearest


def edge_midpoints_xy(boundary_xy):
    v = np.asarray(boundary_xy, dtype=float)
    return (v + np.roll(v, -1, axis=0)) / 2.0


# ---------------------------------------------------------------------------
# Normalized polar coordinates
# ---------------------------------------------------------------------------

def normalized_polar_from_xy(boundary_xy, x, y):
    """Normalized polar coordinates (phi, radius) of tangent-plane points.

    phi is in [0, 2pi) and radius in [0, 1]; a point at the center gets
    (0, 0), and a point outside the boundary (a cluster barycentre of a
    concave beam) gets radius 1.
    """
    r = np.hypot(x, y)
    off_center = r > 0.0
    phi = np.where(off_center, np.arctan2(y, x) % TAU, 0.0)
    r_edge = np.ones_like(r)
    r_edge[off_center] = ray_boundary_distance(boundary_xy, phi[off_center])
    return phi, np.minimum(r / r_edge, 1.0)


# ---------------------------------------------------------------------------
# Scheduling sectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorGrid:
    """Ring/wedge decomposition of the unit disc in normalized polar coordinates.

    ``radii`` is the full ascending list (r_BC, r_1, ..., 1.0); ``angles`` the
    ascending wedge boundaries ending at 2pi (the lower bound 0 is implicit).
    Sector 0 is the beam-center disc; sector (k-1)*n_wedges + m covers
    ring k (radii (r_{k-1}, r_k]) and wedge m (angles (phi_{m-1}, phi_m]).
    """

    radii: tuple
    angles: tuple

    def __post_init__(self):
        # a last radius or angle within 1e-9 of its bound is that bound, so
        # `assign` labels no point past the last sector
        for name, bound in (("radii", 1.0), ("angles", TAU)):
            values = tuple(getattr(self, name))
            if values and abs(values[-1] - bound) <= 1e-9:
                object.__setattr__(self, name, values[:-1] + (bound,))
        r = np.asarray(self.radii, dtype=float)
        a = np.asarray(self.angles, dtype=float)
        for name, values in (("sector_radii", r), ("sector_angles", a)):
            if not np.isfinite(values).all():
                raise ValidationError(f"{name} must be finite")
        if len(r) < 2:
            raise ValidationError("sector_radii must hold the beam-center radius and at least "
                                  "one ring, ending at 1.0")
        if np.any(np.diff(r) <= 0) or r[0] <= 0:
            raise ValidationError("sector_radii must be strictly ascending and positive")
        if r[-1] != 1.0:
            raise ValidationError("sector_radii must end at exactly 1.0")
        if len(a) < 1 or np.any(np.diff(a) <= 0) or a[0] <= 0:
            raise ValidationError("sector_angles must be strictly ascending in (0, 2pi]")
        if a[-1] != TAU:
            raise ValidationError("sector_angles must end at exactly 2pi")

    @property
    def r_bc(self) -> float:
        return self.radii[0]

    @property
    def n_rings(self) -> int:
        return len(self.radii) - 1

    @property
    def n_wedges(self) -> int:
        return len(self.angles)

    @property
    def n_sectors(self) -> int:
        return self.n_rings * self.n_wedges + 1

    def assign(self, phi, radius):
        """Sector index of each normalized-polar point (0 = beam center)."""
        radius = np.asarray(radius, dtype=float)
        phi = np.asarray(phi, dtype=float) % TAU
        phi = np.where(phi == 0.0, TAU, phi)  # upper-closed wedge intervals make the cover total
        ring = np.searchsorted(self.radii, radius, side="left")
        wedge = np.searchsorted(self.angles, phi, side="left") + 1
        return np.where(radius <= self.r_bc, BEAM_CENTER_SECTOR,
                        (ring - 1) * self.n_wedges + wedge)

    def ring_wedge(self, sector: int):
        """(ring, wedge) of a non-center sector, both 1-based."""
        if sector == BEAM_CENTER_SECTOR:
            raise ValueError("beam-center sector has no ring/wedge decomposition")
        ring = (sector - 1) // self.n_wedges + 1
        wedge = (sector - 1) % self.n_wedges + 1
        return ring, wedge

    def neighbor_order(self, sector: int):
        """All other sectors sorted by (ring distance, circular wedge distance).

        Used to pick where an empty (beam, sector) pool borrows clusters from.
        """
        def key(other):
            if other == sector:
                return (np.inf, np.inf, other)
            if sector == BEAM_CENTER_SECTOR:
                ring_o, _ = self.ring_wedge(other)
                return (ring_o, 0, other)
            ring_s, wedge_s = self.ring_wedge(sector)
            if other == BEAM_CENTER_SECTOR:
                return (ring_s, 0, other)
            ring_o, wedge_o = self.ring_wedge(other)
            dw = abs(wedge_o - wedge_s)
            dw = min(dw, self.n_wedges - dw)
            return (abs(ring_o - ring_s), dw, other)

        return sorted((q for q in range(self.n_sectors) if q != sector), key=key)

