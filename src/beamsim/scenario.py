"""Scenario loading and validation: configuration, beam layout, ModCod table,
and the uniform user deployment."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import geometry
from .constants import BOLTZMANN, GEO_ALTITUDE_KM, SPEED_OF_LIGHT
from .errors import ValidationError

TAU = 2.0 * math.pi

SIMILARITY_METRICS = ("euclidean", "channel")
REGULARIZATION_MODES = ("normalized",)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation parameters; units follow the field comments."""

    carrier_frequency: float        # Hz
    rx_antenna_diameter: float      # m
    rx_antenna_efficiency: float    # in (0, 1]
    antenna_losses: float           # dB (positive loss)
    satellite_longitude: float      # degrees east
    satellite_total_power: float    # W, split uniformly across beams
    user_density: float             # users/km^2
    cluster_size: int
    monte_carlo_iterations: int
    clustering_similarity: str      # euclidean | channel
    sector_radii: tuple             # ascending, first = beam-center radius, last = 1.0
    sector_angles: tuple            # ascending radians, last = 2pi
    noise_temperature: float        # K, applied to every beam
    user_bandwidth: float           # Hz
    master_seed: int                # in [0, 2**32)
    # the precoder's regularization rule (alpha = 1/P_TX, see README) and the
    # aperture rule's efficiency
    regularization_mode: str = "normalized"
    tx_aperture_efficiency: float = 0.65    # used when deriving boresight gain

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def rx_gain_linear(self) -> float:
        return self.rx_antenna_efficiency * (math.pi * self.rx_antenna_diameter / self.wavelength) ** 2

    @property
    def loss_linear(self) -> float:
        return 10.0 ** (-self.antenna_losses / 10.0)

    @property
    def noise_power_w(self) -> float:
        return BOLTZMANN * self.noise_temperature * self.user_bandwidth

    def sector_grid(self) -> geometry.SectorGrid:
        return geometry.SectorGrid(tuple(self.sector_radii), tuple(self.sector_angles))

    def tx_power(self, n_beams: int) -> float:
        """Per-beam transmit power P_TX = P_tot / N_B."""
        return self.satellite_total_power / n_beams


def _require_positive(cfg: ScenarioConfig, names):
    for name in names:
        value = getattr(cfg, name)
        if not value > 0:
            raise ValidationError(f"config field '{name}' must be positive, got {value!r}")


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"config field '{f.name}' must be finite, got {value!r}")
    _require_positive(
        cfg,
        (
            "carrier_frequency",
            "rx_antenna_diameter",
            "rx_antenna_efficiency",
            "tx_aperture_efficiency",
            "satellite_total_power",
            "user_density",
            "noise_temperature",
            "user_bandwidth",
        ),
    )
    for name in ("rx_antenna_efficiency", "tx_aperture_efficiency"):
        if getattr(cfg, name) > 1.0:
            raise ValidationError(f"config field '{name}' must lie in (0, 1]")
    if cfg.antenna_losses < 0:
        raise ValidationError("config field 'antenna_losses' must be a non-negative dB value")
    if cfg.cluster_size < 1:
        raise ValidationError("config field 'cluster_size' must be >= 1")
    if cfg.monte_carlo_iterations < 1:
        raise ValidationError("config field 'monte_carlo_iterations' must be >= 1")
    if not 0 <= cfg.master_seed < 2**32:
        # SeedSequence splits larger seeds into 32-bit words, aliasing other seeds' streams
        raise ValidationError(
            f"config field 'master_seed' must lie in [0, 2**32), got {cfg.master_seed}"
        )
    if cfg.clustering_similarity not in SIMILARITY_METRICS:
        raise ValidationError(f"config field 'clustering_similarity' must be one of {SIMILARITY_METRICS}")
    if cfg.regularization_mode not in REGULARIZATION_MODES:
        raise ValidationError(f"config field 'regularization_mode' must be one of {REGULARIZATION_MODES}")
    cfg.sector_grid()  # raises ValidationError on bad radii/angles
    return cfg


def _integer(value):
    """An int, or a string holding one; a float or a bool is refused, not truncated."""
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer")
    return int(value) if isinstance(value, str) else operator.index(value)


# declared field type -> (converter, what the value must be)
_CONVERTERS = {
    "float": (float, "a number"),       # YAML 1.1 reads 19.5e9 as a string
    "int": (_integer, "an integer"),
    "str": (lambda v: v, "a string"),   # validate_config checks the allowed values
    "tuple": (lambda v: tuple(map(float, v)), "a list of numbers"),
}
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def convert_field(name: str, value):
    """`value` converted to the declared type of config field `name`."""
    convert, wanted = _CONVERTERS[_FIELD_TYPES[name]]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"config field '{name}' must be {wanted}, got {value!r}") from exc


def config_from_mapping(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ValidationError("scenario config must be a key/value mapping")
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown config field(s): {sorted(unknown)}")
    required = {
        f.name
        for f in fields(ScenarioConfig)
        if f.default is MISSING and f.default_factory is MISSING
    }
    missing = [name for name in required if name not in data]
    if missing:
        raise ValidationError(f"missing config field(s): {sorted(missing)}")
    data = {key: convert_field(key, value) for key, value in data.items()}
    # snap values meant to be exact bounds
    radii = data["sector_radii"]
    if radii and abs(radii[-1] - 1.0) < 1e-9:
        data["sector_radii"] = radii[:-1] + (1.0,)
    angles = data["sector_angles"]
    if angles and abs(angles[-1] - TAU) < 1e-9:
        data["sector_angles"] = angles[:-1] + (TAU,)
    return validate_config(ScenarioConfig(**data))


def load_config(source) -> ScenarioConfig:
    """Load the scenario configuration from a YAML/JSON file path or a mapping."""
    if isinstance(source, dict):
        return config_from_mapping(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"config file {path} does not parse: {exc}") from exc
    return config_from_mapping(data)


# ---------------------------------------------------------------------------
# Beams
# ---------------------------------------------------------------------------

@dataclass
class Beam:
    """One on-ground beam: center, boundary polygon, and geodesic area."""

    beam_id: int
    center_lat: float
    center_lon: float
    boundary: np.ndarray            # (n, 2) lat/lon degrees, closed implicitly
    area_km2: float
    boundary_xy: np.ndarray         # (n, 2) km, tangent plane about the center
    g_max_db: float | None = None   # optional per-beam boresight gain override
    theta_3db_deg: float | None = None  # optional per-beam half-power angle override

    def user_count(self, density: float) -> int:
        """Users deployed in the beam at `density` users/km^2: round(density * area)."""
        return round_half_up(density * self.area_km2)


def _beam_number(beam_id, name, value) -> float:
    """Beam field `name` as a finite float."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"beam {beam_id}: field '{name}' must be a number, "
                              f"got {value!r}") from exc
    if not math.isfinite(number):
        raise ValidationError(f"beam {beam_id}: field '{name}' must be finite, got {value!r}")
    return number


def make_beam(
    beam_id, center_lat, center_lon, boundary, area_km2=None,
    g_max_db=None, theta_3db_deg=None,
) -> Beam:
    center_lat = _beam_number(beam_id, "center[0]", center_lat)
    center_lon = _beam_number(beam_id, "center[1]", center_lon)
    if area_km2 is not None:
        area_km2 = _beam_number(beam_id, "area_km2", area_km2)
    if g_max_db is not None:
        g_max_db = _beam_number(beam_id, "g_max_db", g_max_db)
    if theta_3db_deg is not None:
        theta_3db_deg = _beam_number(beam_id, "theta_3db_deg", theta_3db_deg)
        if not 0.0 < theta_3db_deg < 90.0:
            raise ValidationError(f"beam {beam_id}: field 'theta_3db_deg' must lie in (0, 90) "
                                  f"degrees, got {theta_3db_deg!r}")
    try:
        boundary = np.asarray(boundary, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"beam {beam_id}: boundary must be lat/lon numbers") from exc
    if boundary.ndim != 2 or boundary.shape[1] != 2 or len(boundary) < 3:
        raise ValidationError(f"beam {beam_id}: boundary must be >= 3 lat/lon vertices")
    if not np.all(np.isfinite(boundary)):
        raise ValidationError(f"beam {beam_id}: boundary must be finite")
    x, y = geometry.project_tangent(center_lat, center_lon, boundary[:, 0], boundary[:, 1])
    boundary_xy = np.column_stack([x, y])
    if not geometry.polygon_is_simple(boundary_xy):
        raise ValidationError(f"beam {beam_id}: boundary polygon is self-intersecting")
    if not bool(geometry.point_in_polygon(boundary_xy, 0.0, 0.0)):
        raise ValidationError(f"beam {beam_id}: boundary does not contain the beam center")
    computed = geometry.polygon_area_km2(boundary[:, 0], boundary[:, 1])
    if area_km2 is None:
        area_km2 = computed
    elif abs(area_km2 - computed) > 0.01 * computed:
        raise ValidationError(
            f"beam {beam_id}: declared area {area_km2:.1f} km^2 deviates more than 1% "
            f"from the recomputed geodesic area {computed:.1f} km^2"
        )
    return Beam(
        beam_id=int(beam_id),
        center_lat=center_lat,
        center_lon=center_lon,
        boundary=boundary,
        area_km2=float(area_km2),
        boundary_xy=boundary_xy,
        g_max_db=g_max_db,
        theta_3db_deg=theta_3db_deg,
    )


def beams_from_records(records) -> list[Beam]:
    if not isinstance(records, list) or not records:
        raise ValidationError("beam layout must be a non-empty list of beam records")
    beams = []
    seen = set()
    for rec in records:
        try:
            beam_id = rec["id"]
            center = rec["center"]
            boundary = rec["boundary"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"beam record missing field {exc}") from exc
        try:
            beam_id = _integer(beam_id)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"beam id must be an integer, got {beam_id!r}") from exc
        if beam_id < 0:     # it keys the beam's deployment stream
            raise ValidationError(f"beam id must be non-negative, got {beam_id}")
        if beam_id in seen:
            raise ValidationError(f"duplicate beam id {beam_id} in layout")
        if not isinstance(center, (list, tuple)) or len(center) != 2:
            raise ValidationError(f"beam {beam_id}: field 'center' must be [lat, lon], "
                                  f"got {center!r}")
        seen.add(beam_id)
        beams.append(
            make_beam(
                beam_id,
                center[0],
                center[1],
                boundary,
                area_km2=rec.get("area_km2"),
                g_max_db=rec.get("g_max_db"),
                theta_3db_deg=rec.get("theta_3db_deg"),
            )
        )
    beams.sort(key=lambda b: b.beam_id)
    return beams


def load_beams(source) -> list[Beam]:
    """Load a beam layout from a JSON/YAML file path or a list of records."""
    if isinstance(source, list):
        return beams_from_records(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read beam layout {path}: {exc}") from exc
    try:
        if path.suffix == ".json":
            data = json.loads(text)
        else:
            data = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ValidationError(f"beam layout {path} does not parse: {exc}") from exc
    return beams_from_records(data)


# ---------------------------------------------------------------------------
# Users
# ---------------------------------------------------------------------------

# One record per user; a user's id is its row.
USER_DTYPE = np.dtype([("beam_id", np.int64), ("beam_idx", np.int64), ("lat", float),
                       ("lon", float), ("slant_range_m", float)])


def deploy_users(beams, density, seed, satellite_ecef_km) -> np.recarray:
    """Deploy round(density * area) users i.i.d. uniform over each beam polygon.

    Returns one record per user (`USER_DTYPE`: serving beam id and its index
    in `beams`, lat/lon in degrees, slant range in m), beam after beam in
    the order of `beams`, so beam b's users are one slice.  Sampling rejects
    bounding-box draws that fall outside the beam boundary.  Each beam
    derives its own RNG stream from (seed, beam_id), so the result is
    reproducible and independent of beam iteration order.
    """
    if not density > 0:
        raise ValidationError("user density must be positive")
    sat = np.asarray(satellite_ecef_km, dtype=float)
    counts = [beam.user_count(density) for beam in beams]
    users = np.recarray(sum(counts), dtype=USER_DTYPE)
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    start = 0
    for bi, (beam, n) in enumerate(zip(beams, counts)):
        if n < 1:
            raise ValidationError(
                f"beam {beam.beam_id}: density {density} users/km^2 over "
                f"{beam.area_km2:.1f} km^2 rounds to zero users"
            )
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=base.entropy, spawn_key=(beam.beam_id,))
        )
        lo = beam.boundary_xy.min(axis=0)
        hi = beam.boundary_xy.max(axis=0)
        xs = np.empty(n)
        ys = np.empty(n)
        got = 0
        while got < n:
            m = max(2 * (n - got), 16)
            cand = rng.uniform(lo, hi, size=(m, 2))
            ok = geometry.point_in_polygon(beam.boundary_xy, cand[:, 0], cand[:, 1])
            take = min(int(ok.sum()), n - got)
            xs[got : got + take] = cand[ok, 0][:take]
            ys[got : got + take] = cand[ok, 1][:take]
            got += take
        lat, lon = geometry.unproject_tangent(beam.center_lat, beam.center_lon, xs, ys)
        ecef = geometry.geodetic_to_ecef_km(lat, lon)
        slant_km = np.linalg.norm(ecef - sat, axis=-1)
        if np.any(slant_km < GEO_ALTITUDE_KM - 1e-6):
            raise ValidationError(f"beam {beam.beam_id}: slant range below GEO altitude")
        block = users[start:start + n]
        block.beam_id, block.beam_idx = beam.beam_id, bi
        block.lat, block.lon = lat, lon
        block.slant_range_m = slant_km * 1000.0
        start += n
    return users


# ---------------------------------------------------------------------------
# ModCod table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModCodTable:
    """Ascending (SNR threshold dB, spectral efficiency bit/s/Hz) rows."""

    thresholds_db: np.ndarray
    efficiencies: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds_db, dtype=float)
        e = np.asarray(self.efficiencies, dtype=float)
        if t.ndim != 1 or t.shape != e.shape or len(t) == 0:
            raise ValidationError("ModCod table must hold matching non-empty columns")
        if not (np.isfinite(t).all() and np.isfinite(e).all()):
            raise ValidationError("ModCod table entries must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValidationError("ModCod thresholds must be strictly ascending")
        if np.any(np.diff(e) <= 0) or np.any(e <= 0):
            raise ValidationError("ModCod efficiencies must be positive and strictly ascending")
        object.__setattr__(self, "thresholds_db", t)
        object.__setattr__(self, "efficiencies", e)

    def efficiency(self, snr_db):
        """Efficiency of the highest threshold <= snr_db; 0 below the table."""
        idx = np.searchsorted(self.thresholds_db, snr_db, side="right") - 1
        eff = np.where(idx >= 0, self.efficiencies[np.maximum(idx, 0)], 0.0)
        if np.isscalar(snr_db):
            return float(eff)
        return eff


def load_modcod(source) -> ModCodTable:
    """Load the two-column `snr_db,spectral_efficiency` table."""
    if isinstance(source, ModCodTable):
        return source
    path = Path(source)
    try:
        lines = path.read_text().strip().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read ModCod table {path}: {exc}") from exc
    if not lines or [c.strip() for c in lines[0].split(",")] != ["snr_db", "spectral_efficiency"]:
        raise ValidationError(
            f"ModCod table {path} must start with header 'snr_db,spectral_efficiency'"
        )
    thresholds, efficiencies = [], []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValidationError(f"ModCod table {path} line {ln}: expected two columns")
        try:
            thresholds.append(float(parts[0]))
            efficiencies.append(float(parts[1]))
        except ValueError as exc:
            raise ValidationError(f"ModCod table {path} line {ln}: {exc}") from exc
    return ModCodTable(np.asarray(thresholds), np.asarray(efficiencies))


# ---------------------------------------------------------------------------
# Scenario bundle
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    config: ScenarioConfig
    beams: list[Beam]
    modcod: ModCodTable

    @property
    def n_beams(self) -> int:
        return len(self.beams)

    def satellite(self) -> np.ndarray:
        return geometry.satellite_ecef_km(self.config.satellite_longitude)


def check_density_supports_clusters(scenario: Scenario, cluster_size=None, density=None):
    """The config must validate with this cluster size and density, and every
    beam must round to at least `cluster_size` users."""
    cfg = scenario.config
    k = cfg.cluster_size if cluster_size is None else cluster_size
    rho = cfg.user_density if density is None else density
    validate_config(replace(cfg, cluster_size=k, user_density=rho))
    for beam in scenario.beams:
        n = beam.user_count(rho)
        if n < k:
            raise ValidationError(
                f"beam {beam.beam_id}: {n} users at density {rho} users/km^2 is fewer "
                f"than the cluster size {k}"
            )


def load_scenario(config_source, beam_layout_source, modcod_source) -> Scenario:
    """Load and cross-validate the full scenario."""
    cfg = load_config(config_source)
    beams = load_beams(beam_layout_source)
    modcod = load_modcod(modcod_source)
    scenario = Scenario(cfg, beams, modcod)
    check_density_supports_clusters(scenario)
    return scenario
