import math
from dataclasses import fields

import numpy as np
import pytest
import yaml

from beamsim import geometry
from beamsim.errors import ValidationError
from beamsim.scenario import (
    ModCodTable,
    ScenarioConfig,
    beams_from_records,
    check_density_supports_clusters,
    config_from_mapping,
    deploy_users,
    load_beams,
    load_config,
    load_modcod,
    load_scenario,
    round_half_up,
)

from conftest import beam_from_xy, regular_polygon_xy

TAU = 2.0 * math.pi


def table_config(**overrides):
    """The published system parameters plus the artifact's own knobs."""
    data = {
        "carrier_frequency": 19.5e9,
        "rx_antenna_diameter": 0.6,
        "rx_antenna_efficiency": 0.6,
        "antenna_losses": 2.55,
        "satellite_longitude": 30.0,
        "satellite_total_power": 90.0,
        "user_density": 2.5e-3,
        "cluster_size": 2,
        "monte_carlo_iterations": 10,
        "clustering_similarity": "channel",
        "sector_radii": [0.2, 0.6, 0.8, 1.0],
        "sector_angles": [math.pi / 2, math.pi, TAU],
        "noise_temperature": 250.0,
        "user_bandwidth": 50e6,
        "master_seed": 7,
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_published_parameters_accepted():
    cfg = config_from_mapping(table_config())
    assert cfg.carrier_frequency == 19.5e9
    assert cfg.wavelength == pytest.approx(0.0153739722, rel=1e-8)
    assert cfg.sector_grid().n_sectors == 10


def test_quadrant_sectors_accepted():
    cfg = config_from_mapping(
        table_config(sector_angles=[math.pi / 2, math.pi, 3 * math.pi / 2, TAU])
    )
    assert cfg.sector_grid().n_sectors == 13


def test_radii_not_ending_at_one_rejected():
    with pytest.raises(ValidationError):
        config_from_mapping(table_config(sector_radii=[0.2, 0.6]))


@pytest.mark.parametrize(
    "bad",
    [
        {"user_density": 0.0},
        {"cluster_size": 0},
        {"rx_antenna_efficiency": 1.5},
        {"master_seed": -1},
        {"clustering_similarity": "cosine"},
        {"sector_angles": [math.pi, math.pi / 2, TAU]},
        {"noise_temperature": -10.0},
        {"master_seed": 2**32},
    ],
)
def test_invalid_field_rejected(bad):
    with pytest.raises(ValidationError):
        config_from_mapping(table_config(**bad))


NUMERIC_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type in ("float", "int")]
INTEGER_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type == "int"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_non_finite_field_rejected_by_name(field, value):
    # `satellite_longitude: .nan` used to validate, `user_density: .inf` to overflow
    with pytest.raises(ValidationError, match=f"config field '{field}'"):
        config_from_mapping(table_config(**{field: value}))


@pytest.mark.parametrize("field", [f.name for f in fields(ScenarioConfig)])
def test_null_field_rejected_by_name(field):
    # a null `satellite_longitude` used to validate and then fail every cell
    with pytest.raises(ValidationError, match=f"config field '{field}'"):
        config_from_mapping(table_config(**{field: None}))


@pytest.mark.parametrize("value", [2.5, 1.9, True, "2.5"], ids=["2.5", "1.9", "true", "'2.5'"])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_non_integer_rejected_by_name(field, value):
    # `cluster_size: 2.5` used to run K = 2, `master_seed: true` seed 1
    with pytest.raises(ValidationError, match=f"config field '{field}' must be an integer"):
        config_from_mapping(table_config(**{field: value}))


def test_integer_fields_accept_integers_and_integer_strings():
    cfg = config_from_mapping(table_config(cluster_size="4", monte_carlo_iterations=3,
                                           master_seed=np.int64(11)))
    assert (cfg.cluster_size, cfg.monte_carlo_iterations, cfg.master_seed) == (4, 3, 11)
    assert type(cfg.master_seed) is int


@pytest.mark.parametrize("field,value", [
    ("n_frames", 30), ("tx_power_per_beam", 5.0), ("antenna_pattern", "bessel"),
    ("phase_mode", "per-beam"), ("normalization_mode", "per-antenna"),
])
def test_removed_fields_rejected_as_unknown(field, value):
    # the random scheduler always runs max_b N_K frames, P_TX is P_tot / N_B, the
    # transmit pattern is the tapered-aperture one, the random phase is one per
    # transmit antenna and the precoder is sum-power normalized
    with pytest.raises(ValidationError, match=rf"unknown config field\(s\): \['{field}'\]"):
        config_from_mapping(table_config(**{field: value}))


@pytest.mark.parametrize("value", [-0.65, 0.0, 1.5])
def test_tx_aperture_efficiency_outside_unit_interval_rejected(value):
    # a negative efficiency used to validate and then fail the run with NaN features
    with pytest.raises(ValidationError, match="config field 'tx_aperture_efficiency'"):
        config_from_mapping(table_config(tx_aperture_efficiency=value))


@pytest.mark.parametrize("field,values", [
    ("sector_radii", [0.2, math.nan, 1.0]),
    ("sector_angles", [math.pi, math.nan, TAU]),
    ("sector_angles", [math.nan]),
])
def test_non_finite_sector_bounds_rejected_by_name(field, values):
    with pytest.raises(ValidationError, match=field):
        config_from_mapping(table_config(**{field: values}))


def test_unknown_and_missing_fields_named():
    with pytest.raises(ValidationError, match="user_densty"):
        config_from_mapping(table_config(user_densty=1.0))
    # the scheduler is chosen per run (`run --scheduler`), not in the config
    with pytest.raises(ValidationError, match=r"unknown config field\(s\): \['scheduler_policy'\]"):
        config_from_mapping(table_config(scheduler_policy="random"))
    data = table_config()
    del data["master_seed"]
    with pytest.raises(ValidationError, match="master_seed"):
        config_from_mapping(data)


def test_bundled_config_names_every_field():
    # the benchmark's precoder oracle reads `regularization_mode` from this file and
    # falls back to `paper` when the key is absent, so no field may go missing here
    from beamsim.cli import data_path
    bundled = yaml.safe_load(data_path("config_default.yaml").read_text())
    assert set(bundled) == {f.name for f in fields(ScenarioConfig)}


def test_load_config_from_yaml(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(table_config()))
    cfg = load_config(path)
    assert cfg.master_seed == 7
    assert config_from_mapping(table_config(master_seed=2**32 - 1)).master_seed == 2**32 - 1
    with pytest.raises(ValidationError):
        load_config(tmp_path / "absent.yaml")


# ---------------------------------------------------------------------------
# beams
# ---------------------------------------------------------------------------

def test_beam_area_recomputed_and_validated():
    xy = regular_polygon_xy(6, 250.0)
    beam = beam_from_xy(xy)
    planar = 1.5 * math.sqrt(3.0) * 250.0**2
    assert beam.area_km2 == pytest.approx(planar, rel=2e-3)
    # declared area within 1% is accepted, beyond 1% rejected
    ok = beam_from_xy(xy, area_km2=beam.area_km2 * 1.009)
    assert ok.area_km2 == pytest.approx(beam.area_km2 * 1.009)
    with pytest.raises(ValidationError, match="area"):
        beam_from_xy(xy, area_km2=beam.area_km2 * 1.02)


def test_center_outside_boundary_rejected():
    xy = regular_polygon_xy(6, 50.0) + np.array([200.0, 0.0])
    with pytest.raises(ValidationError, match="center"):
        beam_from_xy(xy)


def test_self_intersecting_boundary_rejected():
    bowtie = [(100.0, 100.0), (-100.0, -100.0), (100.0, -100.0), (-100.0, 100.0)]
    with pytest.raises(ValidationError, match="self-intersecting"):
        beam_from_xy(bowtie)


def test_duplicate_beam_ids_rejected():
    rec = {
        "id": 1,
        "center": [45.0, 8.0],
        "boundary": [[45.5, 7.5], [45.5, 8.5], [44.5, 8.5], [44.5, 7.5]],
    }
    with pytest.raises(ValidationError, match="duplicate"):
        beams_from_records([rec, dict(rec)])


HEX_RECORD = {
    "id": 3,
    "center": [45.0, 8.0],
    "boundary": [[45.5, 7.5], [45.5, 8.5], [44.5, 8.5], [44.5, 7.5]],
}


@pytest.mark.parametrize("field,value,message", [
    ("g_max_db", "45 dB", "'g_max_db' must be a number"),
    ("g_max_db", None, None),
    ("g_max_db", math.nan, "'g_max_db' must be finite"),
    ("g_max_db", math.inf, "'g_max_db' must be finite"),
    ("g_max_db", [45.0], "'g_max_db' must be a number"),
    ("theta_3db_deg", 0, r"'theta_3db_deg' must lie in \(0, 90\)"),
    ("theta_3db_deg", -1, r"'theta_3db_deg' must lie in \(0, 90\)"),
    ("theta_3db_deg", 90.0, r"'theta_3db_deg' must lie in \(0, 90\)"),
    ("theta_3db_deg", math.nan, "'theta_3db_deg' must be finite"),
    ("area_km2", math.nan, "'area_km2' must be finite"),
    ("area_km2", "100", "declared area"),
    ("area_km2", "wide", "'area_km2' must be a number"),
    ("center", [math.nan, 8.0], r"'center\[0\]' must be finite"),
    ("center", [45.0, "east"], r"'center\[1\]' must be a number"),
    ("center", [45.0], "'center' must be"),
    ("center", 45.0, "'center' must be"),
    ("boundary", [[45.5, 7.5], [45.5, math.inf], [44.5, 8.5]], "boundary must be finite"),
    ("boundary", [[45.5, 7.5], [45.5, "x"], [44.5, 8.5]], "boundary must be lat/lon"),
])
def test_bad_beam_field_rejected_by_beam_and_name(field, value, message):
    record = {**HEX_RECORD, field: value}
    if message is None:     # a null override is no override
        assert beams_from_records([record])[0].g_max_db is None
        return
    with pytest.raises(ValidationError, match=f"^beam 3: .*{message}"):
        beams_from_records([record])


@pytest.mark.parametrize("beam_id", ["three", 2.7, True, None])
def test_non_integer_beam_id_rejected(beam_id):
    # 2.7 used to be truncated to 2, a second beam 2 the duplicate check missed
    with pytest.raises(ValidationError, match="beam id must be an integer"):
        beams_from_records([{**HEX_RECORD, "id": 2}, {**HEX_RECORD, "id": beam_id}])


@pytest.mark.parametrize("beam_id", [-1, "-4"])
def test_negative_beam_id_rejected(beam_id):
    # a beam id keys its deployment stream, which takes non-negative keys only
    with pytest.raises(ValidationError, match=r"beam id must be non-negative, got -\d"):
        beams_from_records([{**HEX_RECORD, "id": beam_id}])


def test_beam_id_string_is_converted_before_the_duplicate_check():
    assert beams_from_records([{**HEX_RECORD, "id": "7"}])[0].beam_id == 7
    with pytest.raises(ValidationError, match="duplicate beam id 2"):
        beams_from_records([{**HEX_RECORD, "id": 2}, {**HEX_RECORD, "id": "2"}])


def test_numeric_beam_fields_converted_to_float():
    beam = beams_from_records([{**HEX_RECORD, "g_max_db": "45", "theta_3db_deg": "0.4",
                                "center": ["45", 8]}])[0]
    assert (beam.g_max_db, beam.theta_3db_deg, beam.center_lat, beam.center_lon) == (
        45.0, 0.4, 45.0, 8.0)
    assert all(type(v) is float
               for v in (beam.g_max_db, beam.theta_3db_deg, beam.center_lat, beam.center_lon))


def test_load_bundled_layouts():
    from beamsim.cli import data_path

    for name, count in [("beams_hex7.json", 7), ("beams_hex19.json", 19),
                        ("beams_europe71.json", 71)]:
        beams = load_beams(str(data_path(name)))
        assert len(beams) == count
        assert [b.beam_id for b in beams] == list(range(1, count + 1))


# ---------------------------------------------------------------------------
# deployment
# ---------------------------------------------------------------------------

def square_beam_with_area(side_km, beam_id=1):
    a = side_km / 2.0
    return beam_from_xy([(a, a), (-a, a), (-a, -a), (a, -a)], beam_id=beam_id)


def test_user_count_rounding():
    sat = geometry.satellite_ecef_km(30.0)
    beam = square_beam_with_area(100.0)  # ~10,000 km^2
    users = deploy_users([beam], 1e-2, 1, sat)
    assert len(users) == round_half_up(1e-2 * beam.area_km2) == 100

    beam = square_beam_with_area(200.0)  # ~40,000 km^2
    users = deploy_users([beam], 2.5e-4, 1, sat)
    assert len(users) == 10


def test_zero_user_beam_rejected():
    sat = geometry.satellite_ecef_km(30.0)
    beam = square_beam_with_area(10.0)  # 100 km^2
    with pytest.raises(ValidationError, match="zero users"):
        deploy_users([beam], 1e-3, 1, sat)


def test_deployment_deterministic_and_inside(scenario7):
    sat = scenario7.satellite()
    a = deploy_users(scenario7.beams, 5e-4, 1234, sat)
    b = deploy_users(scenario7.beams, 5e-4, 1234, sat)
    assert a.tobytes() == b.tobytes()  # bit-exact records
    c = deploy_users(scenario7.beams, 5e-4, 1235, sat)
    assert a.tobytes() != c.tobytes()
    by_id = {bm.beam_id: bm for bm in scenario7.beams}
    for u in a:
        beam = by_id[u.beam_id]
        x, y = geometry.project_tangent(beam.center_lat, beam.center_lon, u.lat, u.lon)
        assert bool(geometry.point_in_polygon(beam.boundary_xy, float(x), float(y)))
        assert u.slant_range_m > 35_786e3

    # the record contract: one record per user, beam after beam in the order
    # of `beams`, and a record's fields read as the columns do
    counts = [beam.user_count(5e-4) for beam in scenario7.beams]
    assert len(a) == sum(counts)
    assert np.array_equal(a.beam_idx, np.repeat(np.arange(len(counts)), counts))
    assert np.array_equal(a.beam_id, np.repeat([bm.beam_id for bm in scenario7.beams], counts))
    for name in ("beam_id", "beam_idx", "lat", "lon", "slant_range_m"):
        assert np.array_equal([getattr(u, name) for u in a], getattr(a, name))
    # beams listed in another order come out in that order, each with the same users
    flipped = deploy_users(scenario7.beams[::-1], 5e-4, 1234, sat)
    assert np.array_equal(flipped.beam_id,
                          np.repeat([bm.beam_id for bm in scenario7.beams[::-1]], counts[::-1]))
    for beam_id in by_id:
        for name in ("lat", "lon", "slant_range_m"):
            assert np.array_equal(getattr(a, name)[a.beam_id == beam_id],
                                  getattr(flipped, name)[flipped.beam_id == beam_id])


def test_mean_count_matches_density(scenario7):
    # deterministic counts: the mean over seeds must sit within 3 sigma of
    # rho * A under a Poisson approximation of the count per realization
    sat = scenario7.satellite()
    beam = scenario7.beams[0]
    rho = 4e-4
    seeds = range(30)
    counts = [
        sum(1 for u in deploy_users([beam], rho, s, sat)) for s in seeds
    ]
    expect = rho * beam.area_km2
    sigma_mean = math.sqrt(expect / len(counts))
    assert abs(np.mean(counts) - expect) <= 3.0 * sigma_mean


# ---------------------------------------------------------------------------
# ModCod table
# ---------------------------------------------------------------------------

def test_modcod_loader_and_lookup(tmp_path):
    path = tmp_path / "modcod.csv"
    path.write_text("snr_db,spectral_efficiency\n-2.0,0.5\n1.0,1.0\n5.0,2.0\n")
    table = load_modcod(path)
    assert table.efficiency(-3.0) == 0.0
    assert table.efficiency(-2.0) == 0.5   # closed lower bound
    assert table.efficiency(0.99) == 0.5
    assert table.efficiency(1.0) == 1.0
    assert table.efficiency(99.0) == 2.0


def test_modcod_bad_tables(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("snr,eff\n1,1\n")
    with pytest.raises(ValidationError, match="header"):
        load_modcod(path)
    with pytest.raises(ValidationError, match="ascending"):
        ModCodTable(np.array([1.0, 0.5]), np.array([0.5, 1.0]))
    with pytest.raises(ValidationError, match="ascending"):
        ModCodTable(np.array([0.5, 1.0]), np.array([1.0, 0.5]))


def test_modcod_non_finite_row_rejected(tmp_path):
    # a NaN threshold passed the ascending checks and shifted every lookup above it
    path = tmp_path / "nan.csv"
    path.write_text("snr_db,spectral_efficiency\n-2,0.4\nnan,0.5\n1,0.6\n")
    with pytest.raises(ValidationError, match="finite"):
        load_modcod(path)
    with pytest.raises(ValidationError, match="finite"):
        ModCodTable(np.array([-2.0, 1.0, 5.0]), np.array([0.4, np.inf, 0.6]))


def test_bundled_modcod_monotone():
    from beamsim.cli import data_path

    table = load_modcod(str(data_path("modcod_dvbs2x.csv")))
    assert (np.diff(table.thresholds_db) > 0).all()
    assert (np.diff(table.efficiencies) > 0).all()
    assert len(table.thresholds_db) >= 30


# ---------------------------------------------------------------------------
# full scenario
# ---------------------------------------------------------------------------

def test_load_scenario_cross_validates(tmp_path):
    from beamsim.cli import data_path

    cfg = table_config(user_density=2.5e-4, cluster_size=2)
    cfg_path = tmp_path / "c.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    scenario = load_scenario(
        cfg_path, str(data_path("beams_hex7.json")), str(data_path("modcod_dvbs2x.csv"))
    )
    assert scenario.n_beams == 7

    # a cluster size bigger than any beam's user count must be rejected
    cfg_path.write_text(yaml.safe_dump(table_config(user_density=2.5e-4, cluster_size=50)))
    with pytest.raises(ValidationError, match="fewer"):
        load_scenario(
            cfg_path, str(data_path("beams_hex7.json")), str(data_path("modcod_dvbs2x.csv"))
        )


def test_check_density_override(scenario7):
    check_density_supports_clusters(scenario7, cluster_size=8, density=2.5e-3)
    with pytest.raises(ValidationError):
        check_density_supports_clusters(scenario7, cluster_size=80, density=2.5e-4)
    # the cell's K and density follow the config's own field rules
    with pytest.raises(ValidationError, match="config field 'cluster_size' must be >= 1"):
        check_density_supports_clusters(scenario7, cluster_size=0, density=2.5e-3)
    with pytest.raises(ValidationError, match="config field 'user_density' must be finite"):
        check_density_supports_clusters(scenario7, cluster_size=2, density=math.inf)
