import math
from dataclasses import replace

import numpy as np
import pytest

from beamsim import geometry, load_scenario
from beamsim.cli import data_path
from beamsim.scenario import Scenario, make_beam, validate_config


def beam_from_xy(xy_vertices, center_lat=45.0, center_lon=8.0, beam_id=1, **kw):
    """Build a Beam whose tangent-plane boundary is (approximately) xy_vertices km."""
    xy = np.asarray(xy_vertices, dtype=float)
    lat, lon = geometry.unproject_tangent(center_lat, center_lon, xy[:, 0], xy[:, 1])
    return make_beam(beam_id, center_lat, center_lon, np.column_stack([lat, lon]), **kw)


def regular_polygon_xy(n_vertices, radius_km, phase=0.0):
    ang = phase + np.arange(n_vertices) * 2.0 * math.pi / n_vertices
    return np.column_stack([radius_km * np.cos(ang), radius_km * np.sin(ang)])


@pytest.fixture
def circle_beam():
    # 360-gon: boundary within 0.004% of a true 250 km circle
    return beam_from_xy(regular_polygon_xy(360, 250.0))


@pytest.fixture
def hexagon_beam():
    return beam_from_xy(regular_polygon_xy(6, 250.0))


@pytest.fixture
def square_beam():
    # side 2a with a = 100 km, vertices at (+-a, +-a)
    a = 100.0
    return beam_from_xy([(a, a), (-a, a), (-a, -a), (a, -a)])


def pooled_from_arrays(per_iteration_rates, per_iteration_loss_flags):
    """One policy's aggregate computed from its whole per-iteration arrays.

    The formula aggregation used when it held every iteration's (n_frames, N_B)
    rates and per-frame loss flags: the reference the reduced aggregate must
    match bit for bit, as `PolicyAggregate` field values.
    """
    rates, flags = per_iteration_rates, per_iteration_loss_flags
    frames = np.array([len(r) for r in rates])
    return {
        "eta_bar": sum(float(np.sum(r)) for r in rates) / sum(r.size for r in rates),
        "loss_frame_fraction": sum(int(np.sum(f)) for f in flags) / int(frames.sum()),
        "n_frames": int(frames.sum()),
        "n_iterations": len(rates),
        "per_iteration_eta": np.array([float(np.mean(r)) for r in rates]),
        "per_iteration_loss_fraction": np.array(
            [float(np.mean(f)) if len(f) else 0.0 for f in flags]),
        "per_iteration_frames": frames,
    }


def bundled_scenario(layout="beams_hex7.json", **config_overrides):
    scenario = load_scenario(
        str(data_path("config_default.yaml")),
        str(data_path(layout)),
        str(data_path("modcod_dvbs2x.csv")),
    )
    if config_overrides:
        cfg = validate_config(replace(scenario.config, **config_overrides))
        scenario = Scenario(cfg, scenario.beams, scenario.modcod)
    return scenario


@pytest.fixture(scope="session")
def scenario7():
    return bundled_scenario("beams_hex7.json")


@pytest.fixture(scope="session")
def scenario19():
    return bundled_scenario("beams_hex19.json")
