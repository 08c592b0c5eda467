import json

import pytest

from beamsim.cli import data_path
from beamsim.layouts import make_hex_layout


@pytest.mark.parametrize(
    "name, n_beams, center_lat, center_lon",
    [
        ("beams_hex7.json", 7, 45.0, 8.0),
        ("beams_hex19.json", 19, 45.0, 8.0),
        ("beams_europe71.json", 71, 50.0, 10.0),
    ],
)
def test_bundled_layout_regenerates(name, n_beams, center_lat, center_lon):
    text = json.dumps(make_hex_layout(n_beams, center_lat, center_lon, 250.0), indent=1)
    assert data_path(name).read_text() == text + "\n"
