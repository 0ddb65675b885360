"""Fixtures shared by the test modules."""

import json

import pytest

# the straight strip: no discrete spectrum, and a threshold resonance
STRAIGHT = {
    "name": "straight",
    "center": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "edge_tags": ["D", "N", "D", "N"],
               "edge_roles": ["wall", "cut", "wall", "cut"]},
    "branches": [{"edge": 1, "cross_section": {"type": "interval", "dims": [1.0]}},
                 {"edge": 3, "cross_section": {"type": "interval", "dims": [1.0]}}],
}


@pytest.fixture
def straight_json(tmp_path) -> str:
    """Path of a configuration file of the straight strip."""
    path = tmp_path / "straight.json"
    path.write_text(json.dumps(STRAIGHT))
    return str(path)
