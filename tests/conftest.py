"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def straight_json() -> str:
    """Path of the configuration file of the straight strip: no discrete
    spectrum, and a threshold resonance."""
    return "configs/straight_strip.json"
