"""Solver and recognizer outputs at n = 64-1024 against their pins.

Tier-1 recomputes the entries of tests/golden/scale_outputs.json that took
under a second at capture; `python tests/capture_scale_outputs.py` verifies
every entry, the slow ones included.
"""

import json

import pytest

import capture_scale_outputs as scale

PINS = json.loads(scale.GOLDEN.read_text())
FAST = sorted(key for key, entry in PINS.items() if entry["seconds"] < 1.0)


def test_pins_cover_every_case():
    assert set(PINS) == set(scale.cases())


@pytest.mark.parametrize("key", FAST)
def test_output_matches_pin(key):
    fields, _ = scale.compute(key)
    assert fields == scale.pinned(PINS[key])
