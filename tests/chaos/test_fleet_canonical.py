"""Pins for the canonical form of the ``fleet`` campaign preset's cells.

Each fleet cell carries ``"timeline": "bucket"``.  The field selects
nothing (the simulator has one event queue), but it is part of every
cell's canonical form, so it feeds the scenario hash, the sweep-cache key
and the result row.  These pins were frozen while the field still chose
a calendar queue; dropping or renaming it must fail here and be done
deliberately, together with a re-pin of the benchmark digests.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos import chaos_grid
from repro.chaos.campaign import CAMPAIGN_PRESETS

#: cell name -> (scenario_hash(), sha256 of the sorted-key JSON row).
PINS = {
    "gemini-fleet1k-rack": (
        "be4b6699090f1a48",
        "aacb4f40aa9d96bd6062b8a294a13df10234df3d5a2132f1c557ea80aff7bb4e",
    ),
    "gemini-fleet1k-degraded": (
        "777786e1ec20d34b",
        "15b663d6b4e398a25a0c042b3e2639b603613b185ad37026858a19dc5e49c3a6",
    ),
    "tiercheck-fleet1k-rack": (
        "4c9f933638815327",
        "bdb6ae467ec37c35c32b2e45bbbe4d013ec8b902c7316a0c0c338e55cb908419",
    ),
    "reft-fleet1k-rack": (
        "3723a7abe5320136",
        "06c158889e33d7b3b9bf1a31e7fbfda26c9243eed03708a225ca4b98ed628536",
    ),
}


def fleet_cells():
    return {cell.name: cell for cell in chaos_grid(**CAMPAIGN_PRESETS["fleet"])}


def test_preset_has_exactly_the_pinned_cells():
    assert sorted(fleet_cells()) == sorted(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_scenario_hash_is_pinned(name):
    cell = fleet_cells()[name]
    assert cell.timeline == "bucket"
    assert cell.to_dict()["timeline"] == "bucket"
    assert cell.scenario_hash() == PINS[name][0]


@pytest.mark.parametrize("name", sorted(PINS))
def test_row_is_pinned(name):
    row = fleet_cells()[name].run()
    assert row["timeline"] == "bucket"
    assert row["hash"] == PINS[name][0]
    assert row["violation_count"] == 0
    digest = hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()
    assert digest == PINS[name][1]
