"""Delta-debugging shrinker: minimality, reproducer round-trip, replay."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.fuzz.generators import generate_case
from repro.fuzz.shrink import Reproducer, replay_reproducer, shrink_case

CAMPAIGN_SEED = 7
LADDER_INDEX = 2  # priority_ladder slot in the family rotation


def injected_case():
    case = generate_case(CAMPAIGN_SEED, LADDER_INDEX)
    return dataclasses.replace(case, inject="invert_priority")


def test_shrink_reaches_minimal_inversion_witness():
    reproducer = shrink_case(
        injected_case(),
        target_oracles=("priority_order",),
        campaign_seed=CAMPAIGN_SEED,
        index=LADDER_INDEX,
    )
    # A priority inversion needs exactly two contenders; the acceptance
    # bound for the campaign is <= 2 streams and <= 3 frames.
    case = reproducer.case
    assert case.n_streams <= 2
    assert case.n_frames <= 3
    assert "priority_order" in reproducer.oracles
    assert reproducer.campaign_seed == CAMPAIGN_SEED
    assert reproducer.index == LADDER_INDEX


def test_reproducer_round_trip_and_replay(tmp_path):
    reproducer = shrink_case(injected_case())
    path = tmp_path / "repro.json"
    reproducer.save(path)
    loaded = Reproducer.load(path)
    assert loaded.to_json() == reproducer.to_json()
    # Files saved while the timeline core was selectable carry an engine.
    legacy = {**reproducer.to_dict(), "engine": "scalar"}
    assert Reproducer.from_dict(legacy).to_json() == reproducer.to_json()

    outcome = replay_reproducer(loaded)
    assert not outcome.ok
    assert set(reproducer.oracles) & set(outcome.failing_oracles)


def test_replay_accepts_bare_case():
    case = generate_case(CAMPAIGN_SEED, 0)
    outcome = replay_reproducer(case)
    assert outcome.ok


def test_shrink_refuses_passing_case():
    with pytest.raises(ConfigError):
        shrink_case(generate_case(CAMPAIGN_SEED, 0))


def test_shrunk_case_still_fails_deterministically():
    reproducer = shrink_case(injected_case())
    first = replay_reproducer(reproducer)
    second = replay_reproducer(reproducer)
    assert first.failing_oracles == second.failing_oracles
    assert not first.ok
