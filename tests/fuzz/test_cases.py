"""Fuzz case validation: a malformed case fails at construction, not mid-run."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.fuzz.cases import FuzzCase, TaskShape
from repro.fuzz.generators import generate_case

CAMPAIGN_SEED = 7


class TestTaskShape:
    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigError, match="negative duration"):
            TaskShape("op", -1.0, claims=(("simd", 1.0),))

    def test_no_claims_rejected(self):
        with pytest.raises(ConfigError, match="claims no resources"):
            TaskShape("op", 1.0, claims=())

    def test_malformed_claim_rejected(self):
        with pytest.raises(ConfigError, match=r"must be \(kind, fraction\)"):
            TaskShape("op", 1.0, claims=(("simd",),))

    def test_claims_are_canonical_pairs(self):
        shape = TaskShape("op", 1.0, claims=[["array", 1], ("tc", "0.5")])
        assert shape.claims == (("array", 1.0), ("tc", 0.5))


class TestFuzzCase:
    def case(self):
        return generate_case(CAMPAIGN_SEED, 0)

    def test_stream_without_template_rejected(self):
        case = self.case()
        missing = case.scenario.streams[-1].name
        templates = {
            name: chain
            for name, chain in case.templates.items()
            if name != missing
        }
        with pytest.raises(ConfigError, match=f"{missing!r} has no task"):
            dataclasses.replace(case, templates=templates)

    def test_empty_template_rejected(self):
        case = self.case()
        name = case.scenario.streams[0].name
        with pytest.raises(ConfigError, match="empty task template"):
            dataclasses.replace(
                case, templates={**case.templates, name: ()}
            )

    def test_unknown_injection_rejected(self):
        with pytest.raises(ConfigError, match="unknown injection"):
            dataclasses.replace(self.case(), inject="flip_bits")

    def test_templates_decode_from_dicts(self):
        case = self.case()
        raw = {
            name: [shape.to_dict() for shape in chain]
            for name, chain in case.templates.items()
        }
        assert dataclasses.replace(case, templates=raw) == case

    def test_save_load_round_trip(self, tmp_path):
        case = self.case()
        path = tmp_path / "case.json"
        case.save(path)
        assert FuzzCase.load(path) == case

    def test_unreadable_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read fuzz case"):
            FuzzCase.load(tmp_path / "absent.json")
