"""Pinned payloads: every golden re-encodes byte-for-byte and decodes back.

The goldens under ``tests/api/goldens/`` were written from the builders in
:mod:`golden_cases`; they pin the sorted-key JSON of every class with a
``to_dict`` across commits (the round-trip suites only compare a commit
with itself), and with it every ``request_fingerprint`` and sorted store
payload derived from them.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from tests.api.golden_cases import CASES, GOLDENS, HANDWRITTEN, dumps

INSTANCES = {name: build() for name, build in CASES.items()}
CLASSES = {name: type(instance) for name, instance in INSTANCES.items()}
CLASSES.update(HANDWRITTEN)
DECODABLE = sorted(name for name, cls in CLASSES.items() if hasattr(cls, "from_dict"))


def _golden(name: str) -> str:
    return (GOLDENS / f"{name}.json").read_text()


def test_every_golden_has_a_builder():
    assert {path.stem for path in GOLDENS.glob("*.json")} == set(CLASSES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_reencodes_byte_for_byte(name):
    assert dumps(INSTANCES[name].to_dict()) == _golden(name)


@pytest.mark.parametrize("name", DECODABLE)
def test_decodes_to_an_equal_object(name):
    text = _golden(name)
    decoded = CLASSES[name].from_dict(json.loads(text))
    assert dumps(decoded.to_dict()) == text
    if name in INSTANCES and dataclasses.is_dataclass(decoded):
        assert decoded == INSTANCES[name]
