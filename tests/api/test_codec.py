"""The dataclass codec: checked decoding, no coercion, fresh containers."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.api.golden_cases import CASES, GOLDENS, HANDWRITTEN
from repro.__main__ import main
from repro.api.results import SimRequest, report_from_dict
from repro.errors import ConfigError
from repro.fuzz.cases import FuzzCase
from repro.schedule.streams import ScenarioSpec

CLASSES = {name: type(build()) for name, build in CASES.items()}
CLASSES.update(HANDWRITTEN)
DECODABLE = sorted(name for name, cls in CLASSES.items() if hasattr(cls, "from_dict"))
GOLDEN = {name: (GOLDENS / f"{name}.json").read_text() for name in DECODABLE}

#: Inputs each hand-written decoder once let through as a TypeError,
#: KeyError or ValueError.
MALFORMED = {
    "report_without_fields": lambda: report_from_dict({"kind": "gemm"}),
    "request_without_platform": lambda: SimRequest.from_dict({"model": "alexnet"}),
    "unknown_dtype": lambda: SimRequest.from_dict(
        {"kind": "gemm", "platform": "sma:3",
         "gemm": {"m": 8, "n": 8, "k": 8, "dtype": "fp99"}}
    ),
    "string_frames": lambda: ScenarioSpec.from_dict(
        {"name": "x", "frames": "3",
         "streams": [{"name": "a", "model": "alexnet"}]}
    ),
    "case_without_fields": lambda: FuzzCase.from_dict({"kind": "fuzz_case"}),
}


@pytest.mark.parametrize("call", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_raises_config_error(call):
    with pytest.raises(ConfigError):
        call()


def test_scenario_spec_with_string_frames_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "x", "platform": "sma:2", "frames": "3",
        "streams": [{"name": "a", "model": "alexnet"}],
    }))
    assert main(["scenario", "--spec", str(spec)]) == 2
    assert "error:" in capsys.readouterr().err


def test_fuzz_replay_of_a_bare_kind_exits_2(tmp_path, capsys):
    path = tmp_path / "case.json"
    path.write_text('{"kind": "fuzz_case"}')
    assert main(["fuzz", "replay", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


class TestPayloadRules:
    def test_int_field_refuses_a_float_and_a_bool(self):
        for frames in (3.0, True):
            with pytest.raises(ConfigError, match="ScenarioSpec.frames"):
                ScenarioSpec.from_dict({
                    "name": "x", "frames": frames,
                    "streams": [{"name": "a", "model": "m"}],
                })

    def test_encoded_containers_are_fresh(self):
        # Callers such as request_fingerprint mutate what to_dict returns.
        for name in ("ScheduleReport-preemptions", "ServingReport-streaming",
                     "SimRequest-serving", "FuzzCase"):
            instance = CASES[name]()
            expected = json.dumps(instance.to_dict(), sort_keys=True)
            _scramble(instance.to_dict())
            assert json.dumps(instance.to_dict(), sort_keys=True) == expected

    def test_slo_report_json_keeps_platform_order_and_ranking(self):
        report = CASES["SloReport"]()
        a100 = report.points[1]
        twice = replace(a100, platform="zz", area_mm2=a100.area_mm2 / 2)
        payload = json.loads(replace(report, points=report.points + (twice,)).to_json())
        assert list(payload["max_sustainable"]) == ["sma:3", "a100", "zz"]
        assert list(payload["slo_per_mm2"]) == ["zz", "a100"]


def _scramble(value) -> None:
    """Mutate every container inside ``value`` in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            _scramble(item)
        value["scrambled"] = True
    elif isinstance(value, list):
        for item in value:
            _scramble(item)
        value.append("scrambled")


# -- malformed goldens -----------------------------------------------------------------
#: One value of each JSON type.
SAMPLES = (None, True, 7, 2.5, "x", [], [1], {}, {"x": 1})


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, path + (index,))


PATHS = {name: list(_paths(json.loads(text))) for name, text in GOLDEN.items()}


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_golden_decodes_or_raises_config_error(data):
    """Dropping a key or swapping a value's JSON type anywhere in a golden
    either still decodes or raises ConfigError, never anything else."""
    name = data.draw(st.sampled_from(DECODABLE))
    payload = json.loads(GOLDEN[name])
    path = data.draw(st.sampled_from(PATHS[name]))
    if not path:
        payload = data.draw(st.sampled_from(
            [sample for sample in SAMPLES if not isinstance(sample, dict)]
        ))
    else:
        parent = payload
        for step in path[:-1]:
            parent = parent[step]
        key = path[-1]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[key]
        else:
            current = _json_type(parent[key])
            parent[key] = data.draw(st.sampled_from(
                [sample for sample in SAMPLES if _json_type(sample) != current]
            ))
    try:
        CLASSES[name].from_dict(payload)
    except ConfigError:
        pass
