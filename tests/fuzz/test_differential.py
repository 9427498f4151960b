"""Differential fuzzing: the engine_divergence oracle and its wiring.

``evaluate_case(differential=True)`` re-runs every case on the reference
timeline engine and flags any non-byte-identical report. These tests
pin three things: the oracle finds nothing on a healthy engine pair
(the PR-gating smoke), it *does* fire when the reference run misbehaves
(injected via monkeypatching), and the campaign/cluster plumbing
carries the flag end to end.
"""

import pytest

from repro.cluster import protocol
from repro.fuzz import (
    ORACLE_NAMES,
    evaluate_case,
    generate_batch,
    run_campaign,
)
from repro.fuzz import oracles as oracles_module

#: One case per generator family, all evaluated differentially.
SMOKE_SEED = 20260808


class TestDifferentialOracle:
    def test_oracle_registered(self):
        assert "engine_divergence" in ORACLE_NAMES
        assert tuple(sorted(ORACLE_NAMES)) == ORACLE_NAMES

    @pytest.mark.parametrize(
        "case",
        generate_batch(SMOKE_SEED, 12),
        ids=lambda case: case.case_id,
    )
    def test_no_divergence_across_families(self, case):
        """The PR-gating smoke: the engines agree on every family."""
        outcome = evaluate_case(case, deep=False, differential=True)
        divergences = [
            violation
            for violation in outcome.violations
            if violation.oracle == "engine_divergence"
        ]
        assert not divergences, divergences

    def test_divergence_detected_when_other_engine_breaks(self, monkeypatch):
        """A tampered second run must surface as engine_divergence."""
        case = generate_batch(SMOKE_SEED, 1)[0]
        real_run_case = oracles_module.run_case

        def tampered(case, reference=False):
            result = real_run_case(case, reference=reference)
            if reference:
                # Perturb the differential re-run only: shift the
                # serving makespan so the reports cannot match.
                from dataclasses import replace

                serving = replace(
                    result.serving, makespan_s=result.serving.makespan_s + 1.0
                )
                result = replace(result, serving=serving)
            return result

        monkeypatch.setattr(oracles_module, "run_case", tampered)
        outcome = evaluate_case(case, deep=False, differential=True)
        assert any(
            violation.oracle == "engine_divergence"
            for violation in outcome.violations
        )

    def test_crash_on_other_engine_is_divergence(self, monkeypatch):
        case = generate_batch(SMOKE_SEED, 1)[0]
        real_run_case = oracles_module.run_case

        def crashing(case, reference=False):
            if reference:
                raise RuntimeError("injected engine fault")
            return real_run_case(case, reference=reference)

        monkeypatch.setattr(oracles_module, "run_case", crashing)
        outcome = evaluate_case(case, deep=False, differential=True)
        messages = [
            violation.message
            for violation in outcome.violations
            if violation.oracle == "engine_divergence"
        ]
        assert messages and "raised" in messages[0]

    def test_differential_off_by_default(self):
        case = generate_batch(SMOKE_SEED, 1)[0]
        outcome = evaluate_case(case, deep=False)
        assert not any(
            violation.oracle == "engine_divergence"
            for violation in outcome.violations
        )


class TestCampaignWiring:
    def test_campaign_runs_differentially_clean(self):
        report = run_campaign(
            SMOKE_SEED, 6, shrink=False, differential=True
        )
        assert report.executed == 6
        assert report.ok, [record.oracles for record in report.failures]

    def test_fuzz_message_carries_flag(self):
        message = protocol.fuzz_message(
            seed=7, indices=[0, 1, 2], differential=True
        )
        assert message["differential"] is True
        assert protocol.fuzz_message(seed=7, indices=[0])["differential"] is False

    def test_absent_flag_defaults_off(self):
        """Wire compatibility: old clients omit the key entirely."""
        message = protocol.fuzz_message(seed=7, indices=[0])
        del message["differential"]
        assert bool(message.get("differential", False)) is False
