"""The ``repro fuzz`` CLI: run / replay / shrink, exit codes, byte-identity."""

import json

import pytest

from repro.__main__ import main

SEED = "7"


def run_json(capsys, *extra):
    code = main(["fuzz", "run", "--seed", SEED, "--batch", "8", "--json",
                 *extra])
    return code, capsys.readouterr().out


def test_run_exits_zero_and_reports(capsys):
    code, out = run_json(capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "fuzz"
    assert payload["campaign_seed"] == 7
    assert payload["batch"] == 8
    assert payload["failure_count"] == 0


def test_run_json_is_byte_identical_across_runs(capsys):
    code_a, out_a = run_json(capsys)
    code_b, out_b = run_json(capsys)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_injected_run_fails_and_saves_reproducers(capsys, tmp_path):
    repro_dir = tmp_path / "reproducers"
    code = main([
        "fuzz", "run", "--seed", SEED, "--batch", "16",
        "--inject", "invert_priority",
        "--reproducer-dir", str(repro_dir), "--json",
    ])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failure_count"] == 2
    saved = sorted(path.name for path in repro_dir.glob("*.json"))
    assert saved == [
        "c000002-priority_ladder.json",
        "c000011-priority_ladder.json",
    ]


def test_replay_of_reproducer_re_fails(capsys, tmp_path):
    repro_dir = tmp_path / "reproducers"
    assert main([
        "fuzz", "run", "--seed", SEED, "--batch", "3",
        "--inject", "invert_priority",
        "--reproducer-dir", str(repro_dir),
    ]) == 1
    capsys.readouterr()
    [path] = repro_dir.glob("*.json")
    code = main(["fuzz", "replay", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert "priority_order" in payload["oracles"]
    assert not payload["ok"]


def test_replay_of_passing_case_exits_zero(capsys, tmp_path):
    from repro.fuzz.generators import generate_case

    path = tmp_path / "case.json"
    generate_case(7, 0).save(path)
    assert main(["fuzz", "replay", str(path)]) == 0
    assert "all oracles held" in capsys.readouterr().out


def test_shrink_writes_minimal_reproducer(capsys, tmp_path):
    import dataclasses

    from repro.fuzz.generators import generate_case
    from repro.fuzz.shrink import Reproducer

    case = dataclasses.replace(
        generate_case(7, 2), inject="invert_priority"
    )
    case_path = tmp_path / "case.json"
    case.save(case_path)
    out_path = tmp_path / "min.json"
    code = main([
        "fuzz", "shrink", str(case_path), "-o", str(out_path),
        "--oracle", "priority_order",
    ])
    capsys.readouterr()
    assert code == 0
    reproducer = Reproducer.load(out_path)
    assert reproducer.case.n_streams <= 2
    assert reproducer.case.n_frames <= 3


def test_store_and_resume_round_trip(capsys, tmp_path):
    store = tmp_path / "corpus.sqlite"
    code, first = run_json(capsys, "--store", str(store), "--resume")
    assert code == 0
    code, second = run_json(capsys, "--store", str(store), "--resume")
    assert code == 0
    a, b = json.loads(first), json.loads(second)
    assert a["executed"] == 8 and a["loaded"] == 0
    assert b["executed"] == 0 and b["loaded"] == 8
    assert a["records"] == b["records"]


def test_interrupted_run_keeps_finished_cases(capsys, tmp_path, monkeypatch):
    """Write-through: a campaign interrupted at case k keeps cases
    0..k-1, and ``--resume`` executes only the rest."""
    from repro.fuzz import campaign
    from repro.fuzz.campaign import CorpusStore
    from repro.fuzz.generators import generate_case

    k = 3
    interrupted = generate_case(int(SEED), k).case_id
    evaluate = campaign.evaluate_case

    def interrupt_at_k(case, **kwargs):
        if case.case_id == interrupted:
            raise KeyboardInterrupt
        return evaluate(case, **kwargs)

    store = tmp_path / "corpus.sqlite"
    monkeypatch.setattr(campaign, "evaluate_case", interrupt_at_k)
    with pytest.raises(KeyboardInterrupt):
        run_json(capsys, "--store", str(store))
    monkeypatch.undo()
    with CorpusStore(store) as corpus:
        assert corpus.indices(int(SEED)) == set(range(k))
    code, resumed = run_json(capsys, "--store", str(store), "--resume")
    _, fresh = run_json(capsys)
    assert code == 0
    resumed, fresh = json.loads(resumed), json.loads(fresh)
    assert resumed["executed"] == 8 - k and resumed["loaded"] == k
    assert resumed["records"] == fresh["records"]
