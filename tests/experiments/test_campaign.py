"""The mutation-campaign runner: enumeration, rows, resume, cross-check."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import campaign
from repro.experiments.campaign import (
    _finished_ids,
    enumerate_tasks,
    run_campaign,
)
from repro.generators.catalog import architecture_names
from repro.verification.engine import METHODS


def test_enumerate_tasks_is_deterministic_and_stably_identified():
    tasks = enumerate_tasks(["SP-AR-RC"], [4], sample=10, seed=3)
    again = enumerate_tasks(["SP-AR-RC"], [4], sample=10, seed=3)
    assert tasks == again
    assert tasks[0].id == "SP-AR-RC-w4-baseline"
    assert tasks[0].index == -1
    assert len(tasks) == 11  # baseline + sample mutants
    ids = [task.id for task in tasks]
    assert len(ids) == len(set(ids))
    for task in tasks[1:]:
        # Stable machine-readable id derived from the mutation key.
        assert task.id.startswith("SP-AR-RC-w4-") and "->" in task.id
    # A different seed draws a different sample.
    assert enumerate_tasks(["SP-AR-RC"], [4], sample=10, seed=4) != tasks
    # limit truncates the flattened grid.
    assert enumerate_tasks(["SP-AR-RC"], [4], sample=10, seed=3,
                           limit=5) == tasks[:5]


def test_correct_six_bit_baseline_is_verified():
    """A correct 6-bit circuit is ``verified``, never a budget trip.

    Regression: campaigns used to route through a per-output cone path
    whose 12-input top cone at 6 bits blew the monomial budget, so the
    baseline row answered ``budget`` for a circuit the engine verifies
    in milliseconds.
    """
    rows = []
    summary = run_campaign(["SP-AR-RC"], [6], limit=1, on_row=rows.append)
    assert [row["id"] for row in rows] == ["SP-AR-RC-w6-baseline"]
    assert rows[0]["verdict"] == "verified"
    assert summary["verdicts"] == {"verified": 1}


def test_run_campaign_rows_and_summary(tmp_path):
    out = tmp_path / "campaign.jsonl"
    rows = []
    summary = run_campaign(
        ["SP-AR-RC"], [4], sample=8, seed=1, cross_check=3, out_path=out,
        on_row=rows.append)
    assert summary["tasks"] == summary["executed"] == 9
    assert summary["skipped"] == 0
    assert summary["verdicts"].get("verified", 0) >= 1  # the baseline
    assert sum(summary["verdicts"].values()) == 9
    assert summary["cross_checked"] == 3
    assert summary["cross_check_disagreements"] == 0
    assert summary["out"] == str(out)
    assert set(summary) == {"method", "seed", "tasks", "executed", "skipped",
                            "verdicts", "cross_checked",
                            "cross_check_disagreements", "out"}

    persisted = [json.loads(line) for line in
                 out.read_text(encoding="utf-8").splitlines()]
    assert persisted == rows
    baseline = persisted[0]
    assert baseline["id"] == "SP-AR-RC-w4-baseline"
    assert baseline["mutation"] is None
    assert baseline["verdict"] == "verified"
    for row in persisted[1:]:
        assert row["mutation"] is not None
        assert row["verdict"] in ("verified", "refuted")
    checked = [row for row in persisted if "cross_check" in row]
    assert len(checked) == 3
    for row in checked:
        assert row["cross_check"]["method"] == "sat-cec"
        assert row["cross_check"]["verdict"] == row["verdict"]
        assert row["cross_check"]["agrees"] is True


@pytest.mark.parametrize("architecture", architecture_names())
def test_sat_cross_check_agrees_on_every_catalog_architecture(architecture):
    """MT-LR and the SAT miter agree on sampled 3-bit mutants of each scheme."""
    rows = []
    summary = run_campaign([architecture], [3], sample=6, seed=0,
                           cross_check=6, on_row=rows.append)
    assert rows[0]["id"] == f"{architecture}-w3-baseline"
    assert rows[0]["verdict"] == "verified"
    assert summary["cross_checked"] == 6
    assert summary["cross_check_disagreements"] == 0
    checked = [row["cross_check"] for row in rows if "cross_check" in row]
    assert [check["agrees"] for check in checked] == [True] * 6


@pytest.mark.parametrize("method", METHODS)
def test_sat_cross_check_agrees_with_every_algebraic_method(method):
    """Every reduction scheme matches SAT on all 3-bit SP-AR-RC mutants."""
    mutants = len(enumerate_tasks(["SP-AR-RC"], [3])) - 1
    rows = []
    summary = run_campaign(["SP-AR-RC"], [3], method, cross_check=mutants,
                           on_row=rows.append)
    assert summary["method"] == method
    assert summary["cross_checked"] == mutants
    assert summary["cross_check_disagreements"] == 0
    assert summary["verdicts"].get("budget", 0) == 0
    assert all(row["cross_check"]["agrees"] for row in rows[1:])


def test_cross_check_disagreement_and_sat_budget(monkeypatch):
    """A disagreeing SAT verdict is counted; a SAT budget trip is not."""
    real_execute = campaign._execute_task
    # The first SAT answer is flipped, the second becomes a budget trip.
    forgeries = iter([{"verified": "refuted", "refuted": "verified"},
                      {"verified": "budget", "refuted": "budget"}])

    class ForgedService:
        def __init__(self, service):
            self.service = service

        def submit(self, request):
            report = self.service.submit(request)
            if request.method == "sat-cec":
                verdict = next(forgeries)[report.verdict]
                report = dataclasses.replace(report, verdict=verdict,
                                             status="")
            return report

    monkeypatch.setattr(
        campaign, "_execute_task",
        lambda service, *args: real_execute(ForgedService(service), *args))
    rows = []
    summary = run_campaign(["SP-AR-RC"], [3], sample=4, seed=0,
                           cross_check=2, on_row=rows.append)
    checked = [row["cross_check"] for row in rows if "cross_check" in row]
    assert [check["agrees"] for check in checked] == [False, None]
    assert summary["cross_checked"] == 2
    assert summary["cross_check_disagreements"] == 1


def test_second_run_reproduces_the_verdict_column(tmp_path):
    kwargs = dict(sample=8, seed=1)
    first = run_campaign(["SP-AR-RC"], [4],
                         out_path=tmp_path / "run1.jsonl", **kwargs)
    second = run_campaign(["SP-AR-RC"], [4],
                          out_path=tmp_path / "run2.jsonl", **kwargs)
    assert first["verdicts"] == second["verdicts"]

    def verdict_column(path):
        return [(json.loads(line)["id"], json.loads(line)["verdict"])
                for line in path.read_text(encoding="utf-8").splitlines()]

    assert verdict_column(tmp_path / "run1.jsonl") == \
        verdict_column(tmp_path / "run2.jsonl")


def test_resume_executes_only_the_unfinished_tasks(tmp_path):
    out = tmp_path / "campaign.jsonl"
    partial = run_campaign(["SP-AR-RC"], [4], sample=8, seed=1, limit=4,
                           out_path=out)
    assert partial["executed"] == 4

    # Simulate the interruption tearing the last line mid-write.
    with open(out, "a", encoding="utf-8") as handle:
        handle.write('{"id": "SP-AR-RC-w4-tor')

    resumed = run_campaign(["SP-AR-RC"], [4], sample=8, seed=1, resume=True,
                           out_path=out)
    assert resumed["skipped"] == 4
    assert resumed["executed"] == 5
    assert resumed["tasks"] == 9
    ids = [json.loads(line)["id"]
           for line in out.read_text(encoding="utf-8").splitlines()
           if not line.startswith('{"id": "SP-AR-RC-w4-tor')]
    expected = [task.id for task in
                enumerate_tasks(["SP-AR-RC"], [4], sample=8, seed=1)]
    assert ids == expected

    # A third run with resume finds nothing left to do.
    done = run_campaign(["SP-AR-RC"], [4], sample=8, seed=1, resume=True,
                        out_path=out)
    assert done["executed"] == 0
    assert done["skipped"] == 9


def test_finished_ids_tolerates_torn_and_foreign_lines(tmp_path):
    out = tmp_path / "rows.jsonl"
    out.write_text('{"id": "a", "verdict": "verified"}\n'
                   '[1, 2, 3]\n'
                   'not json at all\n'
                   '{"no_id": true}\n'
                   '{"id": "b"}\n'
                   '{"id": "c", "verdi',
                   encoding="utf-8")
    assert _finished_ids(out) == {"a", "b"}
    assert _finished_ids(Path(tmp_path / "missing.jsonl")) == set()


def test_parallel_jobs_agree_with_the_serial_run(tmp_path):
    serial = run_campaign(["SP-AR-RC"], [4], sample=6, seed=2,
                          out_path=tmp_path / "serial.jsonl")
    parallel = run_campaign(["SP-AR-RC"], [4], sample=6, seed=2, jobs=2,
                            out_path=tmp_path / "parallel.jsonl")
    assert parallel["verdicts"] == serial["verdicts"]

    def verdict_of(path):
        return {json.loads(line)["id"]: json.loads(line)["verdict"]
                for line in path.read_text(encoding="utf-8").splitlines()}

    assert verdict_of(tmp_path / "parallel.jsonl") == \
        verdict_of(tmp_path / "serial.jsonl")


def test_cli_campaign_smoke(tmp_path, capsys):
    assert main(["campaign", "-a", "SP-AR-RC", "-w", "4", "--sample", "5",
                 "--seed", "9", "--cross-check", "2",
                 "--out", str(tmp_path / "rows.jsonl")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tasks"] == 6
    assert summary["cross_checked"] == 2
    assert summary["cross_check_disagreements"] == 0
    rows = (tmp_path / "rows.jsonl").read_text(encoding="utf-8")
    assert len(rows.splitlines()) == 6
