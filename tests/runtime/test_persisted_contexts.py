"""Run dirs, campaigns and service jobs written while ``RunContext`` had a
``compiled`` field still resume, merge and drain.

Both values of the retired field ran bit-identically, so every stored
context carrying it -- a run-dir ``manifest.json``, a ``campaign.json``
or a service job's SQLite ``context`` column -- must load with the key
dropped and reproduce ``repro figure`` byte for byte.  Each test builds
the persisted state with today's CLI, writes the key into it the way the
older releases did, and drives the real entry point.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.cli import main
from repro.experiments.campaign import Campaign
from repro.runtime.context import RunContext
from repro.runtime.session import ExperimentSession
from repro.service.store import SERVICE_DB

FIGURE = ["fig13", "--reps", "2", "--seed", "0"]


def _figure_stdout(capsys) -> str:
    assert main(["figure", *FIGURE]) == 0
    return capsys.readouterr().out


def _add_compiled_key(manifest, value: bool) -> RunContext:
    """Write the retired key into a manifest; returns the context the
    manifest held before."""
    doc = json.loads(manifest.read_text())
    before = RunContext.from_dict(doc["context"])
    doc["context"]["compiled"] = value
    manifest.write_text(json.dumps(doc, indent=2) + "\n")
    return before


@pytest.mark.parametrize("value", [True, False])
def test_run_dir_manifest_resumes_to_figure_output(tmp_path, capsys, value):
    run_dir = tmp_path / "run"
    assert main(["run", *FIGURE, "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    before = _add_compiled_key(run_dir / ExperimentSession.MANIFEST, value)
    # drop the back half of the ledger so resume computes chunks too
    ledger = run_dir / ExperimentSession.LEDGER
    lines = ledger.read_text().splitlines(keepends=True)
    assert len(lines) > 1
    ledger.write_text("".join(lines[: len(lines) // 2]))

    with ExperimentSession.open(run_dir) as session:
        assert session.context == before

    assert main(["resume", str(run_dir)]) == 0
    resumed = capsys.readouterr().out
    assert resumed == _figure_stdout(capsys)


@pytest.mark.parametrize("value", [True, False])
def test_campaign_manifest_runs_and_merges_to_figure_output(
    tmp_path, capsys, value
):
    camp = tmp_path / "camp"
    assert main([
        "campaign", "init", str(camp), "--figures", "fig13", "--reps", "2",
        "--shards", "2", "--chunk-size", "1", "--seed", "0",
    ]) == 0
    before = _add_compiled_key(camp / Campaign.MANIFEST, value)
    assert Campaign.open(camp).context == before
    for shard in ("0", "1"):
        assert main(["campaign", "run-shard", str(camp), shard]) == 0
    capsys.readouterr()
    assert main(["campaign", "merge", str(camp)]) == 0
    merged = capsys.readouterr().out
    assert merged == _figure_stdout(capsys)


@pytest.mark.parametrize("value", [True, False])
def test_service_job_context_drains_to_figure_output(tmp_path, capsys, value):
    svc = tmp_path / "svc"
    assert main(["submit", str(svc), "--figures", *FIGURE, "--json"]) == 0
    ticket = json.loads(capsys.readouterr().out)["ticket"]
    db = sqlite3.connect(svc / SERVICE_DB)
    with db:
        (raw,) = db.execute(
            "SELECT context FROM jobs WHERE ticket = ?", (ticket,)
        ).fetchone()
        context = dict(json.loads(raw), compiled=value)
        db.execute(
            "UPDATE jobs SET context = ? WHERE ticket = ?",
            (json.dumps(context), ticket),
        )
    db.close()

    assert main(["serve", str(svc), "--drain", "--poll", "0.01"]) == 0
    capsys.readouterr()
    assert main(["watch", str(svc), ticket]) == 0
    watched = capsys.readouterr().out
    assert watched == _figure_stdout(capsys)
