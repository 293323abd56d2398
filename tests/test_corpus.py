"""Replay of the golden schedule corpus (and corpus plumbing tests).

Every entry under ``tests/corpus/*.jsonl`` is a concrete, shrunk
reproducer captured by the fuzz campaign or pinned by hand.  Replaying
them here -- unmarked, on every normal test run -- turns each one into a
permanent regression test.
"""

from pathlib import Path

import pytest

from repro.qa.corpus import (
    CorpusEntry,
    append_entries,
    read_corpus,
    replay_entry,
)

CORPUS_DIR = Path(__file__).parent / "corpus"


def _all_entries():
    entries = []
    for path in sorted(CORPUS_DIR.glob("*.jsonl")):
        for entry in read_corpus(path):
            entries.append(pytest.param(entry, id=f"{path.stem}:{entry.id}"))
    return entries


class TestCorpusReplay:
    def test_corpus_exists_and_is_nonempty(self):
        assert _all_entries(), "the golden corpus must never be empty"

    @pytest.mark.parametrize("entry", _all_entries())
    def test_entry_replays_clean(self, entry):
        problems = replay_entry(entry)
        assert problems == [], "\n".join(problems)


class TestCorpusPlumbing:
    def _entry(self, **overrides):
        from repro.io.json_io import graph_to_dict
        from repro.workflows.paper_example import paper_example_graph

        fields = dict(
            kind="golden",
            id="t-1",
            graph=graph_to_dict(paper_example_graph()),
            expected={"makespans": {"HDLTS": 73.0}},
        )
        fields.update(overrides)
        return CorpusEntry(**fields)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus kind"):
            self._entry(kind="mystery")

    def test_roundtrip_through_dict(self):
        entry = self._entry(
            scheduler="HDLTS",
            engine="fast",
            source="hand-pinned",
            problems=["was: off by one"],
            note="roundtrip",
        )
        again = CorpusEntry.from_dict(entry.to_dict())
        assert again == entry

    @pytest.mark.parametrize("compiled", [True, False])
    def test_older_lines_with_compiled_flag_still_load(self, compiled):
        data = dict(self._entry(scheduler="HDLTS").to_dict(), compiled=compiled)
        entry = CorpusEntry.from_dict(data)
        assert entry == self._entry(scheduler="HDLTS")
        assert "compiled" not in entry.to_dict()
        assert replay_entry(entry) == []

    def test_to_dict_omits_unset_fields(self):
        data = self._entry().to_dict()
        for absent in ("scheduler", "compiled", "engine", "note", "problems"):
            assert absent not in data

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_corpus(tmp_path / "nope.jsonl") == []

    def test_append_then_read(self, tmp_path):
        path = tmp_path / "sub" / "c.jsonl"
        assert append_entries(path, [self._entry(), self._entry(id="t-2")]) == 2
        entries = read_corpus(path)
        assert [e.id for e in entries] == ["t-1", "t-2"]

    def test_golden_without_pins_is_a_problem(self):
        entry = self._entry(expected={})
        assert any("pins no makespans" in p for p in replay_entry(entry))

    def test_golden_wrong_pin_is_caught(self):
        entry = self._entry(expected={"makespans": {"HDLTS": 99.0}})
        assert any("!= pinned" in p for p in replay_entry(entry))

    def test_golden_fig1_hdlts_replays_clean(self):
        assert replay_entry(self._entry()) == []
