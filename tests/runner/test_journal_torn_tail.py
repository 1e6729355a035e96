"""A sweep journal torn mid-line must not swallow the next completion.

A crash mid-append leaves a partial last line without a newline.  If the
resumed sweep appended straight after it, its first completion would be
glued onto the garbage and skipped by every later load: the run would be
re-executed on the next resume although it was journaled.
"""

from repro.runner import RunJournal


def test_record_after_a_torn_tail_survives_a_fresh_load(tmp_path):
    path = tmp_path / "journal.jsonl"
    RunJournal(path).record("aaa")
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"digest": "bb')  # the crash tears this append

    resumed = RunJournal(path)
    assert resumed.completed() == {"aaa"}
    resumed.record("ccc")

    assert RunJournal(path).completed() == {"aaa", "ccc"}
