"""Compiled tables do not move: every corpus of ``table_digests`` hashes
to its pinned digest.  A mismatch names the corpus and the first monitor
whose table, finals or colors differ; regenerate the file only for a
change that is meant to move a table (see ``table_digests``)."""
import json

from table_digests import CORPORA, DIGESTS, mismatch


def test_compiled_tables_match_their_pinned_digests():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(CORPORA)
    problems = [p for name in CORPORA if (p := mismatch(name, pinned[name]))]
    assert not problems, "\n".join(problems)
