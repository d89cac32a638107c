"""Every golden-corpus command line exits and prints as recorded."""

from golden.regen import read_corpus, replay

MIN_ROWS = 300


def test_every_row_replays_unchanged(tmp_path, monkeypatch):
    # in an empty directory, as recorded, so relative paths in argv and in
    # messages match
    monkeypatch.chdir(tmp_path)
    rows = read_corpus()
    assert len(rows) >= MIN_ROWS
    assert {row.outcome[0] for row in rows} >= {0, 1, 2, 3, 5}
    changed = [row.label for row in rows if replay(row.argv, row.config) != row.outcome]
    assert not changed, (
        f"{len(changed)} corpus rows changed; tests/golden/regen.py lists them: "
        f"{changed[:20]}"
    )
