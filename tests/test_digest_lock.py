"""Cross-version determinism: per-tick world digests must match the pinned
streams in fixtures/golden/digests.json (see digest_corpus.py)."""

import json

import pytest

from digest_corpus import PINNED, TICKS, corpus, digest_stream

CORPUS = corpus()


def test_pinned_file_covers_the_corpus():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(name for name, _, _ in CORPUS)
    assert all(len(stream) == TICKS + 1 for stream in pinned.values())


@pytest.mark.parametrize("name,model,base_dir", CORPUS, ids=[name for name, _, _ in CORPUS])
def test_digest_stream_matches_pinned(name, model, base_dir):
    want = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    got = digest_stream(model, base_dir)
    diverged = next((t for t, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert diverged is None, f"{name}: first divergence at tick {diverged}"
