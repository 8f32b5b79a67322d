"""Replay the seeded parity corpus (parity_corpus.py) against its committed
digests."""

import pytest

import parity_corpus


def test_every_chunk_has_a_digest():
    assert sorted(parity_corpus.CHUNKS) == sorted(parity_corpus.committed())


@pytest.mark.parametrize("name", sorted(parity_corpus.CHUNKS))
def test_chunk_matches_its_digest(name):
    lines = parity_corpus.CHUNKS[name]()
    assert len(lines) == parity_corpus.CASES_PER_CHUNK
    assert parity_corpus.digest(lines) == parity_corpus.committed()[name], (
        f"the outputs of chunk {name} changed; its cases (input -> output):\n" + "\n".join(lines))
