"""Replay the seeded parity corpus (parity_corpus.py) against its committed
digests."""

import json

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


def test_write_adds_missing_chunks_and_never_overwrites_a_digest(tmp_path, monkeypatch, capsys):
    digests = tmp_path / "parity_corpus.json"
    monkeypatch.setattr(parity_corpus, "DIGESTS", str(digests))
    monkeypatch.setattr(parity_corpus, "CHUNKS", {"a/0": lambda: ["a"], "b/0": lambda: ["b"]})
    digests.write_text(json.dumps({"a/0": parity_corpus.digest(["a"])}))
    assert parity_corpus.main([]) == 1
    assert capsys.readouterr().out.split("\n") == ["a/0 ok", "b/0 CHANGED", ""]
    assert parity_corpus.main(["--write"]) == 0
    assert capsys.readouterr().out.split("\n") == ["a/0 ok", "b/0 added", ""]
    assert parity_corpus.committed() == {"a/0": parity_corpus.digest(["a"]),
                                         "b/0": parity_corpus.digest(["b"])}
    # a changed digest is refused, and nothing is written
    before = json.dumps({"a/0": "0" * 64})
    digests.write_text(before)
    assert parity_corpus.main(["--write"]) == 1
    assert capsys.readouterr().out.split("\n") == ["a/0 CHANGED", "b/0 added", ""]
    assert digests.read_text() == before
