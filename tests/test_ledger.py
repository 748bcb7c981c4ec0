"""Every value in ``tests/exact_ledger.json``, recomputed and compared with ``==``."""

import json

import pytest

import write_ledger

PINNED = json.loads(write_ledger.LEDGER.read_text())


@pytest.fixture(scope="module")
def computed():
    return write_ledger.compute()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_ledger_values_unchanged(computed, key):
    assert computed[key] == PINNED[key]


def test_ledger_covers_every_quantity(computed):
    assert sorted(computed) == sorted(PINNED)
    assert len(PINNED["predicted_centered_moment"]) == 158


def test_writer_keeps_an_existing_ledger(tmp_path, monkeypatch):
    path = tmp_path / "exact_ledger.json"
    path.write_text("{}\n")
    monkeypatch.setattr(write_ledger, "LEDGER", path)
    assert write_ledger.main([]) == 1
    assert path.read_text() == "{}\n"
