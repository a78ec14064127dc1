"""Shared test setup."""

import pytest


@pytest.fixture(autouse=True)
def no_seed_from_environment(monkeypatch):
    """Commands without --seed read QGQEC_SEED, so a value set in the shell
    would change their output.  Tests that need the variable pass it through
    ``env=``."""
    monkeypatch.delenv("QGQEC_SEED", raising=False)
