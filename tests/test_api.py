"""The package's export list: every name resolves, and none is listed twice."""

import evjoint


def test_every_exported_name_resolves_once():
    assert len(evjoint.__all__) == len(set(evjoint.__all__))
    missing = [name for name in evjoint.__all__ if not hasattr(evjoint, name)]
    assert missing == []
