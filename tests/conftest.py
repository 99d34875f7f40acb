"""Shared test settings and fixtures.

A hypothesis failure prints the blob that replays it
(``@reproduce_failure``), so a failure seen only in a CI log can be rebuilt
from that log.
"""

import pytest
from hypothesis import settings

from subgrad import polykernel

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


@pytest.fixture
def canonical_memos(monkeypatch):
    """The canonical-form memo open at each DD canonicalization from here
    on (None outside a ``memo_scope`` call), in order."""
    seen = []
    form = polykernel._canonical_form

    def recorded(*args):
        seen.append(polykernel._MEMO.get())
        return form(*args)

    monkeypatch.setattr(polykernel, "_canonical_form", recorded)
    return seen
